#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"

namespace perfbench {

/// The four workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed window (the live workload converts it into a
  /// fixed number of ingest batches).
  double seconds = 10.0;
  /// False: end-to-end metrics only. True: per-layer metrics from spans.
  bool trace = false;
  Scale scale;
  /// Untimed warm-up before each timed window or round.
  double warmup_seconds = 0.5;
  /// Set-ups per run; `setup_s` is their median.
  size_t setup_repeats = 5;
  /// Scratch directory for database files and the span dump.
  std::string work_dir;
  /// Where exact reference answers are cached between runs.
  std::string cache_dir;
  size_t nproc = 1;
};

struct RunResult {
  Report report;
  /// Every answer passed the exact-answer gate.
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Names of metrics refused for too few samples (the run then reports
  /// nothing).
  std::vector<std::string> refused;
};

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
