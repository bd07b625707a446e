// Runs one benchmark workload and prints its metrics; the last line of
// standard output is the JSON result. See perfbench/README.md.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--scale=full|tiny] [--work-dir=<dir>] [--cache-dir=<dir>]
//   perfbench --list-metrics
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "report.h"
#include "util/flags.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=<name> --seed=<n> "
               "--seconds=<s> --trace=<0|1> [--scale=full|tiny] "
               "[--work-dir=<dir>] [--cache-dir=<dir>] | --list-metrics\n",
               why);
  return 2;
}

void ListMetrics() {
  auto print = [](const char* key,
                  const std::vector<perfbench::MetricSpec>& specs) {
    std::printf("\"%s\": [", key);
    for (size_t i = 0; i < specs.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                  specs[i].name, specs[i].unit);
    }
    std::printf("]");
  };
  std::printf("{\"workloads\": [");
  const auto& names = perfbench::WorkloadNames();
  for (size_t i = 0; i < names.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", names[i].c_str());
  }
  std::printf("], ");
  print("end_to_end", perfbench::EndToEndMetrics());
  std::printf(", ");
  print("per_layer", perfbench::PerLayerMetrics());
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const mdseq::Flags flags(argc, argv);
  if (flags.Has("list-metrics")) {
    ListMetrics();
    return 0;
  }
  perfbench::RunOptions options;
  options.workload = flags.GetString("workload", "");
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown or missing --workload");
  if (!flags.Has("seed")) return Usage("missing --seed");
  options.seed = flags.GetSize("seed", 0);
  options.seconds = flags.GetDouble("seconds", 0.0);
  if (!(options.seconds > 0.0) || options.seconds > 3600.0) {
    return Usage("--seconds must be in (0, 3600]");
  }
  const std::string trace = flags.GetString("trace", "0");
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");
  options.trace = trace == "1";
  const std::string scale = flags.GetString("scale", "full");
  if (scale == "tiny") {
    options.scale = perfbench::Scale::Tiny();
    options.setup_repeats = 3;
    options.warmup_seconds = 0.2;
  } else if (scale != "full") {
    return Usage("--scale must be full or tiny");
  }
  options.work_dir = flags.GetString("work-dir", ".bench_build/work");
  options.cache_dir = flags.GetString("cache-dir", ".bench_build/cache");
  options.nproc = std::max(1u, std::thread::hardware_concurrency());

  const perfbench::RunResult result = perfbench::RunWorkload(options);
  result.report.PrintText();
  if (!result.refused.empty()) {
    for (const std::string& name : result.refused) {
      std::fprintf(stderr,
                   "perfbench: refusing to report %s: too few samples\n",
                   name.c_str());
    }
    return 3;
  }
  const auto& specs = options.trace ? perfbench::PerLayerMetrics()
                                    : perfbench::EndToEndMetrics();
  if (!result.report.PrintJson(specs, result.correct, result.attempted,
                               result.failed)) {
    return 1;
  }
  return result.correct && result.failed == 0 ? 0 : 1;
}
