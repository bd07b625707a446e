#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A metric the benchmark reports in its final JSON line.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The `--trace 0` set (BENCHMARK.json `end_to_end`): present and non-zero
/// on every workload.
const std::vector<MetricSpec>& EndToEndMetrics();

/// The `--trace 1` set (BENCHMARK.json `per_layer`). A layer a workload
/// does not exercise reports 0, marked "n/a" in the text output.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Unit of a named metric from either set, or "" when unknown.
std::string UnitOf(const std::string& name);

/// Collects metric values and prints them.
class Report {
 public:
  /// Records a value. `samples` is the sample count behind it (0 = not a
  /// sampled statistic); `note` is printed beside it ("residual", "n/a").
  void Set(const std::string& name, double value, uint64_t samples = 0,
           const std::string& note = "");
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

  /// Prints one `metric <name> <value> <unit> n=<samples> [note]` line per
  /// recorded value, in insertion order.
  void PrintText() const;

  /// The final JSON line with exactly the metrics of `specs`; a metric in
  /// `specs` that was never recorded is an error (returns false).
  bool PrintJson(const std::vector<MetricSpec>& specs, bool correct,
                 uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    double value = 0.0;
    uint64_t samples = 0;
    std::string note;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
