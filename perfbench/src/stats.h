#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a percentile needs before it may be reported: at least ten
/// samples beyond it (so p99 needs 1000), and never fewer than 100.
size_t RequiredSamples(double quantile);

/// Nearest-rank percentile of raw samples (`quantile` in (0, 1]): the
/// smallest sample with at least `quantile * n` samples at or below it.
/// Empty when `samples` holds fewer than `RequiredSamples(quantile)`, so a
/// thin sample is refused instead of reported.
std::optional<double> Percentile(std::vector<double> samples,
                                 double quantile);

/// One timed operation: its position in the workload's operation sequence,
/// when it completed (steady-clock ns) and how long it took.
struct Sample {
  uint64_t seq = 0;
  uint64_t end_ns = 0;
  double ms = 0.0;
};

/// A statistic taken as the median over consecutive slices of a window.
struct SlicedStat {
  double value = 0.0;
  size_t samples = 0;
  /// The per-slice values, in window order.
  std::vector<double> slices;
  /// What a slice is, for the text output.
  std::string over = "slices";

  /// "median of N slices: a b c" for the text output.
  std::string Describe() const;
};

/// Median of `values` (the mean of the middle two when even); 0 if empty.
double Median(std::vector<double> values);

/// The median of per-round `values` of a statistic taken over `samples`
/// samples in all. Empty without values.
std::optional<SlicedStat> MedianOfRounds(std::vector<double> values,
                                         size_t samples);

/// Burst-robust percentile: the samples, in sequence order, are cut into
/// up to `max_slices` consecutive slices, as many as leave each slice
/// `RequiredSamples(quantile)` samples; the result is the median of the
/// slices' percentiles, so interference confined to a minority of the
/// window does not move it. When the operations repeat with period `cycle`
/// (0 = no period) and the window holds at least one cycle per slice, each
/// slice but the last spans whole cycles, so every slice runs the same mix
/// of operations. Empty when there are too few samples for one slice.
std::optional<SlicedStat> SlicedPercentile(std::vector<Sample> samples,
                                           double quantile, size_t max_slices,
                                           size_t cycle = 0);

/// Burst-robust throughput over [start_ns, end of the last sample): the
/// median over `slices` consecutive equal-count slices of (operations in
/// the slice / the slice's duration). Empty without samples.
std::optional<SlicedStat> SlicedRate(std::vector<Sample> samples,
                                     uint64_t start_ns, size_t slices);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
