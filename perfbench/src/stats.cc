#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

size_t RequiredSamples(double quantile) {
  const double beyond = 1.0 - quantile;
  const double needed =
      beyond <= 0.0 ? 1e18 : std::ceil(10.0 / beyond - 1e-9);
  return std::max<size_t>(100, static_cast<size_t>(needed));
}

std::optional<double> Percentile(std::vector<double> samples,
                                 double quantile) {
  if (quantile <= 0.0 || quantile > 1.0) return std::nullopt;
  if (samples.size() < RequiredSamples(quantile)) return std::nullopt;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(quantile * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::optional<SlicedStat> MedianOfRounds(std::vector<double> values,
                                         size_t samples) {
  if (values.empty()) return std::nullopt;
  const double median = Median(values);
  return SlicedStat{median, samples, std::move(values), "rounds"};
}

std::optional<SlicedStat> SlicedPercentile(std::vector<Sample> samples,
                                           double quantile, size_t max_slices,
                                           size_t cycle) {
  const size_t n = samples.size();
  const size_t need = RequiredSamples(quantile);
  size_t slices = std::min(std::max<size_t>(max_slices, 1), n / need);
  if (slices == 0) return std::nullopt;
  // Slice length in whole cycles, using fewer slices if that is what it
  // takes to keep `need` samples in each; 0 = equal-count slices.
  size_t whole = 0;
  for (size_t k = slices; cycle > 0 && k > 0 && whole == 0; --k) {
    const size_t length = n / k / cycle * cycle;
    if (length >= need) {
      whole = length;
      slices = k;
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.seq < b.seq; });
  std::vector<double> values;
  for (size_t k = 0; k < slices; ++k) {
    const size_t begin = whole > 0 ? k * whole : n * k / slices;
    const size_t end = k + 1 == slices ? n
                       : whole > 0     ? begin + whole
                                       : n * (k + 1) / slices;
    std::vector<double> slice;
    slice.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) slice.push_back(samples[i].ms);
    values.push_back(*Percentile(std::move(slice), quantile));
  }
  return SlicedStat{Median(values), n, std::move(values)};
}

std::optional<SlicedStat> SlicedRate(std::vector<Sample> samples,
                                     uint64_t start_ns, size_t slices) {
  slices = std::min(std::max<size_t>(slices, 1), samples.size());
  if (slices == 0) return std::nullopt;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.end_ns < b.end_ns; });
  std::vector<double> rates;
  uint64_t from = start_ns;
  for (size_t k = 0; k < slices; ++k) {
    const size_t begin = samples.size() * k / slices;
    const size_t end = samples.size() * (k + 1) / slices;
    const uint64_t to = samples[end - 1].end_ns;
    const double seconds = static_cast<double>(to > from ? to - from : 1) / 1e9;
    rates.push_back(static_cast<double>(end - begin) / seconds);
    from = to;
  }
  return SlicedStat{Median(rates), samples.size(), std::move(rates)};
}

std::string SlicedStat::Describe() const {
  std::string text =
      "median of " + std::to_string(slices.size()) + " " + over + ":";
  char buf[32];
  for (double v : slices) {
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    text += buf;
  }
  return text;
}

}  // namespace perfbench
