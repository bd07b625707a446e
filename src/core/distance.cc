#include "core/distance.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/simd.h"

namespace mdseq {

// All three profile kernels below run through the one dispatched
// simd::PointSumBounded (bound = +infinity for the unbounded callers), so
// their mutual identities — profile[0] == MeanDistance for equal lengths,
// completed bounded windows bit-identical to the unbounded profile — hold
// under every dispatch level, not just scalar.

double MeanDistance(SequenceView a, SequenceView b) {
  MDSEQ_CHECK(a.size() == b.size());
  MDSEQ_CHECK(!a.empty());
  MDSEQ_CHECK(a.dim() == b.dim());
  bool abandoned = false;
  const double sum = simd::PointSumBounded(
      a[0].data(), b[0].data(), a.size(), a.dim(),
      std::numeric_limits<double>::infinity(), &abandoned);
  return sum / static_cast<double>(a.size());
}

std::vector<double> WindowDistanceProfile(SequenceView query,
                                          SequenceView data) {
  MDSEQ_CHECK(!query.empty());
  MDSEQ_CHECK(query.size() <= data.size());
  MDSEQ_CHECK(query.dim() == data.dim());
  const size_t k = query.size();
  const size_t dim = query.dim();
  const size_t num_windows = data.size() - k + 1;
  const double* query_base = query[0].data();
  const double* data_base = data[0].data();
  std::vector<double> profile(num_windows);
  for (size_t j = 0; j < num_windows; ++j) {
    bool abandoned = false;
    const double sum = simd::PointSumBounded(
        query_base, data_base + j * dim, k, dim,
        std::numeric_limits<double>::infinity(), &abandoned);
    profile[j] = sum / static_cast<double>(k);
  }
  return profile;
}

std::vector<double> WindowDistanceProfileBounded(SequenceView query,
                                                 SequenceView data,
                                                 double epsilon) {
  MDSEQ_CHECK(!query.empty());
  MDSEQ_CHECK(query.size() <= data.size());
  MDSEQ_CHECK(query.dim() == data.dim());
  MDSEQ_CHECK(epsilon >= 0.0);
  const size_t k = query.size();
  const size_t n = data.size();
  const size_t dim = query.dim();
  const size_t num_windows = n - k + 1;
  const double points = static_cast<double>(k);
  // Abandon only when the partial sum exceeds epsilon*k with margin: the
  // relative slack (1e-12, orders of magnitude above the 2^-53 rounding of
  // the final division) guarantees an abandoned window's mean rounds
  // strictly above epsilon, and the absolute floor covers epsilon == 0.
  const double bound = epsilon * points * (1.0 + 1e-12) + 1e-280;
  const double* query_base = query[0].data();
  const double* data_base = data[0].data();

  // Window-sum lower bound (triangle inequality):
  //   sum_i ||q_i - s_{i+j}||  >=  ||sum_i q_i - (P[j+k] - P[j])||,
  // with P the per-coordinate prefix sums of `data`: O(dim) per window
  // instead of the O(k*dim) point sum. A window is skipped only when the
  // bound clears `skip`, which adds to the abandon bound the forward error
  // of the bound's own sums (absolute, `2(n+3)u` times the magnitudes
  // sum|x|) and scales by the relative error of both norms, so a skipped
  // window's point sum would have exceeded `bound` in any rounding (see
  // docs/performance.md). Non-finite inputs make the magnitudes, hence
  // `skip`, Inf or NaN, which never skips.
  std::vector<double> prefix((n + 1) * dim, 0.0);
  std::vector<double> query_sum(dim, 0.0);
  double magnitude = 0.0;
  for (size_t t = 0; t < n; ++t) {
    for (size_t c = 0; c < dim; ++c) {
      const double x = data_base[t * dim + c];
      prefix[(t + 1) * dim + c] = prefix[t * dim + c] + x;
      magnitude += 2.0 * std::fabs(x);
    }
  }
  for (size_t i = 0; i < k; ++i) {
    for (size_t c = 0; c < dim; ++c) {
      const double x = query_base[i * dim + c];
      query_sum[c] += x;
      magnitude += std::fabs(x);
    }
  }
  const double eps = std::numeric_limits<double>::epsilon();
  const double absolute = static_cast<double>(n + 3) * eps * magnitude;
  const double relative = 1e-12 + static_cast<double>(k + 2 * dim + 8) * eps;
  // The 1e-100 floor keeps `skip * skip` clear of underflow, where the
  // relative error model of the point sums no longer holds.
  const double skip = (bound + absolute) * (1.0 + relative) + 1e-100;
  const double skip2 = skip * skip;

  std::vector<double> profile(num_windows,
                              std::numeric_limits<double>::infinity());
  for (size_t j = 0; j < num_windows; ++j) {
    const double* lo = prefix.data() + j * dim;
    const double* hi = lo + k * dim;
    double gap2 = 0.0;
    for (size_t c = 0; c < dim; ++c) {
      const double gap = query_sum[c] - (hi[c] - lo[c]);
      gap2 += gap * gap;
    }
    if (gap2 > skip2) continue;
    bool abandoned = false;
    const double sum = simd::PointSumBounded(query_base, data_base + j * dim,
                                             k, dim, bound, &abandoned);
    if (!abandoned) profile[j] = sum / points;
  }
  return profile;
}

double SequenceDistanceBounded(SequenceView a, SequenceView b,
                               double epsilon) {
  MDSEQ_CHECK(!a.empty() && !b.empty());
  SequenceView shorter = a.size() <= b.size() ? a : b;
  SequenceView longer = a.size() <= b.size() ? b : a;
  const std::vector<double> profile =
      WindowDistanceProfileBounded(shorter, longer, epsilon);
  // Alignments within epsilon are never abandoned and carry their exact
  // mean, so when the minimum completed value qualifies it is the exact
  // SequenceDistance; otherwise the true distance provably exceeds epsilon.
  const double best = *std::min_element(profile.begin(), profile.end());
  return best <= epsilon ? best : std::numeric_limits<double>::infinity();
}

double SequenceDistance(SequenceView a, SequenceView b) {
  MDSEQ_CHECK(!a.empty() && !b.empty());
  // Definition 3 slides the shorter sequence along the longer one.
  SequenceView shorter = a.size() <= b.size() ? a : b;
  SequenceView longer = a.size() <= b.size() ? b : a;
  const std::vector<double> profile = WindowDistanceProfile(shorter, longer);
  return *std::min_element(profile.begin(), profile.end());
}

double DistanceToSimilarity(double distance, size_t dim) {
  MDSEQ_CHECK(dim > 0);
  MDSEQ_CHECK(distance >= 0.0);
  const double diagonal = std::sqrt(static_cast<double>(dim));
  return std::clamp(1.0 - distance / diagonal, 0.0, 1.0);
}

double SimilarityToDistance(double similarity, size_t dim) {
  MDSEQ_CHECK(dim > 0);
  MDSEQ_CHECK(similarity >= 0.0 && similarity <= 1.0);
  const double diagonal = std::sqrt(static_cast<double>(dim));
  return (1.0 - similarity) * diagonal;
}

}  // namespace mdseq
