#include "core/mbr_distance.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/simd.h"

namespace mdseq {

std::vector<double> ComputeMbrDistances(const Mbr& probe,
                                        const Partition& target) {
  std::vector<double> dmbr;
  dmbr.reserve(target.size());
  for (const SequenceMbr& piece : target) {
    dmbr.push_back(MbrDistance(probe, piece.mbr));
  }
  return dmbr;
}

void MakePartitionLayout(const Partition& target, PartitionLayout* layout) {
  const size_t n = target.size();
  const size_t dim = n == 0 ? 0 : target.front().mbr.dim();
  layout->n = n;
  layout->dim = dim;
  layout->low.resize(n * dim);
  layout->high.resize(n * dim);
  layout->center.resize(n * dim);
  layout->radius.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Mbr& mbr = target[i].mbr;
    double diag2 = 0.0;
    for (size_t k = 0; k < dim; ++k) {
      const double lo = mbr.low()[k];
      const double hi = mbr.high()[k];
      layout->low[k * n + i] = lo;
      layout->high[k * n + i] = hi;
      layout->center[k * n + i] = 0.5 * (lo + hi);
      const double side = hi - lo;
      diag2 += side * side;
    }
    layout->radius[i] = 0.5 * std::sqrt(diag2);
  }
}

void ComputeMbrDistances(const Mbr& probe, const PartitionLayout& layout,
                         std::vector<double>* dmbr) {
  dmbr->resize(layout.n);
  if (layout.n == 0) return;
  simd::MinDist2Batch(probe.low().data(), probe.high().data(),
                      layout.low.data(), layout.high.data(), layout.n,
                      layout.dim, dmbr->data());
  for (double& d : *dmbr) d = std::sqrt(d);
}

double MbrCenterAndRadius(const Mbr& mbr, double* center) {
  const size_t dim = mbr.dim();
  double diag2 = 0.0;
  for (size_t k = 0; k < dim; ++k) {
    const double lo = mbr.low()[k];
    const double hi = mbr.high()[k];
    center[k] = 0.5 * (lo + hi);
    const double side = hi - lo;
    diag2 += side * side;
  }
  return 0.5 * std::sqrt(diag2);
}

bool PrefilterProbe(const double* probe_center, double probe_radius,
                    const PartitionLayout& layout, double epsilon,
                    std::vector<double>* scratch) {
  MDSEQ_CHECK(scratch != nullptr);
  const size_t n = layout.n;
  if (n == 0) return false;
  scratch->resize(n);
  simd::SquaredDistBatch(probe_center, layout.center.data(), n, layout.dim,
                         scratch->data());
  // Survive iff ||c_p - c_i||^2 <= ((epsilon + r_p + r_i) * (1 + slack))^2
  // for some i — comparing squares avoids n square roots, and the relative
  // slack absorbs the rounding of the centroid-distance and radius
  // computations so rounding can only keep probes, never drop them.
  for (size_t i = 0; i < n; ++i) {
    const double reach =
        (epsilon + probe_radius + layout.radius[i]) * (1.0 + 1e-9);
    if ((*scratch)[i] <= reach * reach) return true;
  }
  return false;
}

void MakeDnormContext(const Partition& target, const std::vector<double>& dmbr,
                      DnormContext* context) {
  MDSEQ_CHECK(!target.empty());
  MDSEQ_CHECK(dmbr.size() == target.size());
  context->target = &target;
  context->dmbr = &dmbr;
  const size_t m = target.size();
  std::vector<double>& weighted = context->prefix_weighted;
  std::vector<size_t>& count = context->prefix_count;
  weighted.resize(m + 1);
  count.resize(m + 1);
  weighted[0] = 0.0;
  count[0] = 0;
  double min_dmbr = std::numeric_limits<double>::infinity();
  for (size_t t = 0; t < m; ++t) {
    const size_t points = target[t].count();
    weighted[t + 1] = weighted[t] + dmbr[t] * static_cast<double>(points);
    count[t + 1] = count[t] + points;
    min_dmbr = std::min(min_dmbr, dmbr[t]);
  }
  context->total_points = count[m];
  context->min_dmbr = min_dmbr;
}

namespace {

// Total number of sequence points covered by the partition.
size_t TotalPoints(const Partition& target) {
  return target.empty() ? 0 : target.back().end - target.front().begin;
}

// Enumerates every window of Definition 5 for the pair (probe, target[j])
// and invokes `visit(distance, point_begin, point_end)` for each, by
// re-accumulating each window's weighted sum from scratch. Retained as the
// reference the fast path is differentially tested against.
template <typename Visitor>
void VisitDnormWindowsReference(size_t probe_count, const Partition& target,
                                size_t j, const std::vector<double>& dmbr,
                                const Visitor& visit) {
  MDSEQ_CHECK(!target.empty());
  MDSEQ_CHECK(j < target.size());
  MDSEQ_CHECK(probe_count >= 1);
  MDSEQ_CHECK(dmbr.size() == target.size());

  const double probe_points = static_cast<double>(probe_count);

  // Case 1 (Example 2): the target MBR alone holds enough points.
  if (target[j].count() >= probe_count) {
    visit(dmbr[j], target[j].begin, target[j].end);
    return;
  }

  // Case 3 (fallback, see header): the whole sequence is smaller than the
  // probe; weight every MBR fully and normalize by the sequence length.
  const size_t total = TotalPoints(target);
  if (total < probe_count) {
    double weighted = 0.0;
    for (size_t t = 0; t < target.size(); ++t) {
      weighted += dmbr[t] * static_cast<double>(target[t].count());
    }
    visit(weighted / static_cast<double>(total), target.front().begin,
          target.back().end);
    return;
  }

  // Case 2 (Definition 5): grow windows around j until the participating
  // point count reaches probe_count.

  // LD windows: start at k <= j, fully count MBRs k..l-1 and take the first
  // `partial` points of MBR l, with j < l (j fully counted).
  for (size_t k = j + 1; k-- > 0;) {
    // Accumulate full counts from k rightward until reaching probe_count.
    double weighted = 0.0;
    size_t accumulated = 0;
    size_t l = k;
    while (l < target.size() &&
           accumulated + target[l].count() < probe_count) {
      weighted += dmbr[l] * static_cast<double>(target[l].count());
      accumulated += target[l].count();
      ++l;
    }
    if (l >= target.size()) continue;  // tail too short for this start
    if (l <= j) break;  // j would not be fully counted; smaller k only worse
    const size_t partial = probe_count - accumulated;
    weighted += dmbr[l] * static_cast<double>(partial);
    visit(weighted / probe_points, target[k].begin,
          target[l].begin + partial);
  }

  // RD windows: end at q >= j, fully count MBRs p+1..q and take the last
  // `partial` points of MBR p, with p < j (j fully counted).
  for (size_t q = j; q < target.size(); ++q) {
    double weighted = 0.0;
    size_t accumulated = 0;
    size_t p = q + 1;
    while (p > 0 && accumulated + target[p - 1].count() < probe_count) {
      --p;
      weighted += dmbr[p] * static_cast<double>(target[p].count());
      accumulated += target[p].count();
    }
    if (p == 0) continue;  // head too short for this end
    --p;
    if (p >= j) break;  // j would not be fully counted; larger q only worse
    const size_t partial = probe_count - accumulated;
    weighted += dmbr[p] * static_cast<double>(partial);
    visit(weighted / probe_points, target[p].end - partial, target[q].end);
  }
}

// Prefix-sum window enumeration: same windows in the same order as the
// reference above, but each one in O(1). A window's fully counted span is a
// difference of two prefix sums and its boundary MBR is found by a
// two-pointer that only ever moves in one direction across the loop,
// because the boundary index is monotone in the window start (LD) / end
// (RD) — `prefix_count` is non-decreasing.
template <typename Visitor>
void VisitDnormWindowsFast(size_t probe_count, const DnormContext& context,
                           size_t j, const Visitor& visit) {
  const Partition& target = *context.target;
  const std::vector<double>& dmbr = *context.dmbr;
  MDSEQ_CHECK(j < target.size());
  MDSEQ_CHECK(probe_count >= 1);

  const double probe_points = static_cast<double>(probe_count);
  const size_t m = target.size();

  // Case 1: the target MBR alone holds enough points.
  if (target[j].count() >= probe_count) {
    visit(dmbr[j], target[j].begin, target[j].end);
    return;
  }

  // Case 3: the whole sequence is smaller than the probe.
  if (context.total_points < probe_count) {
    visit(context.prefix_weighted[m] /
              static_cast<double>(context.total_points),
          target.front().begin, target.back().end);
    return;
  }

  const std::vector<size_t>& pc = context.prefix_count;
  const std::vector<double>& pw = context.prefix_weighted;

  // LD windows: for each start k <= j the boundary l(k) is the smallest l
  // with pc[l+1] - pc[k] >= probe_count; it only decreases as k decreases.
  {
    size_t l = m - 1;
    for (size_t k = j + 1; k-- > 0;) {
      if (pc[m] - pc[k] < probe_count) continue;  // tail too short
      while (l > 0 && pc[l] - pc[k] >= probe_count) --l;
      if (l <= j) break;  // j would not be fully counted
      const size_t accumulated = pc[l] - pc[k];
      const size_t partial = probe_count - accumulated;
      const double weighted =
          (pw[l] - pw[k]) + dmbr[l] * static_cast<double>(partial);
      visit(weighted / probe_points, target[k].begin,
            target[l].begin + partial);
    }
  }

  // RD windows: for each end q >= j the boundary p(q) is the largest p
  // with pc[q+1] - pc[p] >= probe_count; it only increases as q increases.
  {
    size_t p = 0;
    for (size_t q = j; q < m; ++q) {
      if (pc[q + 1] < probe_count) continue;  // head too short
      while (p + 1 < m && pc[q + 1] - pc[p + 1] >= probe_count) ++p;
      if (p >= j) break;  // j would not be fully counted
      const size_t accumulated = pc[q + 1] - pc[p + 1];
      const size_t partial = probe_count - accumulated;
      const double weighted =
          (pw[q + 1] - pw[p + 1]) + dmbr[p] * static_cast<double>(partial);
      visit(weighted / probe_points, target[p].end - partial, target[q].end);
    }
  }
}

// Every window the per-`j` enumeration above produces for some `j`, once
// each and with the same value expression. Case 3 maps every `j` to the
// whole sequence; Case 1 is `target[j]` alone. The LD window of start `k`
// (boundary `l(k)`, the smallest `l` with `pc[l+1] - pc[k] >= probe_count`)
// is emitted for every `j` in `[k, l(k))`, so it exists iff `l(k) > k`;
// the RD window of end `q` (boundary `p(q)`, the largest `p` with
// `pc[q+1] - pc[p] >= probe_count`) for every `j` in `(p(q), q]`. Both
// boundaries are non-decreasing, so one forward sweep finds each family.
template <typename Visitor>
void VisitDistinctDnormWindows(size_t probe_count,
                               const DnormContext& context,
                               const Visitor& visit) {
  const Partition& target = *context.target;
  const std::vector<double>& dmbr = *context.dmbr;
  MDSEQ_CHECK(probe_count >= 1);

  const double probe_points = static_cast<double>(probe_count);
  const size_t m = target.size();
  const std::vector<size_t>& pc = context.prefix_count;
  const std::vector<double>& pw = context.prefix_weighted;

  if (context.total_points < probe_count) {
    visit(pw[m] / static_cast<double>(context.total_points),
          target.front().begin, target.back().end);
    return;
  }

  for (size_t j = 0; j < m; ++j) {
    if (target[j].count() >= probe_count) {
      visit(dmbr[j], target[j].begin, target[j].end);
    }
  }

  {
    size_t l = 0;
    for (size_t k = 0; k < m; ++k) {
      if (pc[m] - pc[k] < probe_count) break;  // tail too short from here on
      l = std::max(l, k);
      while (pc[l + 1] - pc[k] < probe_count) ++l;
      if (l == k) continue;  // target[k] alone suffices: Case 1
      const size_t partial = probe_count - (pc[l] - pc[k]);
      const double weighted =
          (pw[l] - pw[k]) + dmbr[l] * static_cast<double>(partial);
      visit(weighted / probe_points, target[k].begin,
            target[l].begin + partial);
    }
  }

  {
    size_t p = 0;
    for (size_t q = 0; q < m; ++q) {
      if (pc[q + 1] < probe_count) continue;  // head too short
      while (pc[q + 1] - pc[p + 1] >= probe_count) ++p;
      if (p == q) continue;  // target[q] alone suffices: Case 1
      const size_t partial = probe_count - (pc[q + 1] - pc[p + 1]);
      const double weighted =
          (pw[q + 1] - pw[p + 1]) + dmbr[p] * static_cast<double>(partial);
      visit(weighted / probe_points, target[p].end - partial, target[q].end);
    }
  }
}

template <typename Visitor>
NormalizedDistanceResult MinimumWindow(const Visitor& enumerate) {
  NormalizedDistanceResult best;
  best.distance = std::numeric_limits<double>::infinity();
  enumerate([&best](double distance, size_t begin, size_t end) {
    if (distance < best.distance) {
      best.distance = distance;
      best.point_begin = begin;
      best.point_end = end;
    }
  });
  MDSEQ_CHECK(best.distance < std::numeric_limits<double>::infinity());
  return best;
}

template <typename Visitor>
double CollectQualifyingWindows(double epsilon,
                                std::vector<NormalizedDistanceResult>* out,
                                const Visitor& enumerate) {
  MDSEQ_CHECK(out != nullptr);
  double best = std::numeric_limits<double>::infinity();
  enumerate([&](double distance, size_t begin, size_t end) {
    best = std::min(best, distance);
    if (distance <= epsilon) {
      out->push_back(NormalizedDistanceResult{distance, begin, end});
    }
  });
  MDSEQ_CHECK(best < std::numeric_limits<double>::infinity());
  return best;
}

}  // namespace

NormalizedDistanceResult NormalizedDistance(size_t probe_count,
                                            const DnormContext& context,
                                            size_t j) {
  return MinimumWindow([&](const auto& visit) {
    VisitDnormWindowsFast(probe_count, context, j, visit);
  });
}

NormalizedDistanceResult NormalizedDistance(size_t probe_count,
                                            const Partition& target, size_t j,
                                            const std::vector<double>& dmbr) {
  DnormContext context;
  MakeDnormContext(target, dmbr, &context);
  return NormalizedDistance(probe_count, context, j);
}

double QualifyingDnormWindows(size_t probe_count, const DnormContext& context,
                              size_t j, double epsilon,
                              std::vector<NormalizedDistanceResult>* out) {
  return CollectQualifyingWindows(epsilon, out, [&](const auto& visit) {
    VisitDnormWindowsFast(probe_count, context, j, visit);
  });
}

double QualifyingDnormWindows(size_t probe_count, const Partition& target,
                              size_t j, const std::vector<double>& dmbr,
                              double epsilon,
                              std::vector<NormalizedDistanceResult>* out) {
  DnormContext context;
  MakeDnormContext(target, dmbr, &context);
  return QualifyingDnormWindows(probe_count, context, j, epsilon, out);
}

double DistinctQualifyingWindows(size_t probe_count,
                                 const DnormContext& context, double epsilon,
                                 std::vector<NormalizedDistanceResult>* out) {
  return CollectQualifyingWindows(epsilon, out, [&](const auto& visit) {
    VisitDistinctDnormWindows(probe_count, context, visit);
  });
}

NormalizedDistanceResult ReferenceNormalizedDistance(
    size_t probe_count, const Partition& target, size_t j,
    const std::vector<double>& dmbr) {
  return MinimumWindow([&](const auto& visit) {
    VisitDnormWindowsReference(probe_count, target, j, dmbr, visit);
  });
}

double ReferenceQualifyingDnormWindows(
    size_t probe_count, const Partition& target, size_t j,
    const std::vector<double>& dmbr, double epsilon,
    std::vector<NormalizedDistanceResult>* out) {
  return CollectQualifyingWindows(epsilon, out, [&](const auto& visit) {
    VisitDnormWindowsReference(probe_count, target, j, dmbr, visit);
  });
}

double MinNormalizedDistance(const Mbr& probe, size_t probe_count,
                             const Partition& target) {
  const std::vector<double> dmbr = ComputeMbrDistances(probe, target);
  DnormContext context;
  MakeDnormContext(target, dmbr, &context);
  return MinimumWindow([&](const auto& visit) {
           VisitDistinctDnormWindows(probe_count, context, visit);
         }).distance;
}

double MinMbrDistance(const Partition& a, const Partition& b) {
  MDSEQ_CHECK(!a.empty() && !b.empty());
  double best = std::numeric_limits<double>::infinity();
  for (const SequenceMbr& pa : a) {
    for (const SequenceMbr& pb : b) {
      best = std::min(best, MbrDistance(pa.mbr, pb.mbr));
    }
  }
  return best;
}

}  // namespace mdseq
