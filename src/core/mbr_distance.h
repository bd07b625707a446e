#ifndef MDSEQ_CORE_MBR_DISTANCE_H_
#define MDSEQ_CORE_MBR_DISTANCE_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "core/partitioning.h"
#include "geom/mbr.h"

namespace mdseq {

/// Result of one normalized-distance evaluation `Dnorm(probe, target[j])`.
///
/// Besides the distance itself, it records the contiguous run of target
/// sequence points `[point_begin, point_end)` that participated in the
/// winning window — the paper approximates the solution interval by exactly
/// this set (Section 3.3, Example 3).
struct NormalizedDistanceResult {
  double distance = 0.0;
  size_t point_begin = 0;
  size_t point_end = 0;
};

/// Precomputes `Dmbr(probe, target[t])` for every MBR of `target` — the
/// inputs shared by all `Dnorm` evaluations of one (probe MBR, sequence)
/// pair.
std::vector<double> ComputeMbrDistances(const Mbr& probe,
                                        const Partition& target);

/// Dimension-major SoA mirror of a partition's MBRs plus the O(1) per-MBR
/// summaries the lower-bound cascade prefilter reads. Coordinate `k` of MBR
/// `i` lives at `[k * n + i]` (the `util/simd.h` layout contract), so the
/// batched kernels stream one coordinate of adjacent MBRs per instruction.
///
/// Filled once per (candidate, query) pair and reused by every probe; the
/// source partition may be discarded afterwards (the layout owns copies).
struct PartitionLayout {
  size_t n = 0;    ///< number of MBRs
  size_t dim = 0;  ///< dimensionality
  std::vector<double> low;     ///< `low[k * n + i]`
  std::vector<double> high;    ///< `high[k * n + i]`
  std::vector<double> center;  ///< `center[k * n + i]` — MBR centroids
  /// `radius[i]` — half the MBR's diagonal: the max distance from the
  /// centroid to any point of the rectangle. Together with `center` it
  /// yields the cascade's cheapest Dmbr lower bound
  /// (`PrefilterProbe`).
  std::vector<double> radius;
};

/// Gathers `target` into SoA form in `layout`, reusing its buffers.
/// O(m * dim).
void MakePartitionLayout(const Partition& target, PartitionLayout* layout);

/// SIMD `ComputeMbrDistances` into `dmbr` (buffer reused): bit-identical
/// output (the batched rectangle kernel matches `Mbr::MinDist2` per pair
/// and `sqrt` is correctly rounded), in one pass over the layout's lo/hi
/// arrays. `layout` must be `MakePartitionLayout` of the target.
void ComputeMbrDistances(const Mbr& probe, const PartitionLayout& layout,
                         std::vector<double>* dmbr);

/// The cascade's O(1)-per-pair prefilter: from centroid/radius summaries
/// alone, `||c_probe - c_i|| - r_probe - r_i` lower-bounds
/// `Dmbr(probe, target[i])` (triangle inequality; every point of a
/// rectangle is within its half-diagonal of its centroid). Returns true iff
/// some target MBR *might* come within `epsilon` of the probe — i.e. the
/// probe survives into the full Dmbr evaluation. A false return proves
/// `min_t Dmbr > epsilon`, the exact condition of the existing probe-level
/// abandon, so skipping the probe is sound.
///
/// The comparison carries 1e-9 relative slack so floating-point rounding
/// can only make the prefilter keep a probe it could have dropped, never
/// drop one it must keep. `probe_center` is `dim` doubles; `scratch` is
/// caller-provided to keep the per-probe cost allocation-free.
bool PrefilterProbe(const double* probe_center, double probe_radius,
                    const PartitionLayout& layout, double epsilon,
                    std::vector<double>* scratch);

/// Centroid (into `center`, `dim` doubles) and half-diagonal radius of one
/// MBR — the probe-side summaries `PrefilterProbe` consumes.
double MbrCenterAndRadius(const Mbr& mbr, double* center);

/// Precomputed prefix sums over one (probe MBR, target partition) pair that
/// turn every Definition-5 window evaluation into O(1) work: a window's
/// weighted distance is a difference of two `prefix_weighted` entries plus
/// the partially counted boundary MBR, and its boundary is located with a
/// monotone two-pointer because `prefix_count` is non-decreasing.
///
/// Borrowed: `target` and `dmbr` must outlive the context and stay
/// unmodified. The target partition must cover a contiguous point range
/// (the `Partition` contract).
struct DnormContext {
  const Partition* target = nullptr;
  const std::vector<double>* dmbr = nullptr;
  /// `prefix_weighted[t] = sum_{u<t} dmbr[u] * count[u]` (size m+1,
  /// accumulated left to right, so `prefix_weighted[m]` is bit-identical to
  /// the naive full-sequence sum).
  std::vector<double> prefix_weighted;
  /// `prefix_count[t] = sum_{u<t} count[u]` (size m+1).
  std::vector<size_t> prefix_count;
  /// Total points of the partition (== `prefix_count[m]`).
  size_t total_points = 0;
  /// `min_t dmbr[t]`; every window's weighted average is >= this, so a
  /// probe whose `min_dmbr` exceeds the threshold cannot contribute a
  /// qualifying window (probe-level early abandon).
  double min_dmbr = std::numeric_limits<double>::infinity();
};

/// Fills `context` with the prefix sums of one probe, reusing its buffers.
/// O(m). `dmbr` must be `ComputeMbrDistances(probe, target)`; both must
/// outlive the context.
void MakeDnormContext(const Partition& target, const std::vector<double>& dmbr,
                      DnormContext* context);

/// The paper's normalized distance `Dnorm` (Definition 5) between a probe
/// MBR holding `probe_count` points (a query MBR in the usual direction) and
/// the `j`-th MBR of the partitioned data sequence `target`.
///
/// When `target[j]` holds at least `probe_count` points, `Dnorm` equals
/// `Dmbr(probe, target[j])`. Otherwise neighboring MBRs of `target[j]` are
/// folded in until the participating point count reaches `probe_count`:
/// every window of consecutive MBRs that contains `j` fully counted and is
/// grown rightward (`LD`, the last MBR partially counted) or leftward
/// (`RD`, the first MBR partially counted) is evaluated as the point-count
/// weighted average of member `Dmbr`s, and the minimum is returned.
///
/// If the whole sequence holds fewer than `probe_count` points, all MBRs
/// participate with full weight and the average is normalized by the
/// sequence's point count — the lower-bounding property versus
/// `SequenceDistance` is preserved because Definition 3 then slides the
/// (shorter) data sequence over the query and averages over its length.
///
/// `dmbr` must be `ComputeMbrDistances(probe, target)`.
/// Requires a non-empty partition, `j < target.size()` and
/// `probe_count >= 1`.
NormalizedDistanceResult NormalizedDistance(size_t probe_count,
                                            const Partition& target, size_t j,
                                            const std::vector<double>& dmbr);

/// As above, but amortized over a prebuilt `DnormContext`: every window is
/// evaluated in O(1), so one call is O(windows) instead of
/// O(windows * window length). Evaluating all `j` of one probe costs O(m^2)
/// instead of O(m^3).
NormalizedDistanceResult NormalizedDistance(size_t probe_count,
                                            const DnormContext& context,
                                            size_t j);

/// Appends to `out` one entry per Definition-5 window of the pair
/// (probe, target[j]) whose weighted distance is within `epsilon`, and
/// returns the minimum window distance (the `Dnorm` value). The union of
/// the appended spans is the paper's solution-interval contribution of this
/// pair (Section 3.3): *all* points involved in qualifying `Dnorm`
/// computations.
double QualifyingDnormWindows(size_t probe_count, const Partition& target,
                              size_t j, const std::vector<double>& dmbr,
                              double epsilon,
                              std::vector<NormalizedDistanceResult>* out);

/// Context-based variant of `QualifyingDnormWindows` (see
/// `NormalizedDistance` overloads for the cost argument). Phase 3 runs
/// `DistinctQualifyingWindows` below; this per-`j` form is its
/// differential-test reference.
double QualifyingDnormWindows(size_t probe_count, const DnormContext& context,
                              size_t j, double epsilon,
                              std::vector<NormalizedDistanceResult>* out);

/// All target MBRs of one probe at once, in O(m): returns
/// `min_j Dnorm(probe, j)` and appends each *distinct* Definition-5 window
/// within `epsilon` once (in unspecified order), where the per-`j` form
/// repeats a window for every `j` it fully counts. Window values are the
/// per-`j` form's expressions, so the minimum is bit-identical and the span
/// union equal to those of `QualifyingDnormWindows` over all `j`.
double DistinctQualifyingWindows(size_t probe_count,
                                 const DnormContext& context, double epsilon,
                                 std::vector<NormalizedDistanceResult>* out);

/// Reference implementations of the two queries above: the naive
/// re-accumulating window enumeration (O(window length) per window). Kept
/// for the differential tests (tests/kernel_equivalence_test.cc) and the
/// old-vs-new microbenchmarks; production code uses the prefix-sum path.
/// The fast path enumerates windows in the same order and produces the same
/// spans; window sums agree to within reassociation error (~1 ulp).
NormalizedDistanceResult ReferenceNormalizedDistance(
    size_t probe_count, const Partition& target, size_t j,
    const std::vector<double>& dmbr);
double ReferenceQualifyingDnormWindows(
    size_t probe_count, const Partition& target, size_t j,
    const std::vector<double>& dmbr, double epsilon,
    std::vector<NormalizedDistanceResult>* out);

/// Minimum of `NormalizedDistance` over every target MBR `j`. Convenience
/// used by tests and by candidate checks that do not need intervals.
double MinNormalizedDistance(const Mbr& probe, size_t probe_count,
                             const Partition& target);

/// Minimum `Dmbr` between any probe MBR of `a` and any MBR of `b` — the
/// quantity of Lemma 1.
double MinMbrDistance(const Partition& a, const Partition& b);

}  // namespace mdseq

#endif  // MDSEQ_CORE_MBR_DISTANCE_H_
