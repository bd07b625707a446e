#ifndef MDSEQ_CORE_DISTANCE_H_
#define MDSEQ_CORE_DISTANCE_H_

#include <cstddef>
#include <vector>

#include "geom/sequence.h"

namespace mdseq {

/// Mean distance between two sequences of equal length (Definition 2):
/// `Dmean(S1, S2) = (1/k) * sum_i d(S1[i], S2[i])`.
///
/// Requires `a.size() == b.size() > 0` and matching dimensionality.
double MeanDistance(SequenceView a, SequenceView b);

/// Distance between two sequences of arbitrary lengths (Definitions 2-3).
///
/// Equal lengths: `Dmean`. Different lengths: the shorter sequence is slid
/// along the longer one and the minimum mean distance over all alignments is
/// returned. Both arguments must be non-empty and share a dimensionality.
double SequenceDistance(SequenceView a, SequenceView b);

/// The mean distance of every alignment of `query` inside `data`
/// (`query.size() <= data.size()`): element `j` is
/// `Dmean(query, data[j : j+query.size()-1])`, for
/// `j in [0, data.size() - query.size()]`.
///
/// This is the kernel both of `SequenceDistance` and of the exact
/// solution-interval ground truth (Definition 6).
std::vector<double> WindowDistanceProfile(SequenceView query,
                                          SequenceView data);

/// Threshold-aware `WindowDistanceProfile`: a window is skipped before its
/// point sum when the O(dim) window-sum lower bound
/// `||sum_i q_i - sum_i s_{i+j}||` (triangle inequality, from prefix sums
/// of `data` built once per call) already exceeds `epsilon * k`, and its
/// point-distance sum is abandoned as soon as it provably exceeds
/// `epsilon * k` (point distances are non-negative, so partial sums only
/// grow); either way the window reports +infinity instead of its mean.
/// NaN or Inf coordinates disable the skip. Windows that complete carry the
/// bit-identical value `WindowDistanceProfile` would compute (same terms,
/// same order), and every window whose true mean is within `epsilon`
/// always completes — the abandon bound carries enough slack to absorb the
/// final division's rounding, and the skip test the forward error of the
/// bound's sums, so `profile[j] <= epsilon` decisions are exactly those of
/// the unbounded profile.
std::vector<double> WindowDistanceProfileBounded(SequenceView query,
                                                 SequenceView data,
                                                 double epsilon);

/// Threshold-aware `SequenceDistance`: returns the exact distance when it
/// is within `epsilon` (bit-identical to `SequenceDistance`), +infinity
/// otherwise. Built on `WindowDistanceProfileBounded`, so alignments that
/// cannot qualify are skipped or abandoned early.
double SequenceDistanceBounded(SequenceView a, SequenceView b,
                               double epsilon);

/// Maps a distance in the normalized `[0,1]^n` data space to a similarity in
/// `[0, 1]` (Section 3.1): the maximum possible distance is the cube
/// diagonal `sqrt(n)`, so `similarity = 1 - distance / sqrt(n)`, clamped to
/// `[0, 1]`.
double DistanceToSimilarity(double distance, size_t dim);

/// Inverse of `DistanceToSimilarity`.
double SimilarityToDistance(double similarity, size_t dim);

}  // namespace mdseq

#endif  // MDSEQ_CORE_DISTANCE_H_
