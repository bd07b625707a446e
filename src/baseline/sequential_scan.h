#ifndef MDSEQ_BASELINE_SEQUENTIAL_SCAN_H_
#define MDSEQ_BASELINE_SEQUENTIAL_SCAN_H_

#include <cstddef>
#include <vector>

#include "core/database.h"
#include "core/search.h"
#include "geom/sequence.h"

namespace mdseq {

/// One exact match produced by the sequential scan.
struct ScanMatch {
  size_t sequence_id = 0;
  /// Exact `SequenceDistance` (Definition 3) between query and sequence.
  double distance = 0.0;
  /// Exact solution interval (Definition 6): every point covered by some
  /// alignment window whose mean distance is within the threshold.
  std::vector<Interval> solution_interval;
};

/// The brute-force baseline every experiment compares against: computes the
/// exact `SequenceDistance` to every stored sequence and the exact solution
/// intervals of qualifying sequences, with no index and no MBR bounds.
/// Being the oracle, its distances stay on the unbounded `SequenceDistance`
/// (no abandon, no window-sum skip, unlike the backends' verify stage);
/// only its intervals come from the bounded `ExactSolutionInterval`.
class SequentialScan {
 public:
  /// The database must outlive this object. Only the raw sequences are used.
  explicit SequentialScan(const SequenceDatabase* database);

  /// Returns all sequences with `SequenceDistance(query, S) <= epsilon`,
  /// ascending by id, with exact solution intervals.
  std::vector<ScanMatch> Search(SequenceView query, double epsilon) const;

 private:
  const SequenceDatabase* database_;
};

}  // namespace mdseq

#endif  // MDSEQ_BASELINE_SEQUENTIAL_SCAN_H_
