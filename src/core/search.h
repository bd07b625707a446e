#ifndef MDSEQ_CORE_SEARCH_H_
#define MDSEQ_CORE_SEARCH_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/database.h"
#include "core/mbr_distance.h"
#include "geom/sequence.h"
#include "obs/explain.h"

namespace mdseq {

namespace obs {
class Trace;
}  // namespace obs

/// A half-open run of point indices `[begin, end)` within one sequence.
struct Interval {
  size_t begin = 0;
  size_t end = 0;

  size_t length() const { return end - begin; }
  friend bool operator==(const Interval& a, const Interval& b) = default;
};

/// Sorts and coalesces overlapping/adjacent intervals in place.
void MergeIntervals(std::vector<Interval>* intervals);

/// Total number of points covered by a set of disjoint intervals.
size_t CoveredPoints(const std::vector<Interval>& intervals);

/// One sequence that survived both pruning phases.
struct SequenceMatch {
  size_t sequence_id = 0;
  /// Minimum `Dnorm` over all (query MBR, data MBR) pairs — a lower bound of
  /// the true `SequenceDistance` to the query.
  double min_dnorm = 0.0;
  /// Approximated solution interval (Definition 6 / Section 3.3): merged,
  /// disjoint, ascending runs of points involved in qualifying `Dnorm`
  /// evaluations. For `SearchVerified` results these are the *exact*
  /// intervals instead.
  std::vector<Interval> solution_interval;
  /// Exact `SequenceDistance` to the query; only set (>= 0) by
  /// `SearchVerified`, -1 for plain `Search` results.
  double exact_distance = -1.0;
};

/// Exact solution interval of `data` with respect to `query` (Definition
/// 6): every point covered by some alignment window whose mean distance is
/// within the threshold. Long queries slide the data sequence inside the
/// query instead (Definition 3); the whole data sequence is then the
/// interval whenever some alignment qualifies.
std::vector<Interval> ExactSolutionInterval(SequenceView query,
                                            SequenceView data,
                                            double epsilon);

/// Counters describing one query's execution.
struct SearchStats {
  /// Index node accesses during Phase 2.
  uint64_t node_accesses = 0;
  /// Sequences surviving Phase 2 (the paper's ASmbr).
  size_t phase2_candidates = 0;
  /// Sequences surviving Phase 3 (the paper's ASnorm). For `SearchVerified`
  /// this is the count *after* verification; `filter_matches` keeps the
  /// pre-verification |ASnorm|.
  size_t phase3_matches = 0;
  /// Sequences surviving the Dnorm filter before any verification
  /// (== `phase3_matches` for plain `Search`).
  size_t filter_matches = 0;
  /// `Dnorm` evaluations in Phase 3: one per target MBR for every probe
  /// that reached window enumeration (not dropped by the prefilter or the
  /// min-Dmbr abandon), however the windows are enumerated.
  size_t dnorm_evaluations = 0;
  /// Query MBRs produced by Phase 1 partitioning.
  size_t query_mbrs = 0;

  /// Buffer-pool attribution of the index traversal on disk databases
  /// (in-memory searches leave both 0): `page_misses` are real page reads,
  /// `page_hits` were served from the pool. hits + misses == node_accesses.
  uint64_t page_hits = 0;
  uint64_t page_misses = 0;

  /// Per-phase wall-clock nanoseconds, always measured (a handful of clock
  /// reads per query — the figure benches and EXPLAIN read these instead of
  /// re-timing around calls). `second_pruning_ns` covers the whole Phase-3
  /// loop; `interval_assembly_ns` is the sub-slice of it spent merging
  /// qualifying windows into solution intervals. `verify_ns` is only
  /// filled by `SearchVerified`.
  uint64_t partition_ns = 0;
  uint64_t first_pruning_ns = 0;
  uint64_t second_pruning_ns = 0;
  uint64_t interval_assembly_ns = 0;
  uint64_t verify_ns = 0;

  /// Pruning-cascade cost accounting (the per-stage pruning-power signal
  /// the Hydra-style tuning work reads). `probe_abandons` counts Phase-3
  /// candidates dismissed by the cheap min-Dmbr probe before any Dnorm
  /// evaluation; `verify_abandons` counts verification distance
  /// computations abandoned early (exact distance proved > threshold);
  /// `bytes_read` is the raw sequence payload materialized for
  /// verification (points × dim × sizeof(double)).
  uint64_t probe_abandons = 0;
  uint64_t verify_abandons = 0;
  uint64_t bytes_read = 0;

  /// The cascade's cheapest stage: the O(1)-per-pair centroid/radius
  /// prefilter that runs before any full Dmbr evaluation (see
  /// `PrefilterProbe`). `prefilter_abandons` counts query probes dropped by
  /// it across all Phase-3 candidates; `prefilter_survivors` counts
  /// candidates with at least one surviving probe (the second-pruning
  /// stage's effective input); `prefilter_ns` is the sub-slice of
  /// `second_pruning_ns` the prefilter prepass itself cost.
  uint64_t prefilter_abandons = 0;
  uint64_t prefilter_survivors = 0;
  uint64_t prefilter_ns = 0;

  /// Coordinator attribution of sharded queries (see src/shard): time
  /// blocked waiting on the slowest shard, time merging shard responses,
  /// and shard coverage. Single-database queries leave all four zero;
  /// `shards_failed > 0` flags a degraded (partial-coverage) result.
  uint64_t fanout_wait_ns = 0;
  uint64_t merge_ns = 0;
  uint32_t shards_total = 0;
  uint32_t shards_failed = 0;

  /// Approximate-tier quality accounting (see `SearchOptions::
  /// max_candidates`). `approx_candidates_skipped` counts Phase-3
  /// candidates left unevaluated because the candidate budget bound; it is
  /// deterministic (a function of the query, data, and options only), so
  /// the replay harness diffs it like the other cascade counters.
  /// `approx_certified_epsilon` is the largest threshold for which the
  /// result is provably complete: `epsilon` when the budget did not bind
  /// (the result is exact), otherwise the smallest minimum Dmbr among the
  /// skipped candidates — every skipped sequence's distance is at least
  /// that, so no sequence within the certified threshold was missed. For
  /// coordinator-merged results this is the weakest (smallest) bound any
  /// surviving shard reported. Interrupted results are partial regardless;
  /// the bound is only meaningful when `interrupted` is false.
  uint64_t approx_candidates_skipped = 0;
  double approx_certified_epsilon = 0.0;

  /// Wall time of the whole search as the phase sum (assembly is inside
  /// the second-pruning slice, so it is not added again).
  uint64_t TotalPhaseNs() const {
    return partition_ns + first_pruning_ns + second_pruning_ns + verify_ns;
  }
};

/// The pruning funnel of one query as explicit per-stage rows: how many
/// candidates entered each stage, how many survived, how many were killed
/// by an early-abandon shortcut, and what the stage cost. Derived from
/// `SearchStats` by `CascadeOf` — this is the per-stage pruning-power
/// signal EXPLAIN, `/debug/slow`, and the `mdseq_prune_*` metrics report.
struct PruningCascadeStats {
  struct Stage {
    /// Stable stage name: "first_pruning", "prefilter", "second_pruning",
    /// "verify".
    const char* name = "";
    uint64_t candidates_in = 0;
    uint64_t candidates_out = 0;
    /// Early-abandon wins inside the stage (min-Dmbr probe dismissals in
    /// second pruning, bounded-distance abandons in verify).
    uint64_t abandons = 0;
    /// Raw sequence bytes the stage materialized (verify only).
    uint64_t bytes_read = 0;
    uint64_t ns = 0;

    /// Fraction of entering candidates that survived (1.0 when nothing
    /// entered, so an empty funnel reads as "nothing pruned").
    double SurvivorRatio() const {
      return candidates_in == 0
                 ? 1.0
                 : static_cast<double>(candidates_out) /
                       static_cast<double>(candidates_in);
    }
  };

  /// Stages in execution order; verify is present only for verified
  /// queries.
  std::vector<Stage> stages;
};

/// Builds the cascade view of one query. `total_sequences` is the corpus
/// size the first stage filtered (a shard's subset shard-side); `verified`
/// adds the verify stage.
PruningCascadeStats CascadeOf(const SearchStats& stats,
                              uint64_t total_sequences, bool verified);

/// Per-shard slice of a coordinator query's execution: identity, outcome,
/// round-trip time, and the shard's own `SearchStats` — kept un-summed so
/// EXPLAIN and `/debug/slow` can show per-shard skew.
struct ShardQueryStats {
  uint32_t shard = 0;
  bool ok = true;
  bool interrupted = false;
  /// Coordinator-observed round trip of the shard's primary search RPC.
  uint64_t rpc_ns = 0;
  /// Sequences the shard holds (its stage-1 input).
  uint64_t num_sequences = 0;
  /// `ResultDigest` of this shard's slice of the merged matches (global
  /// ids). Lets a replay diff localize a divergence to one shard without
  /// re-running per-shard queries. 0 for failed shards.
  uint64_t digest = 0;
  SearchStats stats;
};

/// Full result of one similarity query.
struct SearchResult {
  /// Ids of Phase-2 candidates (ASmbr), ascending.
  std::vector<size_t> candidates;
  /// Phase-3 matches (ASnorm) with their solution intervals, ascending id.
  std::vector<SequenceMatch> matches;
  SearchStats stats;
  /// Coordinator queries only: one entry per shard (failed shards carry
  /// `ok == false` and zeroed stats). Empty for single-database queries.
  std::vector<ShardQueryStats> shard_breakdown;
  /// True when the search stopped early because its `SearchControl` fired
  /// (cancellation or deadline); candidates/matches are then partial.
  bool interrupted = false;
};

/// Where a query currently is in the three-phase funnel. The numeric order
/// matches execution order, so monitoring code may compare values.
enum class SearchPhase : uint32_t {
  kQueued = 0,
  kPartition = 1,
  kFirstPruning = 2,
  kSecondPruning = 3,
  kVerify = 4,
  kDone = 5,
};

/// "queued" / "partition" / "first_pruning" / ... — stable names used by
/// `/debug/active` and the structured log.
const char* SearchPhaseName(SearchPhase phase);

/// Live progress of one in-flight query, written by the searching thread at
/// the same instrumentation points `SearchStats` uses and read concurrently
/// by introspection endpoints. All fields are relaxed atomics: readers get
/// a coherent *recent* view, not a snapshot — that is enough for a
/// monitoring probe and costs the hot path one store per phase transition.
struct QueryProgress {
  std::atomic<uint32_t> phase{0};
  std::atomic<uint64_t> phase2_candidates{0};
  std::atomic<uint64_t> phase3_matches{0};

  void SetPhase(SearchPhase p) {
    phase.store(static_cast<uint32_t>(p), std::memory_order_relaxed);
  }
  SearchPhase CurrentPhase() const {
    return static_cast<SearchPhase>(phase.load(std::memory_order_relaxed));
  }
};

/// Cooperative interruption of a running query: a cancellation flag (shared
/// with the submitter) and an absolute deadline. Polled at the phase
/// boundaries of the three-phase search — after Phase 2 and between
/// Phase-3 candidates — so a worker thread abandons an expensive query
/// within one candidate evaluation of the signal. Cheap to copy; the
/// atomic (if any) must outlive the search call.
struct SearchControl {
  /// When non-null and set, the search stops at the next checkpoint.
  const std::atomic<bool>* cancel = nullptr;
  /// Second cancellation flag, same semantics as `cancel`. The engine wires
  /// the submitter's token into `cancel` and its own `/debug/cancel`-driven
  /// flag here, so either party can interrupt the query without sharing a
  /// token.
  const std::atomic<bool>* cancel2 = nullptr;
  /// Absolute deadline; `max()` means none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Optional per-query span sink (see src/obs/trace.h). When null —
  /// the default — instrumentation inlines to a pointer test and the
  /// search runs untraced at full speed. The trace must outlive the call
  /// and is written only by the searching thread.
  obs::Trace* trace = nullptr;
  /// Optional live-progress sink (see `QueryProgress`). When null — the
  /// default — progress updates inline to a pointer test.
  QueryProgress* progress = nullptr;

  bool ShouldStop() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    if (cancel2 != nullptr && cancel2->load(std::memory_order_relaxed)) {
      return true;
    }
    return deadline != std::chrono::steady_clock::time_point::max() &&
           std::chrono::steady_clock::now() >= deadline;
  }

  void SetPhase(SearchPhase p) const {
    if (progress != nullptr) progress->SetPhase(p);
  }
};

/// Knobs of the search algorithm beyond the paper's defaults.
struct SearchOptions {
  /// The paper's Phase 3 admits a sequence as soon as *one* (query MBR,
  /// data MBR) pair satisfies `Dnorm <= epsilon`. When enabled, this
  /// applies the tighter *composite* test as well: for an equal-length
  /// alignment, `D(Q,S') = sum_i |q_i| * Dmean(Q_i, S_i) / |Q|`, and each
  /// term is lower-bounded by that query MBR's own minimum Dnorm
  /// (Lemma 2), so
  ///
  ///   (sum_i |q_i| * min_j Dnorm(i, j)) / |Q|  <=  D(Q, S)
  ///
  /// is a valid — and strictly larger — lower bound than the single best
  /// pair. Still no false dismissals; strictly better pruning (see
  /// bench/ablation_composite).
  bool composite_bound = false;

  /// Runs the O(1)-per-pair centroid/radius prefilter in front of the full
  /// Dmbr evaluation of every Phase-3 probe (the cascade's cheapest lower
  /// bound; see `PrefilterProbe`). Sound — a dropped probe provably has
  /// `min Dmbr > epsilon` — so results are identical with it on or off;
  /// only the cost profile changes. Ignored (treated as off) under
  /// `composite_bound`, which needs every probe's exact minimum Dnorm.
  bool prefilter = true;

  /// Approximate tier (src/serve): caps the Phase-3 candidates evaluated
  /// per query (0 = unlimited = exact). Candidates are processed in
  /// ascending minimum-Dmbr order, so a budget cut skips only candidates
  /// whose distance is at least the first skipped candidate's minimum
  /// Dmbr; the result is therefore *exact* for every threshold up to
  /// `SearchStats::approx_certified_epsilon` — no false dismissals below
  /// the certified bound, ever.
  uint64_t max_candidates = 0;

  /// Caps the epsilon-doubling rounds of `SearchNearest` (0 = unlimited).
  /// Under the cap the returned neighbors may be fewer than `k`, but every
  /// reported match is still exact and correctly ranked.
  uint32_t max_epsilon_rounds = 0;
};

/// The paper's three-phase SIMILARITY_SEARCH algorithm (Section 3.4.2):
///
///  1. the query sequence is partitioned into MBRs with the same
///     marginal-cost algorithm used for data sequences;
///  2. *first pruning*: for every query MBR, the spatial index returns the
///     data MBRs within `Dmbr <= epsilon`, yielding candidate sequences
///     (no false dismissal by Lemma 1);
///  3. *second pruning*: candidates are re-checked with the tighter `Dnorm`
///     (no false dismissal by Lemmas 2-3), and the solution intervals of
///     surviving sequences are assembled from the points involved in
///     qualifying `Dnorm` windows.
///
/// Queries may be longer than data sequences ("long queries", Section 1);
/// the roles of the two sides are swapped per pair, mirroring Definition 3.
class SimilaritySearch {
 public:
  /// The database must outlive this object.
  explicit SimilaritySearch(const SequenceDatabase* database,
                            const SearchOptions& options = SearchOptions());

  /// Runs the full three-phase search. `query` must be non-empty and of the
  /// database dimensionality; `epsilon >= 0`.
  ///
  /// Faithful to the paper, the result is the *pruned candidate set*: every
  /// truly similar sequence is present (no false dismissal), but false hits
  /// may remain — the evaluation section measures precisely how few.
  ///
  /// The query path is const and touches no shared mutable state, so any
  /// number of threads may search one database concurrently (the engine in
  /// src/engine relies on this). The `control` overload polls for
  /// cancellation/deadline between phases; see `SearchControl`.
  SearchResult Search(SequenceView query, double epsilon) const;
  SearchResult Search(SequenceView query, double epsilon,
                      const SearchControl& control) const;

  /// Filter-and-refine: runs `Search`, then verifies every match against
  /// the raw stored sequence — matches whose exact `SequenceDistance`
  /// exceeds `epsilon` are dropped, survivors carry their exact distance
  /// and the exact solution intervals. This is the step a complete
  /// retrieval system adds on top of the paper's filter.
  SearchResult SearchVerified(SequenceView query, double epsilon) const;
  SearchResult SearchVerified(SequenceView query, double epsilon,
                              const SearchControl& control) const;

  /// Runs Phase 1+2 only and returns candidate sequence ids (ASmbr),
  /// ascending. Used by evaluation to measure the phases separately.
  std::vector<size_t> SearchCandidates(SequenceView query, double epsilon,
                                       SearchStats* stats = nullptr) const;

  /// The `k` most similar sequences by exact `SequenceDistance`, nearest
  /// first (fewer if the database holds fewer than `k` sequences). Runs the
  /// filter at a growing threshold until `k` verified matches exist — every
  /// reported distance is exact. Solution intervals are relative to the
  /// final (grown) threshold, i.e. they cover everything at least that
  /// similar.
  std::vector<SequenceMatch> SearchNearest(SequenceView query,
                                           size_t k) const;

 private:
  const SequenceDatabase* database_;
  SearchOptions options_;
};

/// Order-insensitive stable digest of a result's match set: FNV-1a over the
/// (sequence id, quantized distance) pairs sorted by id. The distance is the
/// reported one — `exact_distance` for verified results, `min_dnorm`
/// otherwise — quantized to 1e-9 so bit-for-bit-equal runs hash equal while
/// the digest stays stable across serialization round trips through text.
/// Two runs of the same query against the same data on the same build must
/// produce the same digest; the workload replay harness (src/engine)
/// compares digests to prove it.
uint64_t ResultDigest(const SequenceMatch* matches, size_t count,
                      bool verified);
uint64_t ResultDigest(const std::vector<SequenceMatch>& matches,
                      bool verified);

/// Copies one query's counters into the flat struct the obs layer renders
/// (`obs::RenderExplainReport` / `obs::ExplainJson`). Derives the
/// solution-interval totals from `result.matches`; `verified` must say
/// whether `result` came from `SearchVerified`.
obs::ExplainStats ToExplainStats(const SearchResult& result,
                                 size_t query_points, size_t dim,
                                 double epsilon, bool verified, bool disk,
                                 size_t database_sequences);

namespace internal {

/// Phase-2 output: deduplicated candidate ids (ascending) plus, aligned with
/// them, the minimum squared Dmbr any (query MBR, hit MBR) pair achieved —
/// the key Phase 3 uses to process the most promising candidates first.
struct CandidateSet {
  std::vector<size_t> ids;
  std::vector<double> min_dist2;
};

/// Turns per-probe batch hits (`SequenceDatabase::PackEntry` payloads) into
/// the candidate set in O(hits + max id), through a dense min-array indexed
/// by sequence id. Every backend's Phase 2 ends here.
CandidateSet AggregateCandidates(
    const std::vector<std::vector<SpatialIndex::BatchHit>>& hits);

/// Positions into `candidates.ids` in Phase-3 order: ascending minimum
/// Dmbr, ties by id (deterministic), so an interrupted or budget-cut query
/// spent its work on the most promising candidates.
std::vector<size_t> CandidateOrder(const CandidateSet& candidates);

/// Per-query working memory of `EvaluatePhase3`, created once per query and
/// passed to every candidate: once its buffers have grown, Phase 3
/// allocates only each match's exact-size interval list.
struct Phase3Scratch {
  PartitionLayout layout;  ///< SoA mirror of the target side
  std::vector<double> dmbr;  ///< one probe's Dmbr row
  DnormContext context;  ///< prefix sums over `dmbr`
  std::vector<double> probe_center;  ///< prefilter probe centroid
  std::vector<double> prefilter_dist2;  ///< prefilter centroid distances
  std::vector<uint8_t> probe_skipped;  ///< per-probe prefilter verdicts
  std::vector<NormalizedDistanceResult> windows;  ///< one probe's windows
  std::vector<Interval> spans;  ///< the candidate's spans before merging
};

/// Evaluates the paper's Phase 3 (Dnorm pruning + solution-interval
/// assembly) for one candidate pair. Returns true when the candidate
/// qualifies and fills `match` (everything except `sequence_id`). `trace`
/// (optional) receives the assembly span.
bool EvaluatePhase3(const Partition& query_partition, size_t query_length,
                    const Partition& data_partition, size_t data_length,
                    double epsilon, const SearchOptions& options,
                    Phase3Scratch* scratch, SequenceMatch* match,
                    SearchStats* stats, obs::Trace* trace = nullptr);

/// Phase 1 of every backend: partitions `query` under a "partition" span
/// and records its time and MBR count in `stats`.
Partition PartitionQuery(SequenceView query,
                         const PartitioningOptions& options,
                         const SearchControl& control, SearchStats* stats);

/// A backend's candidate data: the partition of sequence `id` (its length
/// into `*length`), or null to skip the candidate.
using PartitionLookup =
    std::function<const Partition*(size_t id, size_t* length)>;

/// Exact verification of one sequence in one bounded profile pass
/// (`WindowDistanceProfileBounded`, sliding the same side as Definition 3):
/// the profile's minimum is the exact distance and its windows within
/// `epsilon` are the exact solution intervals. Sets `*exact` to
/// `SequenceDistanceBounded(query, data, epsilon)` and `*intervals` to
/// `ExactSolutionInterval(query, data, epsilon)`, bit for bit, and returns
/// whether the distance is within `epsilon`.
bool VerifySequence(SequenceView query, SequenceView data, double epsilon,
                    double* exact, std::vector<Interval>* intervals);

/// A backend's raw sequence `id` for verification, read into `*owned` when
/// the backend must materialize a copy. An empty view drops the match (an
/// I/O failure, or an id outside the backend's snapshot); filter matches
/// are never empty.
using SequenceFetch =
    std::function<SequenceView(size_t id, std::optional<Sequence>* owned)>;

/// The verify stage of every backend's `SearchVerified`: runs
/// `VerifySequence` on each of `result->matches` (ascending id) under a
/// "verify" span, keeps the matches within `epsilon` with their exact
/// distance and intervals, and fills `phase3_matches`, `verify_abandons`
/// (matches whose exact distance exceeds `epsilon`), `bytes_read` and
/// `verify_ns`. Polls `control` per match.
void VerifyMatches(SequenceView query, double epsilon,
                   const SequenceFetch& fetch, const SearchControl& control,
                   SearchResult* result);

/// Phase 3 of every backend: evaluates `candidates` in `CandidateOrder`
/// with one `Phase3Scratch`, honouring `options.max_candidates` and
/// `control`. Fills `result->matches` (ascending id), `interrupted`, and
/// the Phase-3 and approximate-tier counters.
void SecondPruning(const Partition& query_partition, size_t query_length,
                   double epsilon, const SearchOptions& options,
                   const CandidateSet& candidates,
                   const PartitionLookup& lookup,
                   const SearchControl& control, SearchResult* result);

}  // namespace internal

}  // namespace mdseq

#endif  // MDSEQ_CORE_SEARCH_H_
