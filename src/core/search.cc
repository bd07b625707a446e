#include "core/search.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>

#include "core/distance.h"
#include "core/mbr_distance.h"
#include "obs/trace.h"
#include "util/check.h"

namespace mdseq {

namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t ElapsedNs(SteadyClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - start)
          .count());
}

// Phase 2 against any spatial index: one batched descent for all query
// MBRs (each index node is visited once per query *batch*, not once per
// query MBR). Shared by `Search` (which already holds the partition) and
// the public `SearchCandidates`.
internal::CandidateSet FirstPruning(const SpatialIndex& index,
                                    const Partition& query_partition,
                                    double epsilon, SearchStats* stats,
                                    obs::Trace* trace) {
  obs::SpanScope phase_span(trace, "first_pruning");
  const auto start = SteadyClock::now();
  std::vector<Mbr> queries;
  queries.reserve(query_partition.size());
  for (const SequenceMbr& piece : query_partition) {
    queries.push_back(piece.mbr);
  }
  std::vector<std::vector<SpatialIndex::BatchHit>> hits;
  uint64_t accesses = 0;
  {
    obs::SpanScope search_span(trace, "range_search");
    accesses = index.RangeSearchBatch(queries, epsilon, &hits);
    size_t hit_count = 0;
    for (const auto& per_query : hits) hit_count += per_query.size();
    search_span.Arg("probes", queries.size());
    search_span.Arg("node_visits", accesses);
    search_span.Arg("hits", hit_count);
  }
  internal::CandidateSet result = internal::AggregateCandidates(hits);
  stats->node_accesses += accesses;
  stats->phase2_candidates = result.ids.size();
  stats->first_pruning_ns += ElapsedNs(start);
  phase_span.Arg("node_accesses", accesses);
  phase_span.Arg("candidates", result.ids.size());
  return result;
}

bool MatchIdLess(const SequenceMatch& a, const SequenceMatch& b) {
  return a.sequence_id < b.sequence_id;
}

}  // namespace

void MergeIntervals(std::vector<Interval>* intervals) {
  if (intervals->size() <= 1) return;
  std::sort(intervals->begin(), intervals->end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin || (a.begin == b.begin && a.end < b.end);
            });
  // Coalesce in place: `*last` is the open merged run.
  auto last = intervals->begin();
  for (auto next = last + 1; next != intervals->end(); ++next) {
    if (next->begin <= last->end) {
      last->end = std::max(last->end, next->end);
    } else {
      *++last = *next;
    }
  }
  intervals->erase(last + 1, intervals->end());
}

size_t CoveredPoints(const std::vector<Interval>& intervals) {
  size_t covered = 0;
  for (const Interval& iv : intervals) covered += iv.length();
  return covered;
}

std::vector<Interval> ExactSolutionInterval(SequenceView query,
                                            SequenceView data,
                                            double epsilon) {
  double exact = 0.0;
  std::vector<Interval> intervals;
  internal::VerifySequence(query, data, epsilon, &exact, &intervals);
  return intervals;
}

SimilaritySearch::SimilaritySearch(const SequenceDatabase* database,
                                   const SearchOptions& options)
    : database_(database), options_(options) {
  MDSEQ_CHECK(database != nullptr);
}

std::vector<size_t> SimilaritySearch::SearchCandidates(
    SequenceView query, double epsilon, SearchStats* stats) const {
  MDSEQ_CHECK(!query.empty());
  MDSEQ_CHECK(query.dim() == database_->dim());
  MDSEQ_CHECK(epsilon >= 0.0);

  SearchStats unused;
  if (stats == nullptr) stats = &unused;
  // Phase 1: partition the query with the database's partitioning options.
  const Partition query_partition = internal::PartitionQuery(
      query, database_->options().partitioning, SearchControl(), stats);

  // Phase 2: one batched index descent for all query MBRs; a sequence is a
  // candidate as soon as one of its MBRs lies within Dmbr <= epsilon of one
  // query MBR. Accounting uses the per-call visit count returned by
  // RangeSearchBatch, not the index's cumulative counter, so concurrent
  // queries stay exact.
  return FirstPruning(database_->index(), query_partition, epsilon, stats,
                      nullptr)
      .ids;
}

namespace internal {

CandidateSet AggregateCandidates(
    const std::vector<std::vector<SpatialIndex::BatchHit>>& hits) {
  size_t slots = 0;
  for (const auto& per_query : hits) {
    for (const SpatialIndex::BatchHit& hit : per_query) {
      slots = std::max(slots,
                       SequenceDatabase::UnpackSequenceId(hit.value) + 1);
    }
  }
  // NaN marks an id without hits; `!(best <= dist2)` also admits the first.
  std::vector<double> best(slots, std::numeric_limits<double>::quiet_NaN());
  for (const auto& per_query : hits) {
    for (const SpatialIndex::BatchHit& hit : per_query) {
      double& slot = best[SequenceDatabase::UnpackSequenceId(hit.value)];
      if (!(slot <= hit.dist2)) slot = hit.dist2;
    }
  }
  CandidateSet result;
  for (size_t id = 0; id < slots; ++id) {
    if (std::isnan(best[id])) continue;
    result.ids.push_back(id);
    result.min_dist2.push_back(best[id]);
  }
  return result;
}

std::vector<size_t> CandidateOrder(const CandidateSet& candidates) {
  std::vector<size_t> order(candidates.ids.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&candidates](size_t a, size_t b) {
    if (candidates.min_dist2[a] != candidates.min_dist2[b]) {
      return candidates.min_dist2[a] < candidates.min_dist2[b];
    }
    return candidates.ids[a] < candidates.ids[b];
  });
  return order;
}

bool EvaluatePhase3(const Partition& query_partition, size_t query_length,
                    const Partition& data_partition, size_t data_length,
                    double epsilon, const SearchOptions& options,
                    Phase3Scratch* scratch, SequenceMatch* match,
                    SearchStats* stats, obs::Trace* trace) {
  MDSEQ_CHECK(scratch != nullptr && match != nullptr && stats != nullptr);
  match->min_dnorm = std::numeric_limits<double>::infinity();
  match->solution_interval.clear();
  bool qualified = false;

  // Definition 3 slides the shorter side, so the shorter side's MBRs act
  // as probes; for long queries the roles swap and a qualifying data MBR
  // contributes its own span to the reported interval instead.
  const bool swapped = query_length > data_length;
  const Partition& probes = swapped ? data_partition : query_partition;
  const Partition& targets = swapped ? query_partition : data_partition;

  // SoA mirror of the target MBRs: one gather serves the prefilter, every
  // probe's batched Dmbr pass, and their centroid/radius summaries.
  MakePartitionLayout(targets, &scratch->layout);
  const PartitionLayout& layout = scratch->layout;

  // Cascade stage "prefilter": the O(1)-per-pair centroid/radius lower
  // bound drops probes that provably satisfy min Dmbr > epsilon before the
  // full Dmbr pass. Disabled under the composite bound (which needs every
  // probe's exact minimum); when disabled every probe passes through, so
  // the stage reads as a no-op rather than a wall.
  const bool use_prefilter = options.prefilter && !options.composite_bound;
  std::vector<uint8_t>& probe_skipped = scratch->probe_skipped;
  size_t surviving_probes = probes.size();
  if (use_prefilter) {
    const auto prefilter_start = SteadyClock::now();
    probe_skipped.assign(probes.size(), 0);
    scratch->probe_center.resize(layout.dim);
    double* center = scratch->probe_center.data();
    for (size_t p = 0; p < probes.size(); ++p) {
      const double radius = MbrCenterAndRadius(probes[p].mbr, center);
      if (!PrefilterProbe(center, radius, layout, epsilon,
                          &scratch->prefilter_dist2)) {
        probe_skipped[p] = 1;
        --surviving_probes;
        ++stats->prefilter_abandons;
      }
    }
    stats->prefilter_ns += ElapsedNs(prefilter_start);
  }
  if (surviving_probes == 0) return false;
  ++stats->prefilter_survivors;

  // Per-probe minimum Dnorm, for the optional composite bound.
  double composite_weighted = 0.0;
  size_t composite_points = 0;

  const DnormContext& context = scratch->context;
  std::vector<NormalizedDistanceResult>& windows = scratch->windows;
  std::vector<Interval>& spans = scratch->spans;
  spans.clear();
  for (size_t probe_index = 0; probe_index < probes.size(); ++probe_index) {
    const SequenceMbr& probe = probes[probe_index];
    if (use_prefilter && probe_skipped[probe_index] != 0) {
      // A dropped probe provably has min Dmbr > epsilon: no qualifying
      // window, and (as with the min-Dmbr abandon below) it cannot carry
      // the reported min_dnorm of a match that qualifies via another
      // probe.
      continue;
    }
    ComputeMbrDistances(probe.mbr, layout, &scratch->dmbr);
    MakeDnormContext(targets, scratch->dmbr, &scratch->context);
    if (!options.composite_bound && context.min_dmbr > epsilon) {
      // Probe-level early abandon: every Dnorm window is a weighted
      // average of Dmbr values, so this probe has no qualifying window,
      // and for a match that qualifies via another probe the reported
      // min_dnorm (<= epsilon) cannot come from this probe either. Not
      // taken under the composite bound, which needs every probe's exact
      // minimum.
      ++stats->probe_abandons;
      continue;
    }
    stats->dnorm_evaluations += targets.size();
    windows.clear();
    const double probe_min =
        DistinctQualifyingWindows(probe.count(), context, epsilon, &windows);
    if (!windows.empty()) {
      qualified = true;
      if (swapped) {
        spans.push_back(Interval{probe.begin, probe.end});
      } else {
        for (const NormalizedDistanceResult& w : windows) {
          spans.push_back(Interval{w.point_begin, w.point_end});
        }
      }
    }
    match->min_dnorm = std::min(match->min_dnorm, probe_min);
    composite_weighted += probe_min * static_cast<double>(probe.count());
    composite_points += probe.count();
  }

  if (qualified && options.composite_bound && composite_points > 0) {
    // The alignment-weighted average of per-probe minima also lower-bounds
    // D(Q, S); prune when it already exceeds the threshold.
    const double composite =
        composite_weighted / static_cast<double>(composite_points);
    if (composite > epsilon) qualified = false;
  }

  if (qualified) {
    obs::SpanScope assembly_span(trace, "assemble_intervals");
    const auto assembly_start = SteadyClock::now();
    MergeIntervals(&spans);
    match->solution_interval.assign(spans.begin(), spans.end());
    stats->interval_assembly_ns += ElapsedNs(assembly_start);
    assembly_span.Arg("intervals", match->solution_interval.size());
  }
  return qualified;
}

bool VerifySequence(SequenceView query, SequenceView data, double epsilon,
                    double* exact, std::vector<Interval>* intervals) {
  MDSEQ_CHECK(!query.empty() && !data.empty());
  MDSEQ_CHECK(epsilon >= 0.0);
  // Definition 3 slides the shorter side, equal lengths slide the query:
  // the orientation of both `SequenceDistanceBounded` and
  // `ExactSolutionInterval`, so one profile serves both. Windows within
  // epsilon always complete with their exact mean.
  const bool long_query = query.size() > data.size();
  const std::vector<double> profile =
      long_query ? WindowDistanceProfileBounded(data, query, epsilon)
                 : WindowDistanceProfileBounded(query, data, epsilon);
  const double best = *std::min_element(profile.begin(), profile.end());
  *exact = best <= epsilon ? best : std::numeric_limits<double>::infinity();
  intervals->clear();
  if (long_query) {
    // The data sequence slides inside the query: when any alignment
    // qualifies, the whole data sequence participates.
    if (best <= epsilon) intervals->push_back(Interval{0, data.size()});
  } else {
    for (size_t j = 0; j < profile.size(); ++j) {
      if (profile[j] <= epsilon) {
        intervals->push_back(Interval{j, j + query.size()});
      }
    }
    MergeIntervals(intervals);
  }
  return *exact <= epsilon;
}

void VerifyMatches(SequenceView query, double epsilon,
                   const SequenceFetch& fetch, const SearchControl& control,
                   SearchResult* result) {
  control.SetPhase(SearchPhase::kVerify);
  obs::SpanScope span(control.trace, "verify");
  const auto start = SteadyClock::now();
  SearchStats& stats = result->stats;
  std::vector<SequenceMatch>& matches = result->matches;
  std::optional<Sequence> owned;
  size_t kept = 0;
  for (size_t i = 0; i < matches.size(); ++i) {
    if (control.ShouldStop()) {
      result->interrupted = true;
      break;
    }
    SequenceMatch& match = matches[i];
    obs::SpanScope candidate_span(control.trace, "verify_candidate");
    candidate_span.Arg("sequence_id", match.sequence_id);
    const SequenceView data = fetch(match.sequence_id, &owned);
    if (data.empty()) continue;
    stats.bytes_read += data.size() * data.dim() * sizeof(double);
    // Early-abandoning verification: the exact distance and intervals
    // when within epsilon, a drop when the distance provably is not.
    if (!VerifySequence(query, data, epsilon, &match.exact_distance,
                        &match.solution_interval)) {
      ++stats.verify_abandons;
      continue;
    }
    if (kept != i) matches[kept] = std::move(match);
    ++kept;
  }
  matches.resize(kept);
  stats.phase3_matches = kept;
  stats.verify_ns += ElapsedNs(start);
  span.Arg("verified_matches", kept);
}

Partition PartitionQuery(SequenceView query,
                         const PartitioningOptions& options,
                         const SearchControl& control, SearchStats* stats) {
  control.SetPhase(SearchPhase::kPartition);
  obs::SpanScope span(control.trace, "partition");
  const auto start = SteadyClock::now();
  Partition partition = PartitionSequence(query, options);
  stats->partition_ns += ElapsedNs(start);
  stats->query_mbrs = partition.size();
  span.Arg("query_mbrs", partition.size());
  return partition;
}

void SecondPruning(const Partition& query_partition, size_t query_length,
                   double epsilon, const SearchOptions& options,
                   const CandidateSet& candidates,
                   const PartitionLookup& lookup,
                   const SearchControl& control, SearchResult* result) {
  SearchStats& stats = result->stats;
  {
    // Candidates by ascending minimum Dmbr, so an interrupted query
    // covered the most promising ones. The control is polled per
    // candidate — the unit of abandonable work.
    obs::SpanScope span(control.trace, "second_pruning");
    control.SetPhase(SearchPhase::kSecondPruning);
    const auto start = SteadyClock::now();
    const std::vector<size_t> order = CandidateOrder(candidates);
    Phase3Scratch scratch;
    for (size_t pos = 0; pos < order.size(); ++pos) {
      const size_t slot = order[pos];
      const size_t id = candidates.ids[slot];
      if (options.max_candidates > 0 && pos == options.max_candidates) {
        // Budget cut: candidates are ordered by ascending minimum Dmbr, so
        // every skipped candidate's distance is at least this slot's bound
        // — the result stays exact below the certified threshold.
        stats.approx_candidates_skipped = order.size() - pos;
        stats.approx_certified_epsilon =
            std::min(epsilon, std::sqrt(candidates.min_dist2[slot]));
        break;
      }
      if (control.ShouldStop()) {
        result->interrupted = true;
        break;
      }
      size_t data_length = 0;
      const Partition* data_partition = lookup(id, &data_length);
      if (data_partition == nullptr) continue;
      obs::SpanScope candidate_span(control.trace, "candidate");
      candidate_span.Arg("sequence_id", id);
      const size_t evals_before = stats.dnorm_evaluations;
      SequenceMatch match;
      match.sequence_id = id;
      const bool qualified = EvaluatePhase3(
          query_partition, query_length, *data_partition, data_length,
          epsilon, options, &scratch, &match, &stats, control.trace);
      candidate_span.Arg("dnorm_evaluations",
                         stats.dnorm_evaluations - evals_before);
      candidate_span.Arg("qualified", qualified ? 1 : 0);
      if (qualified) {
        result->matches.push_back(std::move(match));
        if (control.progress != nullptr) {
          control.progress->phase3_matches.store(
              result->matches.size(), std::memory_order_relaxed);
        }
      }
    }
    // The result contract keeps matches ascending by id regardless of the
    // processing order.
    std::sort(result->matches.begin(), result->matches.end(), MatchIdLess);
    stats.second_pruning_ns += ElapsedNs(start);
    span.Arg("matches", result->matches.size());
  }
  stats.phase3_matches = result->matches.size();
  stats.filter_matches = result->matches.size();
  if (stats.approx_candidates_skipped == 0) {
    // The budget did not bind (or none was set): the full answer at the
    // requested threshold.
    stats.approx_certified_epsilon = epsilon;
  }
}

}  // namespace internal

const char* SearchPhaseName(SearchPhase phase) {
  switch (phase) {
    case SearchPhase::kQueued:
      return "queued";
    case SearchPhase::kPartition:
      return "partition";
    case SearchPhase::kFirstPruning:
      return "first_pruning";
    case SearchPhase::kSecondPruning:
      return "second_pruning";
    case SearchPhase::kVerify:
      return "verify";
    case SearchPhase::kDone:
      return "done";
  }
  return "unknown";
}

PruningCascadeStats CascadeOf(const SearchStats& stats,
                              uint64_t total_sequences, bool verified) {
  PruningCascadeStats cascade;
  PruningCascadeStats::Stage first;
  first.name = "first_pruning";
  first.candidates_in = total_sequences;
  first.candidates_out = stats.phase2_candidates;
  first.ns = stats.partition_ns + stats.first_pruning_ns;
  cascade.stages.push_back(first);

  // The prefilter prepass runs inside the Phase-3 loop, so its time is a
  // sub-slice of second_pruning_ns; the second stage reports the exclusive
  // remainder. A candidate "survives" the prefilter when at least one of
  // its probes does (with the prefilter off every candidate passes
  // through).
  PruningCascadeStats::Stage prefilter;
  prefilter.name = "prefilter";
  prefilter.candidates_in = stats.phase2_candidates;
  prefilter.candidates_out = stats.prefilter_survivors;
  prefilter.abandons = stats.prefilter_abandons;
  prefilter.ns = stats.prefilter_ns;
  cascade.stages.push_back(prefilter);

  PruningCascadeStats::Stage second;
  second.name = "second_pruning";
  second.candidates_in = stats.prefilter_survivors;
  second.candidates_out = stats.filter_matches;
  second.abandons = stats.probe_abandons;
  second.ns = stats.second_pruning_ns >= stats.prefilter_ns
                  ? stats.second_pruning_ns - stats.prefilter_ns
                  : 0;
  cascade.stages.push_back(second);

  if (verified) {
    PruningCascadeStats::Stage verify;
    verify.name = "verify";
    verify.candidates_in = stats.filter_matches;
    verify.candidates_out = stats.phase3_matches;
    verify.abandons = stats.verify_abandons;
    verify.bytes_read = stats.bytes_read;
    verify.ns = stats.verify_ns;
    cascade.stages.push_back(verify);
  }
  return cascade;
}

SearchResult SimilaritySearch::Search(SequenceView query,
                                      double epsilon) const {
  return Search(query, epsilon, SearchControl());
}

SearchResult SimilaritySearch::Search(SequenceView query, double epsilon,
                                      const SearchControl& control) const {
  MDSEQ_CHECK(!query.empty());
  MDSEQ_CHECK(query.dim() == database_->dim());
  MDSEQ_CHECK(epsilon >= 0.0);
  SearchResult result;

  // Phase 1: one partitioning pass shared by both pruning phases.
  const Partition query_partition = internal::PartitionQuery(
      query, database_->options().partitioning, control, &result.stats);

  control.SetPhase(SearchPhase::kFirstPruning);
  const internal::CandidateSet pruned = FirstPruning(
      database_->index(), query_partition, epsilon, &result.stats,
      control.trace);
  result.candidates = pruned.ids;
  if (control.progress != nullptr) {
    control.progress->phase2_candidates.store(result.candidates.size(),
                                              std::memory_order_relaxed);
  }

  // Phase 3: second pruning with Dnorm plus solution-interval assembly.
  internal::SecondPruning(
      query_partition, query.size(), epsilon, options_, pruned,
      [this](size_t id, size_t* length) {
        *length = database_->sequence(id).size();
        return &database_->partition(id);
      },
      control, &result);
  return result;
}

SearchResult SimilaritySearch::SearchVerified(SequenceView query,
                                              double epsilon) const {
  return SearchVerified(query, epsilon, SearchControl());
}

SearchResult SimilaritySearch::SearchVerified(
    SequenceView query, double epsilon, const SearchControl& control) const {
  SearchResult result = Search(query, epsilon, control);
  internal::VerifyMatches(
      query, epsilon,
      [this](size_t id, std::optional<Sequence>*) {
        return database_->sequence(id).View();
      },
      control, &result);
  return result;
}

obs::ExplainStats ToExplainStats(const SearchResult& result,
                                 size_t query_points, size_t dim,
                                 double epsilon, bool verified, bool disk,
                                 size_t database_sequences) {
  obs::ExplainStats out;
  out.query_points = query_points;
  out.dim = dim;
  out.epsilon = epsilon;
  out.verified = verified;
  out.disk = disk;
  out.interrupted = result.interrupted;
  out.database_sequences = database_sequences;

  const SearchStats& stats = result.stats;
  out.query_mbrs = stats.query_mbrs;
  out.partition_ns = stats.partition_ns;
  out.phase2_candidates = stats.phase2_candidates;
  out.node_accesses = stats.node_accesses;
  out.page_hits = stats.page_hits;
  out.page_misses = stats.page_misses;
  out.first_pruning_ns = stats.first_pruning_ns;
  out.phase3_matches = stats.filter_matches;
  out.dnorm_evaluations = stats.dnorm_evaluations;
  out.second_pruning_ns = stats.second_pruning_ns;
  out.interval_assembly_ns = stats.interval_assembly_ns;
  out.verified_matches = verified ? stats.phase3_matches : 0;
  out.verify_ns = stats.verify_ns;
  out.probe_abandons = stats.probe_abandons;
  out.verify_abandons = stats.verify_abandons;
  out.bytes_read = stats.bytes_read;
  out.prefilter_abandons = stats.prefilter_abandons;
  out.prefilter_survivors = stats.prefilter_survivors;
  out.prefilter_ns = stats.prefilter_ns;
  out.approx_candidates_skipped = stats.approx_candidates_skipped;
  out.approx_certified_epsilon = stats.approx_certified_epsilon;
  out.shards_total = stats.shards_total;
  out.shards_failed = stats.shards_failed;
  out.fanout_wait_ns = stats.fanout_wait_ns;
  out.merge_ns = stats.merge_ns;
  for (const ShardQueryStats& shard : result.shard_breakdown) {
    obs::ExplainStats::ShardRow row;
    row.shard = shard.shard;
    row.ok = shard.ok;
    row.interrupted = shard.interrupted;
    row.rpc_ns = shard.rpc_ns;
    row.sequences = shard.num_sequences;
    row.phase2_candidates = shard.stats.phase2_candidates;
    row.filter_matches = shard.stats.filter_matches;
    row.phase3_matches = shard.stats.phase3_matches;
    row.dnorm_evaluations = shard.stats.dnorm_evaluations;
    row.probe_abandons = shard.stats.probe_abandons;
    row.verify_abandons = shard.stats.verify_abandons;
    row.bytes_read = shard.stats.bytes_read;
    row.prefilter_abandons = shard.stats.prefilter_abandons;
    row.prefilter_survivors = shard.stats.prefilter_survivors;
    row.total_ns = shard.stats.TotalPhaseNs();
    out.shards.push_back(row);
  }

  for (const SequenceMatch& match : result.matches) {
    out.solution_intervals += match.solution_interval.size();
    out.solution_points += CoveredPoints(match.solution_interval);
  }
  return out;
}

std::vector<SequenceMatch> SimilaritySearch::SearchNearest(SequenceView query,
                                                           size_t k) const {
  k = std::min(k, database_->num_live_sequences());
  if (k == 0) return {};
  // Grow the threshold until k verified matches exist. The filter returns
  // *every* sequence within the threshold, so once k are verified the
  // global top-k is among them. Exact distances verified in earlier
  // (smaller-threshold) rounds are cached and reused — a sequence within
  // an earlier epsilon is within every later one, so each sequence is
  // verified at most once across the doublings.
  const double max_epsilon =
      std::sqrt(static_cast<double>(database_->dim()));
  std::map<size_t, double> verified;  // id -> exact SequenceDistance
  double epsilon = 0.05;
  uint32_t rounds = 0;
  while (true) {
    ++rounds;
    SearchResult filtered = Search(query, epsilon);
    for (const SequenceMatch& match : filtered.matches) {
      if (verified.count(match.sequence_id) != 0) continue;
      const double exact = SequenceDistanceBounded(
          query, database_->sequence(match.sequence_id).View(), epsilon);
      if (exact <= epsilon) verified.emplace(match.sequence_id, exact);
    }
    // The approximate tier's round cap stops the doubling early: the
    // matches found so far are exact and correctly ranked, there may just
    // be fewer than k of them.
    const bool budget_cut = options_.max_epsilon_rounds > 0 &&
                            rounds >= options_.max_epsilon_rounds;
    if (verified.size() >= k || epsilon >= max_epsilon || budget_cut) {
      // Every cached id re-qualifies at the final (largest) threshold, so
      // `filtered.matches` carries its current min_dnorm; the exact
      // solution intervals are computed only for the reported top-k.
      std::vector<std::pair<double, size_t>> ranked;
      ranked.reserve(verified.size());
      for (const auto& [id, exact] : verified) {
        ranked.emplace_back(exact, id);
      }
      std::sort(ranked.begin(), ranked.end());
      if (ranked.size() > k) ranked.resize(k);
      std::vector<SequenceMatch> nearest;
      nearest.reserve(ranked.size());
      for (const auto& [exact, id] : ranked) {
        SequenceMatch match;
        match.sequence_id = id;
        match.exact_distance = exact;
        for (const SequenceMatch& filter_match : filtered.matches) {
          if (filter_match.sequence_id == id) {
            match.min_dnorm = filter_match.min_dnorm;
            break;
          }
        }
        match.solution_interval = ExactSolutionInterval(
            query, database_->sequence(id).View(), epsilon);
        nearest.push_back(std::move(match));
      }
      return nearest;
    }
    epsilon *= 2.0;
  }
}

uint64_t ResultDigest(const SequenceMatch* matches, size_t count,
                      bool verified) {
  // (id, quantized distance), sorted by id so the digest is insensitive to
  // merge order (shard fan-ins append in completion order before sorting).
  std::vector<std::pair<uint64_t, int64_t>> entries;
  entries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double distance =
        verified ? matches[i].exact_distance : matches[i].min_dnorm;
    entries.emplace_back(static_cast<uint64_t>(matches[i].sequence_id),
                         llround(distance * 1e9));
  }
  std::sort(entries.begin(), entries.end());
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis.
  const auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;  // FNV-1a prime.
    }
  };
  mix(static_cast<uint64_t>(count));
  for (const auto& [id, quantized] : entries) {
    mix(id);
    mix(static_cast<uint64_t>(quantized));
  }
  return hash;
}

uint64_t ResultDigest(const std::vector<SequenceMatch>& matches,
                      bool verified) {
  return ResultDigest(matches.data(), matches.size(), verified);
}

}  // namespace mdseq
