// Fast performance guardrails (label: perf-smoke): on a fixed seed the new
// kernels must not be slower than the retained reference implementations,
// and the batched R-tree descent must visit at most half the nodes of
// per-probe searches on a clustered multi-probe workload. Workloads are
// sized so the expected advantage is an order of magnitude — an assertion
// failure means a real regression, not timer noise. Meant to run on an
// optimized build (the `release` CMake preset); the relative comparisons
// also hold unoptimized, only with more noise.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/mbr_distance.h"
#include "core/partitioning.h"
#include "core/search.h"
#include "engine/query_engine.h"
#include "eval/experiment.h"
#include "gen/fractal.h"
#include "index/rstar_tree.h"
#include "obs/trace.h"
#include "shard/coordinator.h"
#include "shard/placement.h"
#include "shard/shard_set.h"
#include "shard/transport.h"
#include "util/random.h"

namespace mdseq {
namespace {

using Clock = std::chrono::steady_clock;

template <typename Fn>
int64_t TimeNs(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// Interleaved best-of-N timing for the on/off serving-overhead bounds:
// `run(false)` and `run(true)` alternate `kBestOf` times after one
// warm-up, and the fastest sample of each side is returned as
// {off, on}. A ~2 ms sample under a parallel test run can catch a
// scheduler stall on either side; the minimum of several interleaved
// samples keeps the stall out of the comparison without widening the
// bound.
constexpr int kBestOf = 7;

template <typename Fn>
std::pair<int64_t, int64_t> BestOfInterleaved(Fn&& run) {
  run(false);  // warm-up: page in the code and the database
  int64_t best_off = INT64_MAX;
  int64_t best_on = INT64_MAX;
  for (int i = 0; i < kBestOf; ++i) {
    best_off = std::min(best_off, run(false));
    best_on = std::min(best_on, run(true));
  }
  return {best_off, best_on};
}

// Many small MBRs: the worst case for the naive O(m^2)-per-(probe, j)
// window enumeration and the best case for the prefix-sum context.
TEST(PerfSmokeTest, PrefixSumDnormIsNotSlowerThanReference) {
  Rng rng(7001);
  const Sequence data = GenerateFractalSequence(1024, FractalOptions(), &rng);
  PartitioningOptions part;
  part.max_points = 4;  // ~256 MBRs
  const Partition target = PartitionSequence(data.View(), part);
  ASSERT_GE(target.size(), 128u);
  const Sequence probe_seq =
      GenerateFractalSequence(128, FractalOptions(), &rng);
  const Mbr probe = probe_seq.BoundingBox();
  const std::vector<double> dmbr = ComputeMbrDistances(probe, target);
  const size_t probe_count = 128;

  double ref_sum = 0.0;
  const int64_t ref_ns = TimeNs([&] {
    for (size_t j = 0; j < target.size(); ++j) {
      ref_sum += ReferenceNormalizedDistance(probe_count, target, j, dmbr)
                     .distance;
    }
  });
  double fast_sum = 0.0;
  const int64_t fast_ns = TimeNs([&] {
    DnormContext context;
    MakeDnormContext(target, dmbr, &context);
    for (size_t j = 0; j < target.size(); ++j) {
      fast_sum += NormalizedDistance(probe_count, context, j).distance;
    }
  });
  EXPECT_NEAR(fast_sum, ref_sum, 1e-9 * target.size());
  EXPECT_LE(fast_ns, ref_ns)
      << "prefix-sum Dnorm slower than the naive reference";
}

// Clustered probes over a packed tree: the batch descent shares the upper
// levels, so it must visit at most half the nodes the per-probe searches
// touch. Node counts are deterministic for a fixed seed.
TEST(PerfSmokeTest, BatchDescentHalvesNodeVisits) {
  Rng rng(7002);
  std::vector<IndexEntry> entries;
  for (uint64_t i = 0; i < 6000; ++i) {
    Point low{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    Point high = low;
    for (double& v : high) v += 0.02 * rng.Uniform();
    entries.push_back(IndexEntry{Mbr(low, high), i});
  }
  const RStarTree tree = RStarTree::BulkLoad(3, entries);

  // Eight probes clustered in one corner of the space, as the MBRs of one
  // partitioned query sequence would be.
  std::vector<Mbr> probes;
  for (int i = 0; i < 8; ++i) {
    Point low{0.2 + 0.02 * i, 0.2 + 0.01 * i, 0.2};
    Point high{low[0] + 0.05, low[1] + 0.05, 0.3};
    probes.emplace_back(low, high);
  }
  const double epsilon = 0.05;

  std::vector<std::vector<SpatialIndex::BatchHit>> batch;
  const uint64_t batch_visits = tree.RangeSearchBatch(probes, epsilon, &batch);
  uint64_t single_visits = 0;
  for (const Mbr& probe : probes) {
    std::vector<uint64_t> hits;
    single_visits += tree.RangeSearch(probe, epsilon, &hits);
  }
  EXPECT_LE(batch_visits * 2, single_visits)
      << "batch=" << batch_visits << " singles=" << single_visits;
}

// A query that matches nowhere: the bounded profile abandons every window
// after a few points, the unbounded one always pays the full window.
TEST(PerfSmokeTest, BoundedProfileIsNotSlowerThanReference) {
  Rng rng(7003);
  const Sequence data = GenerateFractalSequence(4096, FractalOptions(), &rng);
  const Sequence raw = GenerateFractalSequence(256, FractalOptions(), &rng);
  // Push the query far away so every alignment exceeds the threshold early.
  Sequence query(raw.dim());
  for (size_t i = 0; i < raw.size(); ++i) {
    Point shifted(raw.dim());
    for (size_t t = 0; t < raw.dim(); ++t) shifted[t] = raw[i][t] + 10.0;
    query.Append(shifted);
  }
  const double epsilon = 0.05;

  std::vector<double> ref;
  const int64_t ref_ns =
      TimeNs([&] { ref = WindowDistanceProfile(query.View(), data.View()); });
  std::vector<double> bounded;
  const int64_t bounded_ns = TimeNs([&] {
    bounded = WindowDistanceProfileBounded(query.View(), data.View(), epsilon);
  });
  ASSERT_EQ(bounded.size(), ref.size());
  for (size_t j = 0; j < ref.size(); ++j) {
    EXPECT_GT(ref[j], epsilon);  // nothing qualifies...
  }
  EXPECT_LE(bounded_ns, ref_ns)
      << "bounded profile slower than the unbounded reference";
}

// Cascade soundness and cost guarantee: the centroid/radius prefilter is a
// pure lower-bound stage, so enabling it may only change the cost profile —
// never the answers, the index node visits (it runs after Phase 2), or the
// amount of downstream work (verified candidates, Dnorm evaluations).
TEST(PerfSmokeTest, PrefilterNeverIncreasesWorkOrChangesAnswers) {
  WorkloadConfig config;
  config.kind = DataKind::kSynthetic;
  config.num_sequences = 120;
  config.min_length = 48;
  config.max_length = 160;
  config.num_queries = 10;
  config.seed = 7006;
  const Workload workload = BuildWorkload(config);
  SearchOptions with_prefilter;  // the default: prefilter on
  SearchOptions without_prefilter;
  without_prefilter.prefilter = false;
  const SimilaritySearch filtered(workload.database.get(), with_prefilter);
  const SimilaritySearch plain(workload.database.get(), without_prefilter);

  uint64_t total_prefilter_abandons = 0;
  for (const Sequence& query : workload.queries) {
    for (const double epsilon : {0.02, 0.1, 0.3}) {
      const SearchResult on = filtered.SearchVerified(query.View(), epsilon);
      const SearchResult off = plain.SearchVerified(query.View(), epsilon);

      // Identical answers, down to the reported bounds and intervals.
      EXPECT_EQ(on.candidates, off.candidates);
      ASSERT_EQ(on.matches.size(), off.matches.size());
      for (size_t m = 0; m < on.matches.size(); ++m) {
        EXPECT_EQ(on.matches[m].sequence_id, off.matches[m].sequence_id);
        EXPECT_DOUBLE_EQ(on.matches[m].min_dnorm, off.matches[m].min_dnorm);
        EXPECT_DOUBLE_EQ(on.matches[m].exact_distance,
                         off.matches[m].exact_distance);
        EXPECT_EQ(on.matches[m].solution_interval,
                  off.matches[m].solution_interval);
      }

      // Never more work: node visits untouched, verified candidates and
      // Dnorm evaluations never increased.
      EXPECT_EQ(on.stats.node_accesses, off.stats.node_accesses);
      EXPECT_LE(on.stats.filter_matches, off.stats.filter_matches);
      EXPECT_LE(on.stats.dnorm_evaluations, off.stats.dnorm_evaluations);
      // Each prefilter drop replaces a min-Dmbr probe abandon one for one.
      EXPECT_EQ(on.stats.prefilter_abandons + on.stats.probe_abandons,
                off.stats.probe_abandons);
      // Every Phase-2 candidate keeps at least one live probe (the pair
      // that put it into the candidate set survives the prefilter).
      EXPECT_EQ(on.stats.prefilter_survivors, on.stats.phase2_candidates);
      // The disabled run reports a pass-through stage: no drops, no cost.
      EXPECT_EQ(off.stats.prefilter_abandons, 0u);
      EXPECT_EQ(off.stats.prefilter_ns, 0u);
      total_prefilter_abandons += on.stats.prefilter_abandons;
    }
  }
  // The workload is sized so the stage demonstrably fires somewhere.
  EXPECT_GT(total_prefilter_abandons, 0u);
}

// An idle introspection server must not tax the query path: the listener
// blocks in poll() and the always-on registry costs one sharded-map insert
// and erase per query. Generous 2x bound — an assertion failure means the
// server thread is interfering with serving, not timer noise.
TEST(PerfSmokeTest, IdleIntrospectionServerDoesNotSlowServing) {
  WorkloadConfig config;
  config.kind = DataKind::kSynthetic;
  config.num_sequences = 100;
  config.min_length = 56;
  config.max_length = 192;
  config.num_queries = 16;
  config.seed = 7004;
  const Workload workload = BuildWorkload(config);
  QueryOptions query_options;
  query_options.epsilon = 0.1;

  const auto run_batches = [&](bool with_server) {
    EngineOptions options;
    options.num_threads = 2;
    options.listen_port = with_server ? 0 : -1;
    QueryEngine engine(workload.database.get(), options);
    if (with_server) {
      EXPECT_GT(engine.introspection_port(), 0);
    }
    return TimeNs([&] {
      for (int round = 0; round < 3; ++round) {
        auto futures = engine.SubmitBatch(workload.queries, query_options);
        for (auto& f : futures) {
          EXPECT_EQ(f.get().status, QueryStatus::kOk);
        }
      }
    });
  };

  const auto [without_server, with_server] = BestOfInterleaved(run_batches);
  EXPECT_LE(with_server, 2 * without_server)
      << "with=" << with_server << "ns without=" << without_server << "ns";
}

// The workload flight recorder runs on every query completion (one encode
// + one buffered framed write off the search hot path); target overhead is
// under 2% of end-to-end serving. The assertion bound is 2x — far above
// the target, but failing even that means the recorder landed on the hot
// path (per-point work or an fsync), not that the timer was noisy.
TEST(PerfSmokeTest, WorkloadRecorderHasBoundedServingOverhead) {
  WorkloadConfig config;
  config.kind = DataKind::kSynthetic;
  config.num_sequences = 100;
  config.min_length = 56;
  config.max_length = 192;
  config.num_queries = 16;
  config.seed = 7005;
  const Workload workload = BuildWorkload(config);
  QueryOptions query_options;
  query_options.epsilon = 0.1;

  const std::string log_path = "/tmp/mdseq_perf_smoke_workload.mdwl";
  const auto run_batches = [&](bool record) {
    EngineOptions options;
    options.num_threads = 2;
    if (record) options.workload_log_path = log_path;
    QueryEngine engine(workload.database.get(), options);
    return TimeNs([&] {
      for (int round = 0; round < 3; ++round) {
        auto futures = engine.SubmitBatch(workload.queries, query_options);
        for (auto& f : futures) {
          EXPECT_EQ(f.get().status, QueryStatus::kOk);
        }
      }
    });
  };

  const auto [recorder_off, recorder_on] = BestOfInterleaved(run_batches);
  std::remove(log_path.c_str());
  EXPECT_LE(recorder_on, 2 * recorder_off)
      << "on=" << recorder_on << "ns off=" << recorder_off << "ns";
}

// The serving QoS subsystem disabled (no cache, no tenant classes, no
// approximate budget) must cost nothing: the cache probe is one
// null-pointer test and the admission queue is the plain FIFO. Compare a
// default engine against one with the cache and tenant classes enabled on
// an all-miss workload (every query distinct per round via epsilon
// jitter, so the cache never hits and its bookkeeping is all overhead).
// Generous 2x bound — failing it means the QoS bookkeeping landed on the
// search hot path, not timer noise.
TEST(PerfSmokeTest, QosDisabledServingPathHasBoundedOverhead) {
  WorkloadConfig config;
  config.kind = DataKind::kSynthetic;
  config.num_sequences = 100;
  config.min_length = 56;
  config.max_length = 192;
  config.num_queries = 16;
  config.seed = 7007;
  const Workload workload = BuildWorkload(config);

  const auto run_batches = [&](bool qos) {
    EngineOptions options;
    options.num_threads = 2;
    if (qos) {
      options.cache_bytes = 4 << 20;
      options.tenant_classes = {{"gold", 2}, {"bronze", 1}};
    }
    QueryEngine engine(workload.database.get(), options);
    return TimeNs([&] {
      for (int round = 0; round < 3; ++round) {
        QueryOptions query_options;
        query_options.epsilon = 0.1 + 0.001 * round;  // all-miss rounds
        auto futures = engine.SubmitBatch(workload.queries, query_options);
        for (auto& f : futures) {
          EXPECT_EQ(f.get().status, QueryStatus::kOk);
        }
      }
    });
  };

  const auto [disabled, enabled_miss] = BestOfInterleaved(run_batches);
  EXPECT_LE(enabled_miss, 2 * disabled)
      << "enabled=" << enabled_miss << "ns disabled=" << disabled << "ns";
}

// With no trace attached, the distributed-tracing instrumentation must
// stay out of the way: every SpanScope inlines to a pointer test, shards
// skip span recording entirely (unsampled context), and responses carry no
// span payload. Generous 2x bound against the fully-traced run — if the
// untraced path costs more than tracing everything, the disabled gate is
// broken, not the timer.
TEST(PerfSmokeTest, TraceDisabledShardingPathHasBoundedOverhead) {
  WorkloadConfig config;
  config.kind = DataKind::kSynthetic;
  config.num_sequences = 80;
  config.min_length = 56;
  config.max_length = 192;
  config.num_queries = 8;
  config.seed = 7005;
  const Workload workload = BuildWorkload(config);
  const std::unique_ptr<ShardSet> set =
      ShardSet::BuildInMemory(*workload.database, 2, PlacementPolicy::kHash);
  LoopbackTransport transport(set->nodes());
  const Coordinator coordinator(&transport, set->placement());

  const auto run_rounds = [&](bool traced) {
    obs::Trace trace;
    SearchControl control;
    control.trace = traced ? &trace : nullptr;
    const int64_t ns = TimeNs([&] {
      for (int round = 0; round < 3; ++round) {
        for (const Sequence& query : workload.queries) {
          const SearchResult result =
              coordinator.SearchVerified(query.View(), 0.2, control);
          EXPECT_FALSE(result.interrupted);
        }
      }
    });
    EXPECT_EQ(trace.spans().empty(), !traced);
    return ns;
  };

  const auto [untraced_ns, traced_ns] = BestOfInterleaved(run_rounds);
  EXPECT_LE(untraced_ns, 2 * traced_ns)
      << "untraced=" << untraced_ns << "ns traced=" << traced_ns << "ns";
}

}  // namespace
}  // namespace mdseq
