// Scatter-gather serving (src/shard): placement, wire codec, and the
// coordinator's global query semantics.
//
// The load-bearing suites are the differentials: for every backend the
// sharded answer must be byte-identical to the single-database answer —
// same candidates, same matches, same distances, same intervals — across
// shard counts {1, 2, 4, 7}, both placement policies, and all three query
// kinds (Search, SearchVerified, and the distributed SearchNearest cutoff
// exchange). A concurrent suite appends into a live shard set while
// coordinator queries run (the tsan target), then re-checks equality at
// rest.
//
// Labels: `shard` and `tsan` (build with -DMDSEQ_SANITIZE=thread and run
// `ctest -L tsan`).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "eval/experiment.h"
#include "gen/walk.h"
#include "ingest/live_database.h"
#include "obs/http/server.h"
#include "obs/metrics.h"
#include "shard/coordinator.h"
#include "shard/message.h"
#include "shard/placement.h"
#include "shard/shard_node.h"
#include "shard/shard_set.h"
#include "shard/transport.h"
#include "storage/disk_database.h"
#include "util/random.h"

namespace mdseq {
namespace {

Workload SmallWorkload(uint64_t seed, size_t sequences = 90) {
  WorkloadConfig config;
  config.kind = DataKind::kSynthetic;
  config.num_sequences = sequences;
  config.min_length = 56;
  config.max_length = 200;
  config.num_queries = 6;
  config.seed = seed;
  return BuildWorkload(config);
}

void ExpectSameResult(const SearchResult& single, const SearchResult& sharded,
                      const char* what) {
  ASSERT_EQ(single.candidates.size(), sharded.candidates.size()) << what;
  for (size_t i = 0; i < single.candidates.size(); ++i) {
    EXPECT_EQ(single.candidates[i], sharded.candidates[i]) << what;
  }
  ASSERT_EQ(single.matches.size(), sharded.matches.size()) << what;
  for (size_t i = 0; i < single.matches.size(); ++i) {
    const SequenceMatch& a = single.matches[i];
    const SequenceMatch& b = sharded.matches[i];
    EXPECT_EQ(a.sequence_id, b.sequence_id) << what;
    EXPECT_EQ(a.min_dnorm, b.min_dnorm) << what << " id " << a.sequence_id;
    EXPECT_EQ(a.exact_distance, b.exact_distance)
        << what << " id " << a.sequence_id;
    ASSERT_EQ(a.solution_interval.size(), b.solution_interval.size())
        << what << " id " << a.sequence_id;
    for (size_t j = 0; j < a.solution_interval.size(); ++j) {
      EXPECT_EQ(a.solution_interval[j].begin, b.solution_interval[j].begin);
      EXPECT_EQ(a.solution_interval[j].end, b.solution_interval[j].end);
    }
  }
  EXPECT_FALSE(sharded.interrupted) << what;
}

void ExpectSameNearest(const std::vector<SequenceMatch>& single,
                       const std::vector<SequenceMatch>& sharded,
                       const char* what) {
  ASSERT_EQ(single.size(), sharded.size()) << what;
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].sequence_id, sharded[i].sequence_id) << what;
    EXPECT_EQ(single[i].exact_distance, sharded[i].exact_distance)
        << what << " rank " << i;
    EXPECT_EQ(single[i].min_dnorm, sharded[i].min_dnorm)
        << what << " rank " << i;
    ASSERT_EQ(single[i].solution_interval.size(),
              sharded[i].solution_interval.size())
        << what << " rank " << i;
    for (size_t j = 0; j < single[i].solution_interval.size(); ++j) {
      EXPECT_EQ(single[i].solution_interval[j].begin,
                sharded[i].solution_interval[j].begin);
      EXPECT_EQ(single[i].solution_interval[j].end,
                sharded[i].solution_interval[j].end);
    }
  }
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

TEST(PlacementTest, PureAndStable) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kHash, PlacementPolicy::kHilbert}) {
    for (uint64_t id = 0; id < 500; ++id) {
      const uint32_t shard = PlaceSequence(id, 7, policy);
      EXPECT_LT(shard, 7u);
      EXPECT_EQ(shard, PlaceSequence(id, 7, policy));
    }
  }
  // One shard is always shard 0.
  EXPECT_EQ(PlaceSequence(123, 1, PlacementPolicy::kHash), 0u);
  EXPECT_EQ(PlaceSequence(123, 1, PlacementPolicy::kHilbert), 0u);
}

TEST(PlacementTest, BothPoliciesBalanceDenseIds) {
  // Dense ids starting at 0 are the universal case (every database numbers
  // from zero); no shard may end up empty or hoarding.
  for (const PlacementPolicy policy :
       {PlacementPolicy::kHash, PlacementPolicy::kHilbert}) {
    constexpr size_t kCount = 4000;
    constexpr size_t kShards = 5;
    std::vector<size_t> sizes(kShards, 0);
    for (uint64_t id = 0; id < kCount; ++id) {
      ++sizes[PlaceSequence(id, kShards, policy)];
    }
    for (size_t shard = 0; shard < kShards; ++shard) {
      EXPECT_GT(sizes[shard], kCount / kShards / 2)
          << PlacementPolicyName(policy) << " shard " << shard;
      EXPECT_LT(sizes[shard], kCount * 2 / kShards)
          << PlacementPolicyName(policy) << " shard " << shard;
    }
  }
}

TEST(PlacementTest, MapRoundTripsAndRejectsUnknownIds) {
  const std::unique_ptr<ShardPlacement> placement =
      ShardPlacement::Build(300, 4, PlacementPolicy::kHash);
  EXPECT_EQ(placement->num_sequences(), 300u);
  size_t total = 0;
  for (uint32_t shard = 0; shard < 4; ++shard) {
    total += placement->shard_size(shard);
  }
  EXPECT_EQ(total, 300u);
  for (uint64_t id = 0; id < 300; ++id) {
    const uint32_t shard = placement->ShardOf(id);
    const uint64_t local = placement->LocalOf(id);
    EXPECT_EQ(placement->GlobalOf(shard, local), id);
  }
  // Unknown (shard, local) pairs translate to the invalid sentinel rather
  // than tripping a check — a lagging shard may answer with ids the
  // coordinator's placement has not registered.
  EXPECT_EQ(placement->GlobalOf(0, 1u << 20), ShardPlacement::kInvalidId);
  EXPECT_EQ(placement->GlobalOf(9, 0), ShardPlacement::kInvalidId);
}

TEST(PlacementTest, ParseNames) {
  PlacementPolicy policy;
  EXPECT_TRUE(ParsePlacementPolicy("hash", &policy));
  EXPECT_EQ(policy, PlacementPolicy::kHash);
  EXPECT_TRUE(ParsePlacementPolicy("hilbert", &policy));
  EXPECT_EQ(policy, PlacementPolicy::kHilbert);
  EXPECT_FALSE(ParsePlacementPolicy("range", &policy));
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(ShardCodecTest, RequestRoundTrip) {
  ShardRequest request;
  request.rpc = ShardRpc::kVerify;
  request.deadline_us = 12345;
  request.epsilon = 0.375;
  request.cutoff = 0.125;
  WalkOptions walk;
  walk.dim = 3;
  Rng rng(7);
  request.query = GenerateRandomWalk(41, walk, &rng);
  request.ids = {0, 5, 9, 1u << 30};

  ShardRequest decoded;
  ASSERT_TRUE(DecodeShardRequest(EncodeShardRequest(request), &decoded));
  EXPECT_EQ(decoded.rpc, ShardRpc::kVerify);
  EXPECT_EQ(decoded.deadline_us, 12345u);
  EXPECT_EQ(decoded.epsilon, 0.375);
  EXPECT_EQ(decoded.cutoff, 0.125);
  ASSERT_EQ(decoded.query.size(), request.query.size());
  ASSERT_EQ(decoded.query.dim(), 3u);
  for (size_t i = 0; i < request.query.size(); ++i) {
    for (size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(decoded.query[i][d], request.query[i][d]);
    }
  }
  EXPECT_EQ(decoded.ids, request.ids);
}

TEST(ShardCodecTest, ResponseRoundTrip) {
  ShardResponse response;
  response.ok = true;
  response.interrupted = true;
  response.num_sequences = 77;
  response.candidates = {1, 2, 40};
  ShardMatch match;
  match.local_id = 40;
  match.min_dnorm = 0.25;
  match.exact_distance = 0.5;
  match.intervals = {{3, 9}, {12, 30}};
  response.matches.push_back(match);
  response.stats.node_accesses = 11;
  response.stats.dnorm_evaluations = 42;
  response.stats.verify_ns = 9999;

  ShardResponse decoded;
  ASSERT_TRUE(DecodeShardResponse(EncodeShardResponse(response), &decoded));
  EXPECT_TRUE(decoded.ok);
  EXPECT_TRUE(decoded.interrupted);
  EXPECT_EQ(decoded.num_sequences, 77u);
  EXPECT_EQ(decoded.candidates, response.candidates);
  ASSERT_EQ(decoded.matches.size(), 1u);
  EXPECT_EQ(decoded.matches[0].local_id, 40u);
  EXPECT_EQ(decoded.matches[0].min_dnorm, 0.25);
  EXPECT_EQ(decoded.matches[0].exact_distance, 0.5);
  ASSERT_EQ(decoded.matches[0].intervals.size(), 2u);
  EXPECT_EQ(decoded.matches[0].intervals[1].end, 30u);
  EXPECT_EQ(decoded.stats.node_accesses, 11u);
  EXPECT_EQ(decoded.stats.dnorm_evaluations, 42u);
  EXPECT_EQ(decoded.stats.verify_ns, 9999u);
}

TEST(ShardCodecTest, EmptyQueryRoundTrip) {
  // A status request carries no query points: its `Doubles` field is empty,
  // which must decode without touching the (null) empty-vector buffer.
  ShardRequest request;
  request.rpc = ShardRpc::kStatus;
  request.query = Sequence(3);

  ShardRequest decoded;
  ASSERT_TRUE(DecodeShardRequest(EncodeShardRequest(request), &decoded));
  EXPECT_EQ(decoded.rpc, ShardRpc::kStatus);
  EXPECT_EQ(decoded.query.size(), 0u);
  EXPECT_EQ(decoded.query.dim(), 3u);
  EXPECT_TRUE(decoded.ids.empty());
}

TEST(ShardCodecTest, TruncatedAndCorruptPayloadsFailCleanly) {
  ShardRequest request;
  request.rpc = ShardRpc::kSearch;
  WalkOptions walk;
  walk.dim = 2;
  Rng rng(3);
  request.query = GenerateRandomWalk(20, walk, &rng);
  const std::string bytes = EncodeShardRequest(request);

  ShardRequest decoded;
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    EXPECT_FALSE(DecodeShardRequest(bytes.substr(0, cut), &decoded))
        << "cut at " << cut;
  }
  // Trailing garbage and a flipped magic must fail too.
  EXPECT_FALSE(DecodeShardRequest(bytes + "x", &decoded));
  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x40;
  EXPECT_FALSE(DecodeShardRequest(bad_magic, &decoded));

  ShardResponse ok_response;
  ok_response.ok = true;
  const std::string response_bytes = EncodeShardResponse(ok_response);
  ShardResponse decoded_response;
  for (size_t cut = 0; cut < response_bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeShardResponse(response_bytes.substr(0, cut),
                                     &decoded_response));
  }
}

// ---------------------------------------------------------------------------
// Differential: sharded == single database, every backend and policy
// ---------------------------------------------------------------------------

class ShardDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, PlacementPolicy>> {};

TEST_P(ShardDifferentialTest, InMemoryThresholdAndNearest) {
  const size_t num_shards = std::get<0>(GetParam());
  const PlacementPolicy policy = std::get<1>(GetParam());
  const Workload workload = SmallWorkload(17);
  SimilaritySearch single(workload.database.get());

  const std::unique_ptr<ShardSet> set =
      ShardSet::BuildInMemory(*workload.database, num_shards, policy);
  LoopbackTransport transport(set->nodes());
  Coordinator coordinator(&transport, set->placement());

  for (const Sequence& query : workload.queries) {
    for (const double epsilon : {0.05, 0.2, 0.6}) {
      ExpectSameResult(single.Search(query.View(), epsilon),
                       coordinator.Search(query.View(), epsilon), "Search");
      ExpectSameResult(single.SearchVerified(query.View(), epsilon),
                       coordinator.SearchVerified(query.View(), epsilon),
                       "SearchVerified");
    }
    for (const size_t k : {1u, 5u, 23u}) {
      ExpectSameNearest(single.SearchNearest(query.View(), k),
                        coordinator.SearchNearest(query.View(), k),
                        "SearchNearest");
    }
  }
}

TEST_P(ShardDifferentialTest, OnDiskRoundTrip) {
  const size_t num_shards = std::get<0>(GetParam());
  const PlacementPolicy policy = std::get<1>(GetParam());
  const Workload workload = SmallWorkload(29, 60);
  SimilaritySearch single(workload.database.get());

  const std::string dir = ::testing::TempDir() + "shard_set_" +
                          std::to_string(num_shards) + "_" +
                          PlacementPolicyName(policy);
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  ASSERT_TRUE(ShardSet::BuildOnDisk(*workload.database, dir, num_shards,
                                    policy));
  const std::unique_ptr<ShardSet> set = ShardSet::OpenOnDisk(dir, 64);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->num_shards(), num_shards);
  LoopbackTransport transport(set->nodes());
  Coordinator coordinator(&transport, set->placement());

  const Sequence& query = workload.queries.front();
  for (const double epsilon : {0.1, 0.4}) {
    ExpectSameResult(single.SearchVerified(query.View(), epsilon),
                     coordinator.SearchVerified(query.View(), epsilon),
                     "disk SearchVerified");
  }
  ExpectSameNearest(single.SearchNearest(query.View(), 7),
                    coordinator.SearchNearest(query.View(), 7),
                    "disk SearchNearest");
}

INSTANTIATE_TEST_SUITE_P(
    ShardCountsAndPolicies, ShardDifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Values(PlacementPolicy::kHash,
                                         PlacementPolicy::kHilbert)),
    [](const auto& info) {
      return std::string("N") + std::to_string(std::get<0>(info.param)) +
             "_" + PlacementPolicyName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// HTTP transport: differential over real sockets, keep-alive reuse
// ---------------------------------------------------------------------------

TEST(HttpShardTransportTest, DifferentialOverRealSocketsWithReuse) {
  const Workload workload = SmallWorkload(31, 50);
  SimilaritySearch single(workload.database.get());
  constexpr size_t kShards = 3;
  const std::unique_ptr<ShardSet> set = ShardSet::BuildInMemory(
      *workload.database, kShards, PlacementPolicy::kHash);

  std::vector<std::unique_ptr<obs::http::HttpServer>> servers;
  std::vector<HttpShardTransport::Endpoint> endpoints;
  for (size_t i = 0; i < kShards; ++i) {
    auto server = std::make_unique<obs::http::HttpServer>();
    set->node(i)->Register(server.get());
    ASSERT_TRUE(server->Start());
    endpoints.push_back({"127.0.0.1", server->port()});
    servers.push_back(std::move(server));
  }
  HttpShardTransport transport(endpoints);
  Coordinator coordinator(&transport, set->placement());

  const Sequence& query = workload.queries.front();
  ExpectSameResult(single.SearchVerified(query.View(), 0.3),
                   coordinator.SearchVerified(query.View(), 0.3),
                   "http SearchVerified");
  // The fan-out parked one keep-alive connection per shard; the next query
  // must reuse them instead of dialing fresh sockets.
  EXPECT_EQ(transport.idle_connections(), kShards);
  ExpectSameNearest(single.SearchNearest(query.View(), 5),
                    coordinator.SearchNearest(query.View(), 5),
                    "http SearchNearest");
  EXPECT_EQ(transport.idle_connections(), kShards);
}

TEST(HttpShardTransportTest, UnreachableShardIsATransportFailure) {
  // Nothing listens on the endpoint: Call must fail (not hang) and carry a
  // diagnostic.
  HttpShardTransport transport({{"127.0.0.1", 1}});
  ShardRequest request;
  request.rpc = ShardRpc::kStatus;
  request.deadline_us = 50 * 1000;
  ShardResponse response;
  EXPECT_FALSE(transport.Call(0, request, &response));
  EXPECT_FALSE(response.error.empty());
}

// ---------------------------------------------------------------------------
// Failure policies
// ---------------------------------------------------------------------------

/// Wraps a transport, failing every call to one shard.
class OneShardDown : public ShardTransport {
 public:
  OneShardDown(ShardTransport* inner, uint32_t down)
      : inner_(inner), down_(down) {}

  size_t num_shards() const override { return inner_->num_shards(); }
  bool Call(uint32_t shard, const ShardRequest& request,
            ShardResponse* response) override {
    if (shard == down_) {
      response->error = "injected outage";
      return false;
    }
    return inner_->Call(shard, request, response);
  }

 private:
  ShardTransport* inner_;
  uint32_t down_;
};

TEST(CoordinatorFailureTest, FailFastClosesTheQuery) {
  const Workload workload = SmallWorkload(43, 60);
  const std::unique_ptr<ShardSet> set =
      ShardSet::BuildInMemory(*workload.database, 4, PlacementPolicy::kHash);
  LoopbackTransport loopback(set->nodes());
  OneShardDown transport(&loopback, 2);
  Coordinator coordinator(&transport, set->placement());  // default failfast

  const SearchResult result =
      coordinator.SearchVerified(workload.queries.front().View(), 0.4);
  EXPECT_TRUE(result.interrupted);
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_TRUE(result.matches.empty());
  EXPECT_EQ(result.stats.shards_total, 4u);
  EXPECT_EQ(result.stats.shards_failed, 1u);
}

TEST(CoordinatorFailureTest, DegradedReturnsSurvivingShardsAndFlagsCoverage) {
  const Workload workload = SmallWorkload(43, 60);
  SimilaritySearch single(workload.database.get());
  const std::unique_ptr<ShardSet> set =
      ShardSet::BuildInMemory(*workload.database, 4, PlacementPolicy::kHash);
  LoopbackTransport loopback(set->nodes());
  OneShardDown transport(&loopback, 2);
  CoordinatorOptions options;
  options.failure = CoordinatorOptions::FailurePolicy::kDegraded;
  Coordinator coordinator(&transport, set->placement(), options);

  const Sequence& query = workload.queries.front();
  const SearchResult full = single.SearchVerified(query.View(), 0.4);
  const SearchResult partial = coordinator.SearchVerified(query.View(), 0.4);
  EXPECT_FALSE(partial.interrupted);
  EXPECT_EQ(partial.stats.shards_failed, 1u);
  // Every returned match is correct (a subset of the full answer), and no
  // match from a surviving shard is missing.
  std::set<size_t> full_ids;
  for (const SequenceMatch& m : full.matches) full_ids.insert(m.sequence_id);
  size_t surviving = 0;
  for (const SequenceMatch& m : partial.matches) {
    EXPECT_TRUE(full_ids.count(m.sequence_id)) << m.sequence_id;
    EXPECT_NE(set->placement()->ShardOf(m.sequence_id), 2u);
  }
  for (const SequenceMatch& m : full.matches) {
    if (set->placement()->ShardOf(m.sequence_id) != 2) ++surviving;
  }
  EXPECT_EQ(partial.matches.size(), surviving);
}

// ---------------------------------------------------------------------------
// Engine + introspection integration
// ---------------------------------------------------------------------------

TEST(ShardEngineTest, CoordinatorModeServesQueriesAndMetrics) {
  const Workload workload = SmallWorkload(59, 60);
  SimilaritySearch single(workload.database.get());
  const std::unique_ptr<ShardSet> set =
      ShardSet::BuildInMemory(*workload.database, 3, PlacementPolicy::kHash);
  LoopbackTransport transport(set->nodes());
  Coordinator coordinator(&transport, set->placement());

  obs::MetricsRegistry registry;
  EngineOptions options;
  options.num_threads = 2;
  options.metrics = &registry;
  QueryEngine engine(&coordinator, options);
  EXPECT_EQ(engine.coordinator(), &coordinator);

  QueryOptions query_options;
  query_options.epsilon = 0.3;
  query_options.verified = true;
  const Sequence& query = workload.queries.front();
  QueryOutcome outcome =
      engine.Submit(Sequence(query), query_options).get();
  ASSERT_EQ(outcome.status, QueryStatus::kOk);
  ExpectSameResult(single.SearchVerified(query.View(), 0.3), outcome.result,
                   "engine coordinator query");
  EXPECT_EQ(outcome.result.stats.shards_total, 3u);
  EXPECT_EQ(outcome.result.stats.shards_failed, 0u);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_GT(stats.fanout_wait_ns, 0u);

  const std::string metrics = registry.PrometheusText();
  EXPECT_NE(metrics.find("mdseq_shard_rpcs_total"), std::string::npos);
  EXPECT_NE(metrics.find("mdseq_shard_count 3"), std::string::npos);
  engine.Shutdown();
}

TEST(ShardEngineTest, DebugJsonReportsEveryShard) {
  const Workload workload = SmallWorkload(61, 40);
  const std::unique_ptr<ShardSet> set =
      ShardSet::BuildInMemory(*workload.database, 2, PlacementPolicy::kHash);
  LoopbackTransport transport(set->nodes());
  Coordinator coordinator(&transport, set->placement());
  const std::string json = coordinator.DebugJson();
  EXPECT_NE(json.find("\"num_shards\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"placement\":\"hash\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard\":1"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Concurrent ingestion into a live shard set
// ---------------------------------------------------------------------------

TEST(ShardLiveTest, QueriesRaceAppendsThenMatchAtRest) {
  const std::string dir = ::testing::TempDir() + "shard_live";
  ASSERT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()),
            0);
  constexpr size_t kDim = 2;
  constexpr size_t kInitial = 24;
  constexpr size_t kAppended = 40;
  const std::unique_ptr<ShardSet> set =
      ShardSet::CreateLive(dir, kDim, 3, PlacementPolicy::kHash);
  ASSERT_NE(set, nullptr);

  WalkOptions walk;
  walk.dim = kDim;
  Rng rng(97);
  std::vector<Sequence> corpus;
  for (size_t i = 0; i < kInitial + kAppended; ++i) {
    corpus.push_back(GenerateRandomWalk(
        static_cast<size_t>(rng.UniformInt(40, 120)), walk, &rng));
  }
  for (size_t i = 0; i < kInitial; ++i) {
    ASSERT_EQ(set->AppendLive(corpus[i]), i);
  }

  LoopbackTransport transport(set->nodes());
  Coordinator coordinator(&transport, set->placement());
  const Sequence query = GenerateRandomWalk(60, walk, &rng);

  // One writer appends the tail of the corpus (all shards, single ingest
  // writer) while reader threads hammer threshold + top-k queries. Every
  // mid-flight result must be internally consistent: translated ids only,
  // matches sorted ascending, distances within the threshold.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (size_t i = kInitial; i < kInitial + kAppended; ++i) {
      ASSERT_EQ(set->AppendLive(corpus[i]), i);
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const SearchResult result =
            coordinator.SearchVerified(query.View(), 0.5);
        EXPECT_FALSE(result.interrupted);
        for (size_t i = 1; i < result.matches.size(); ++i) {
          EXPECT_LT(result.matches[i - 1].sequence_id,
                    result.matches[i].sequence_id);
        }
        for (const SequenceMatch& m : result.matches) {
          EXPECT_LT(m.sequence_id, kInitial + kAppended);
          EXPECT_LE(m.exact_distance, 0.5);
        }
        const std::vector<SequenceMatch> nearest =
            coordinator.SearchNearest(query.View(), 5);
        EXPECT_LE(nearest.size(), 5u);
        for (size_t i = 1; i < nearest.size(); ++i) {
          EXPECT_LE(nearest[i - 1].exact_distance, nearest[i].exact_distance);
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // At rest the sharded answers must be byte-identical to a single live
  // database holding the same sequences in the same order.
  const std::string single_path = dir + "/single.mdseq";
  ASSERT_TRUE(LiveDatabase::Create(single_path, kDim));
  LiveDatabase single(single_path);
  ASSERT_TRUE(single.valid());
  for (const Sequence& s : corpus) {
    const uint64_t id = single.BeginSequence();
    ASSERT_TRUE(single.AppendPoints(id, s.View()));
    ASSERT_TRUE(single.SealSequence(id));
  }
  ASSERT_TRUE(single.Commit());
  ExpectSameResult(single.SearchVerified(query.View(), 0.5),
                   coordinator.SearchVerified(query.View(), 0.5),
                   "live at rest");
}

}  // namespace
}  // namespace mdseq
