// Tests for the observability layer (src/obs): the metrics registry and its
// Prometheus/JSON exposition, per-query span traces and their Chrome
// trace_event export, the bounded sharded trace store, the JSON validator,
// and the EXPLAIN path — including the contract that an EXPLAIN report is
// consistent with the engine's own SearchStats by construction.
//
// The binary carries the `tsan` ctest label (registry and trace-store
// writers are exercised from many threads); build with
// -DMDSEQ_SANITIZE=thread and run `ctest -L tsan`.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/search.h"
#include "engine/query_engine.h"
#include "gen/fractal.h"
#include "gen/query_workload.h"
#include "obs/explain.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace mdseq {
namespace {

// ---------------------------------------------------------------------------
// JSON validator
// ---------------------------------------------------------------------------

TEST(JsonTest, AcceptsValidDocuments) {
  EXPECT_TRUE(obs::JsonValidate("{}"));
  EXPECT_TRUE(obs::JsonValidate("[]"));
  EXPECT_TRUE(obs::JsonValidate("  {\"a\": [1, 2.5, -3e8], \"b\": null, "
                                "\"c\": {\"d\": true, \"e\": \"x\\n\"}} "));
  EXPECT_TRUE(obs::JsonValidate("\"just a string\""));
  EXPECT_TRUE(obs::JsonValidate("-0.125"));
}

TEST(JsonTest, RejectsInvalidDocuments) {
  EXPECT_FALSE(obs::JsonValidate(""));
  EXPECT_FALSE(obs::JsonValidate("{"));
  EXPECT_FALSE(obs::JsonValidate("{\"a\": }"));
  EXPECT_FALSE(obs::JsonValidate("{\"a\": 1,}"));
  EXPECT_FALSE(obs::JsonValidate("[1 2]"));
  EXPECT_FALSE(obs::JsonValidate("{} trailing"));
  EXPECT_FALSE(obs::JsonValidate("{'a': 1}"));  // single quotes
  EXPECT_FALSE(obs::JsonValidate("nul"));
}

TEST(JsonTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(obs::JsonQuote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  // The escaped form must itself be valid JSON.
  EXPECT_TRUE(obs::JsonValidate(obs::JsonQuote(std::string("\x01\t\x1f"))));
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c_total", "help");
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42u);

  obs::Gauge* gauge = registry.GetGauge("g");
  gauge->Set(2.5);
  gauge->Add(-0.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.0);

  obs::Histogram* hist =
      registry.GetHistogram("h", "help", {1.0, 2.0, 5.0});
  hist->Observe(0.5);   // bucket 0 (le 1)
  hist->Observe(2.0);   // bucket 1 (le 2, inclusive upper bound)
  hist->Observe(100.0);  // +Inf bucket
  EXPECT_EQ(hist->count(), 3u);
  EXPECT_DOUBLE_EQ(hist->sum(), 102.5);
  EXPECT_EQ(hist->bucket_count(0), 1u);
  EXPECT_EQ(hist->bucket_count(1), 1u);
  EXPECT_EQ(hist->bucket_count(2), 0u);
  EXPECT_EQ(hist->bucket_count(3), 1u);  // +Inf
}

TEST(MetricsTest, ReRegistrationReturnsTheSameHandle) {
  obs::MetricsRegistry registry;
  obs::Counter* first = registry.GetCounter("shared_total", "first help");
  obs::Counter* second = registry.GetCounter("shared_total", "other help");
  EXPECT_EQ(first, second);
  first->Increment();
  EXPECT_EQ(second->value(), 1u);
}

TEST(MetricsTest, ValidatesPrometheusNames) {
  EXPECT_TRUE(obs::MetricsRegistry::ValidName("mdseq_queries_total"));
  EXPECT_TRUE(obs::MetricsRegistry::ValidName("a:b_c9"));
  EXPECT_TRUE(obs::MetricsRegistry::ValidName("_x"));
  EXPECT_FALSE(obs::MetricsRegistry::ValidName(""));
  EXPECT_FALSE(obs::MetricsRegistry::ValidName("9abc"));
  EXPECT_FALSE(obs::MetricsRegistry::ValidName("has-dash"));
  EXPECT_FALSE(obs::MetricsRegistry::ValidName("has space"));
}

// Exact-total contract the engine relies on: concurrent relaxed increments
// lose nothing once the writers join.
TEST(MetricsTest, ConcurrentWritersProduceExactTotals) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread resolves the same names — registration is also part
      // of the concurrency surface.
      obs::Counter* counter = registry.GetCounter("hits_total");
      obs::Gauge* gauge = registry.GetGauge("g");
      obs::Histogram* hist = registry.GetHistogram("h", "", {10.0, 100.0});
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Add(1.0);
        hist->Observe(static_cast<double>(i % 200));
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t total =
      static_cast<uint64_t>(kThreads) * static_cast<uint64_t>(kPerThread);
  EXPECT_EQ(registry.GetCounter("hits_total")->value(), total);
  EXPECT_DOUBLE_EQ(registry.GetGauge("g")->value(),
                   static_cast<double>(total));
  EXPECT_EQ(registry.GetHistogram("h", "", {})->count(), total);
}

TEST(MetricsTest, PrometheusTextGoldenFormat) {
  obs::MetricsRegistry registry;
  registry.GetCounter("b_total", "counts things")->Increment(3);
  registry.GetGauge("a_gauge", "a level")->Set(1.5);
  obs::Histogram* hist = registry.GetHistogram("lat_seconds", "latency",
                                               {0.25, 1.0});
  // Exactly representable doubles, so the sum round-trips verbatim.
  hist->Observe(0.125);
  hist->Observe(0.125);
  hist->Observe(7.0);
  // Name-ordered, cumulative buckets, +Inf == _count.
  const std::string expected =
      "# HELP a_gauge a level\n"
      "# TYPE a_gauge gauge\n"
      "a_gauge 1.5\n"
      "# HELP b_total counts things\n"
      "# TYPE b_total counter\n"
      "b_total 3\n"
      "# HELP lat_seconds latency\n"
      "# TYPE lat_seconds histogram\n"
      "lat_seconds_bucket{le=\"0.25\"} 2\n"
      "lat_seconds_bucket{le=\"1\"} 2\n"
      "lat_seconds_bucket{le=\"+Inf\"} 3\n"
      "lat_seconds_sum 7.25\n"
      "lat_seconds_count 3\n";
  EXPECT_EQ(registry.PrometheusText(), expected);
}

TEST(MetricsTest, JsonTextIsValidAndComplete) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c_total")->Increment(7);
  registry.GetGauge("g")->Set(-2.25);
  registry.GetHistogram("h", "", {1.0})->Observe(0.5);
  const std::string json = registry.JsonText();
  std::string error;
  EXPECT_TRUE(obs::JsonValidate(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"g\""), std::string::npos);
  EXPECT_NE(json.find("\"h\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"histogram\""), std::string::npos);
}

TEST(MetricsTest, DefaultLatencyBoundsAreAscending) {
  const std::vector<double> bounds = obs::DefaultLatencyBoundsSeconds();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// Prometheus requires histogram buckets to be cumulative and the +Inf
// bucket to equal _count. Parse the rendered text and check, rather than
// trusting the writer.
TEST(MetricsTest, HistogramBucketsAreCumulativeThroughInf) {
  obs::MetricsRegistry registry;
  obs::Histogram* hist = registry.GetHistogram("cum", "", {1.0, 5.0, 25.0});
  for (int i = 0; i < 50; ++i) hist->Observe(static_cast<double>(i));
  const std::string text = registry.PrometheusText();

  std::vector<uint64_t> counts;
  size_t pos = 0;
  while ((pos = text.find("cum_bucket{le=\"", pos)) != std::string::npos) {
    const size_t value_pos = text.find("} ", pos);
    ASSERT_NE(value_pos, std::string::npos);
    counts.push_back(
        std::strtoull(text.c_str() + value_pos + 2, nullptr, 10));
    pos = value_pos;
  }
  ASSERT_EQ(counts.size(), 4u);  // three finite bounds plus +Inf
  // Observed 0..49 with inclusive upper bounds: le=1 holds {0,1}, le=5
  // holds {0..5}, le=25 holds {0..25}, +Inf holds all 50.
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 6u);
  EXPECT_EQ(counts[2], 26u);
  EXPECT_EQ(counts[3], 50u);
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], counts[i - 1]);
  }
  EXPECT_EQ(counts.back(), hist->count());
  EXPECT_NE(text.find("cum_bucket{le=\"+Inf\"} 50"), std::string::npos);
}

TEST(MetricsTest, EscapesLabelValues) {
  EXPECT_EQ(obs::MetricsRegistry::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::MetricsRegistry::EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::MetricsRegistry::EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::MetricsRegistry::EscapeLabelValue("a\nb"), "a\\nb");

  obs::MetricsRegistry registry;
  registry
      .GetCounter("odd_total", "help",
                  obs::Labels{{"path", "a\"b\\c\nd"}})
      ->Increment();
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("odd_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
}

TEST(MetricsTest, LabeledMetricsRenderTheirSuffix) {
  obs::MetricsRegistry registry;
  registry
      .GetGauge("tagged", "help",
                obs::Labels{{"shard", "3"}, {"kind", "x"}})
      ->Set(2.5);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("tagged{shard=\"3\",kind=\"x\"} 2.5"),
            std::string::npos)
      << text;
  // JSON exposition carries the labels too, and stays valid.
  const std::string json = registry.JsonText();
  std::string error;
  EXPECT_TRUE(obs::JsonValidate(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"shard\": \"3\""), std::string::npos);
}

TEST(MetricsTest, RegisterBuildInfoExportsTheIdiomaticGauge) {
  obs::MetricsRegistry registry;
  obs::RegisterBuildInfo(&registry);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE mdseq_build_info gauge"), std::string::npos);
  EXPECT_NE(text.find("mdseq_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find("build_type=\""), std::string::npos);
  EXPECT_NE(text.find("\"} 1\n"), std::string::npos);
  // Idempotent: a second call reuses the registration.
  obs::RegisterBuildInfo(&registry);
  EXPECT_EQ(registry.PrometheusText(), text);
}

// ---------------------------------------------------------------------------
// Trace / SpanScope / TraceStore
// ---------------------------------------------------------------------------

TEST(TraceTest, SpansNestAndOrder) {
  obs::Trace trace;
  {
    obs::SpanScope outer(&trace, "outer");
    outer.Arg("k", 7);
    {
      obs::SpanScope inner(&trace, "inner");
      obs::SpanScope innermost(&trace, "innermost");
    }
    obs::SpanScope sibling(&trace, "sibling");
  }
  const std::vector<obs::TraceSpan>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Begin order is a pre-order walk.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_STREQ(spans[2].name, "innermost");
  EXPECT_STREQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].depth, 2u);
  EXPECT_EQ(spans[3].depth, 1u);
  // Children begin and end inside their parent.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns, spans[0].start_ns);
    EXPECT_LE(spans[i].end_ns, spans[0].end_ns);
  }
  EXPECT_LE(spans[1].start_ns, spans[2].start_ns);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_STREQ(spans[0].args[0].first, "k");
  EXPECT_EQ(spans[0].args[0].second, 7u);
}

TEST(TraceTest, NullTraceIsANoOp) {
  // The zero-cost-when-disabled contract: SpanScope over a null trace does
  // nothing (and must not crash).
  obs::SpanScope scope(nullptr, "ignored");
  scope.Arg("ignored", 1);
}

TEST(TraceTest, ChromeTraceJsonIsValidAndRebased) {
  obs::Trace trace;
  trace.set_query_id(9);
  {
    obs::SpanScope root(&trace, "query");
    obs::SpanScope child(&trace, "partition");
  }
  std::vector<obs::Trace> traces;
  traces.push_back(std::move(trace));
  const std::string json = obs::ChromeTraceJson(traces);
  std::string error;
  EXPECT_TRUE(obs::JsonValidate(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"partition\""), std::string::npos);
  EXPECT_NE(json.find("\"query_id\": 9"), std::string::npos);
  // Rebased: the earliest event starts at ts 0.
  EXPECT_NE(json.find("\"ts\": 0.000"), std::string::npos);
}

TEST(TraceStoreTest, ConcurrentAddThenTakeKeepsEverythingUnderCapacity) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  obs::TraceStore store(kThreads * kPerThread, kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::Trace trace;
        { obs::SpanScope span(&trace, "work"); }
        store.Add(std::move(trace));
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<obs::Trace> taken = store.Take();
  // Capacity is sliced per shard, so a perfectly balanced load fits in
  // full; threads hash to shards unevenly, so allow drops but require the
  // accounting to be exact.
  EXPECT_EQ(taken.size() + store.dropped(),
            static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_TRUE(store.Take().empty());  // drained
}

TEST(TraceStoreTest, DropsWhenFullAndCounts) {
  obs::TraceStore store(2, 1);  // one shard, two slots
  for (int i = 0; i < 5; ++i) store.Add(obs::Trace());
  EXPECT_EQ(store.Take().size(), 2u);
  EXPECT_EQ(store.dropped(), 3u);
}

// The store is a ring: a full shard evicts its OLDEST trace, so the most
// recent queries are the ones still inspectable via /debug/trace.
TEST(TraceStoreTest, FullShardEvictsOldestKeepsNewest) {
  obs::TraceStore store(4, 1);
  for (uint64_t id = 1; id <= 10; ++id) {
    obs::Trace trace;
    trace.set_query_id(id);
    const bool dropped = store.Add(std::move(trace));
    EXPECT_EQ(dropped, id > 4);  // eviction starts once the ring is full
  }
  EXPECT_EQ(store.dropped(), 6u);
  const std::vector<obs::Trace> kept = store.Take();
  ASSERT_EQ(kept.size(), 4u);
  std::vector<bool> seen(11, false);
  for (const obs::Trace& trace : kept) seen[trace.query_id()] = true;
  for (uint64_t id = 7; id <= 10; ++id) {
    EXPECT_TRUE(seen[id]) << "newest trace " << id << " was evicted";
  }
}

TEST(TraceStoreTest, SnapshotByIdDoesNotDrain) {
  obs::TraceStore store(16, 2);
  for (uint64_t id : {1u, 2u, 2u, 3u}) {
    obs::Trace trace;
    trace.set_query_id(id);
    { obs::SpanScope span(&trace, "work"); }
    store.Add(std::move(trace));
  }
  EXPECT_EQ(store.Snapshot(2).size(), 2u);
  EXPECT_EQ(store.Snapshot(99).size(), 0u);
  // Snapshot copied; Take still drains everything.
  EXPECT_EQ(store.Take().size(), 4u);
  EXPECT_TRUE(store.Take().empty());
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

// A small indexed database plus one query drawn from it.
struct ExplainFixture {
  SequenceDatabase database{3};
  Sequence query{3};

  ExplainFixture() {
    Rng rng(7);
    std::vector<Sequence> corpus;
    for (int i = 0; i < 40; ++i) {
      corpus.push_back(GenerateFractalSequence(
          64 + static_cast<size_t>(rng.UniformInt(0, 128)), FractalOptions(),
          &rng));
    }
    for (const Sequence& s : corpus) database.Add(s);
    query = DrawQueries(corpus, 1, QueryWorkloadOptions(), &rng).front();
  }
};

TEST(ExplainTest, StatsAreConsistentWithSearchStats) {
  ExplainFixture fixture;
  const double epsilon = 0.25;
  SimilaritySearch engine(&fixture.database);

  obs::Trace trace;
  SearchControl control;
  control.trace = &trace;
  const SearchResult result =
      engine.Search(fixture.query.View(), epsilon, control);

  const obs::ExplainStats stats = ToExplainStats(
      result, fixture.query.size(), fixture.database.dim(), epsilon,
      /*verified=*/false, /*disk=*/false,
      fixture.database.num_sequences());

  // Every EXPLAIN number is the corresponding SearchStats number.
  EXPECT_EQ(stats.query_mbrs, result.stats.query_mbrs);
  EXPECT_EQ(stats.phase2_candidates, result.stats.phase2_candidates);
  EXPECT_EQ(stats.phase3_matches, result.stats.filter_matches);
  EXPECT_EQ(stats.node_accesses, result.stats.node_accesses);
  EXPECT_EQ(stats.dnorm_evaluations, result.stats.dnorm_evaluations);
  EXPECT_EQ(stats.partition_ns, result.stats.partition_ns);
  EXPECT_EQ(stats.first_pruning_ns, result.stats.first_pruning_ns);
  EXPECT_EQ(stats.second_pruning_ns, result.stats.second_pruning_ns);
  EXPECT_EQ(stats.interval_assembly_ns, result.stats.interval_assembly_ns);
  EXPECT_EQ(stats.TotalNs(), result.stats.TotalPhaseNs());

  // Phase clocks actually ran, and the sub-slice stays inside its phase.
  EXPECT_GT(stats.partition_ns, 0u);
  EXPECT_GT(stats.first_pruning_ns, 0u);
  EXPECT_GT(stats.second_pruning_ns, 0u);
  EXPECT_LE(stats.interval_assembly_ns, stats.second_pruning_ns);

  // Funnel shape: candidates never grow across phases.
  EXPECT_LE(stats.phase2_candidates, stats.database_sequences);
  EXPECT_LE(stats.phase3_matches, stats.phase2_candidates);

  // The trace covers all three phases with correctly nested spans.
  bool saw_partition = false;
  bool saw_first = false;
  bool saw_second = false;
  for (const obs::TraceSpan& span : trace.spans()) {
    ASSERT_GE(span.end_ns, span.start_ns);
    const std::string name = span.name;
    saw_partition |= name == "partition";
    saw_first |= name == "range_search";
    saw_second |= name == "second_pruning";
  }
  EXPECT_TRUE(saw_partition);
  EXPECT_TRUE(saw_first);
  EXPECT_TRUE(saw_second);
}

TEST(ExplainTest, VerifiedSearchFillsRefinementFields) {
  ExplainFixture fixture;
  const double epsilon = 0.25;
  SimilaritySearch engine(&fixture.database);
  const SearchResult result =
      engine.SearchVerified(fixture.query.View(), epsilon);
  const obs::ExplainStats stats = ToExplainStats(
      result, fixture.query.size(), fixture.database.dim(), epsilon,
      /*verified=*/true, /*disk=*/false, fixture.database.num_sequences());
  EXPECT_TRUE(stats.verified);
  // filter_matches is |ASnorm| before refinement; verification only drops.
  EXPECT_EQ(stats.phase3_matches, result.stats.filter_matches);
  EXPECT_EQ(stats.verified_matches, result.stats.phase3_matches);
  EXPECT_LE(stats.verified_matches, stats.phase3_matches);
  EXPECT_EQ(stats.verified_matches, result.matches.size());
}

TEST(ExplainTest, ReportAndJsonRender) {
  ExplainFixture fixture;
  SimilaritySearch engine(&fixture.database);
  const SearchResult result = engine.Search(fixture.query.View(), 0.25);
  const obs::ExplainStats stats = ToExplainStats(
      result, fixture.query.size(), fixture.database.dim(), 0.25,
      /*verified=*/false, /*disk=*/false, fixture.database.num_sequences());

  const std::string report = obs::RenderExplainReport(stats);
  EXPECT_NE(report.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(report.find("phase 1: partition"), std::string::npos);
  EXPECT_NE(report.find("phase 2: first pruning"), std::string::npos);
  EXPECT_NE(report.find("phase 3: second pruning"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);

  const std::string json = obs::ExplainJson(stats);
  std::string error;
  EXPECT_TRUE(obs::JsonValidate(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"phase2_candidates\""), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

TEST(EngineObsTest, RegistryMatchesEngineStatsExactly) {
  ExplainFixture fixture;
  Rng rng(11);
  std::vector<Sequence> corpus;
  for (size_t id = 0; id < fixture.database.num_sequences(); ++id) {
    corpus.push_back(fixture.database.sequence(id));
  }
  std::vector<Sequence> queries =
      DrawQueries(corpus, 24, QueryWorkloadOptions(), &rng);

  obs::MetricsRegistry registry;
  EngineOptions options;
  options.num_threads = 4;
  options.metrics = &registry;
  options.trace_capacity = 64;
  QueryEngine engine(&fixture.database, options);

  QueryOptions query_options;
  query_options.epsilon = 0.2;
  auto futures = engine.SubmitBatch(std::move(queries), query_options);
  for (auto& f : futures) f.get();
  engine.Shutdown();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 24u);
  EXPECT_EQ(stats.served, 24u);
  // One source of truth: the registry's counters equal the engine's own
  // atomics, query for query.
  EXPECT_EQ(registry.GetCounter("mdseq_queries_submitted_total")->value(),
            stats.submitted);
  EXPECT_EQ(registry.GetCounter("mdseq_queries_served_total")->value(),
            stats.served);
  EXPECT_EQ(registry.GetCounter("mdseq_index_node_accesses_total")->value(),
            stats.node_accesses);
  EXPECT_EQ(registry.GetCounter("mdseq_phase2_candidates_total")->value(),
            stats.phase2_candidates);
  EXPECT_EQ(registry.GetCounter("mdseq_phase3_matches_total")->value(),
            stats.phase3_matches);
  EXPECT_EQ(registry.GetCounter("mdseq_dnorm_evaluations_total")->value(),
            stats.dnorm_evaluations);
  EXPECT_EQ(registry.GetCounter("mdseq_phase_partition_ns_total")->value(),
            stats.partition_ns);
  EXPECT_EQ(
      registry.GetCounter("mdseq_phase_first_pruning_ns_total")->value(),
      stats.first_pruning_ns);
  EXPECT_EQ(
      registry.GetCounter("mdseq_phase_second_pruning_ns_total")->value(),
      stats.second_pruning_ns);
  EXPECT_EQ(registry
                .GetHistogram("mdseq_query_latency_seconds", "",
                              obs::DefaultLatencyBoundsSeconds())
                ->count(),
            stats.served);
  EXPECT_GT(stats.partition_ns, 0u);
  EXPECT_GT(stats.first_pruning_ns, 0u);
  EXPECT_GT(stats.second_pruning_ns, 0u);

  // Exposition of the live registry is well-formed.
  std::string error;
  EXPECT_TRUE(obs::JsonValidate(registry.JsonText(), &error)) << error;
  EXPECT_NE(registry.PrometheusText().find("# TYPE"), std::string::npos);
}

TEST(EngineObsTest, CollectsOneTracePerServedQuery) {
  ExplainFixture fixture;
  Rng rng(13);
  std::vector<Sequence> corpus;
  for (size_t id = 0; id < fixture.database.num_sequences(); ++id) {
    corpus.push_back(fixture.database.sequence(id));
  }
  std::vector<Sequence> queries =
      DrawQueries(corpus, 12, QueryWorkloadOptions(), &rng);

  EngineOptions options;
  options.num_threads = 3;
  options.trace_capacity = 1024;  // roomy: no shard should drop
  QueryEngine engine(&fixture.database, options);
  QueryOptions query_options;
  query_options.epsilon = 0.2;
  auto futures = engine.SubmitBatch(std::move(queries), query_options);
  for (auto& f : futures) f.get();
  engine.Shutdown();

  const std::vector<obs::Trace> traces = engine.TakeTraces();
  EXPECT_EQ(traces.size() + engine.stats().traces_dropped, 12u);
  std::vector<bool> seen(13, false);
  for (const obs::Trace& trace : traces) {
    ASSERT_FALSE(trace.spans().empty());
    EXPECT_STREQ(trace.spans().front().name, "query");
    EXPECT_EQ(trace.spans().front().depth, 0u);
    ASSERT_GE(trace.query_id(), 1u);
    ASSERT_LE(trace.query_id(), 12u);
    EXPECT_FALSE(seen[trace.query_id()]);  // ids are distinct
    seen[trace.query_id()] = true;
  }
  // The batch renders to loadable Chrome trace JSON.
  std::string error;
  EXPECT_TRUE(obs::JsonValidate(obs::ChromeTraceJson(traces), &error))
      << error;
}

TEST(EngineObsTest, TracingOffMeansNoTraces) {
  ExplainFixture fixture;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  QueryEngine engine(&fixture.database, engine_options);
  QueryOptions query_options;
  query_options.epsilon = 0.2;
  auto future = engine.Submit(fixture.query, query_options);
  EXPECT_EQ(future.get().status, QueryStatus::kOk);
  engine.Shutdown();
  EXPECT_TRUE(engine.TakeTraces().empty());
  EXPECT_EQ(engine.stats().traces_dropped, 0u);
}

}  // namespace
}  // namespace mdseq
