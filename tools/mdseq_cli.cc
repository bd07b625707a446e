// mdseq_cli — command-line front end for the library.
//
// Subcommands:
//   gen     generate a corpus file
//             mdseq_cli gen --kind=synthetic|video|walk --count=100
//                           [--min_len=56 --max_len=512 --seed=42]
//                           --out=corpus.mdsq
//   info    summarize a corpus file
//             mdseq_cli info --corpus=corpus.mdsq
//   export  dump one sequence as CSV (e.g. for plotting or as a query)
//             mdseq_cli export --corpus=corpus.mdsq --id=7 --out=seq.csv
//   query   range query: load the corpus, index it, search
//             mdseq_cli query --corpus=corpus.mdsq --query=seq.csv
//                             --eps=0.1 [--filter-only] [--max_rows=20]
//   topk    k-nearest query
//             mdseq_cli topk --corpus=corpus.mdsq --query=seq.csv --k=5
//   builddb build a disk-resident database (paged index + sequence store)
//             mdseq_cli builddb --corpus=corpus.mdsq --out=corpus.db
//   querydb range query against a disk database, reporting page I/O
//             mdseq_cli querydb --db=corpus.db --query=seq.csv --eps=0.1
//                               [--pool=256] [--filter-only] [--max_rows=20]
//   explain run one query and print an EXPLAIN-style per-phase report
//             mdseq_cli explain --corpus=corpus.mdsq | --db=corpus.db
//                               --query=seq.csv [--eps=0.1 --verified
//                               --pool=256 --json --trace-out=trace.json
//                               --shards=0 --placement=hash|hilbert]
//             --json prints the report as one JSON object; --trace-out
//             writes the query's span trace as Chrome trace_event JSON
//             (load in Perfetto or chrome://tracing). --shards=N (requires
//             --corpus) splits the corpus into N in-memory shards and runs
//             the query through the scatter-gather coordinator instead:
//             the report gains the fan-out summary and the per-shard
//             pruning-cascade table, and the trace gains the stitched
//             shard spans (one track per shard).
//   ingest  stream a corpus into a live (WAL-backed) database
//             mdseq_cli ingest --db=live.db --corpus=corpus.mdsq
//                              [--create --pool=256 --commit-every=8
//                               --checkpoint-every=0 --no-checkpoint]
//             Each sequence is opened, appended, sealed; --commit-every
//             sets the group-commit batch (sequences per WAL fsync);
//             --checkpoint-every folds every N sequences; a final
//             checkpoint (unless --no-checkpoint) leaves the file openable
//             as a plain disk database. Reports points/s and fsyncs/commit.
//   shard-build  split a corpus into an on-disk shard set (per-shard disk
//             databases + manifest) for scatter-gather serving
//             mdseq_cli shard-build --corpus=corpus.mdsq --out=shards/
//                                   [--shards=2 --placement=hash|hilbert]
//   replay  re-execute a recorded workload log against a build, or diff
//           two recordings offline
//             mdseq_cli replay --log=workload.mdwl
//                              --corpus=corpus.mdsq | --db=corpus.db
//                              [--shards=0 --placement=hash|hilbert
//                               --pace=max|recorded --speed=1.0
//                               --apply-deadlines --prefilter=on|off
//                               --composite=on|off --pool=256 --threads=0
//                               --out=replayed.mdwl --json-out=diff.json
//                               --max_rows=20]
//             mdseq_cli replay --log=a.mdwl --diff=b.mdwl
//                              [--json-out=diff.json --max_rows=20]
//             Run mode re-executes every record (same query, epsilon,
//             verified flag) against the given corpus/database — or, with
//             --shards=N, against an N-way in-memory shard coordinator —
//             and diffs the replayed run against the recording: result
//             digests exactly, pruning-cascade counters over the
//             deterministic subset only (never wall times or buffer-pool
//             hits). --pace=recorded recreates the captured arrival
//             spacing (divided by --speed; 2.0 = twice as fast);
//             --pace=max is a closed loop measuring max throughput.
//             --prefilter/--composite pin the engine's SearchOptions to
//             probe a knob (e.g. --prefilter=off shows up as per-query
//             counter divergences, localized per shard for sharded runs).
//             --out writes the replayed run as a new workload log, so
//             builds can be compared transitively. --diff skips execution
//             and compares two existing logs. --json-out writes the diff
//             as JSON (the BENCH_replay.json payload); exit code is 0
//             even when runs diverge — divergence is the report, not an
//             error.
//   serve-bench  drive the concurrent query engine with N client threads
//             mdseq_cli serve-bench --corpus=corpus.mdsq | --db=corpus.db
//                            [--threads=0 --clients=4 --queries=64
//                             --eps=0.1 --queue=1024
//                             --policy=block|reject|shed
//                             --deadline_ms=0 --verified --pool=256
//                             --seed=42 --min_qlen=32 --max_qlen=128
//                             --shards=0 --placement=hash|hilbert
//                             --shard-failure=failfast|degraded
//                             --ingest-rate=0 --ingest-checkpoint-every=0
//                             --metrics-out=metrics.prom
//                             --metrics-json=metrics.json
//                             --trace-out=trace.json --trace-cap=4096
//                             --listen=8080 --slow_ms=50 --linger_s=0
//                             --log-level=warn
//                             --record=workload.mdwl
//                             --record-sample-every=1
//                             --record-max-bytes=67108864
//                             --cache-bytes=0 --approx-budget=0
//                             --tenants=0 --tenant-mix=""]
//             --shards=N (requires --corpus) splits the corpus into N
//             self-contained shards under the chosen --placement and
//             serves queries through the scatter-gather coordinator
//             (loopback transport); the report then breaks coordinator
//             time into fan-out wait vs merge, and the introspection
//             server gains /debug/shards. --shard-failure picks the
//             partial-failure policy (fail closed vs degrade open).
//             --ingest-rate=<points/s> (requires --db) opens the database
//             live (WAL-backed) and runs a background writer that ingests
//             freshly generated sealed sequences at the target rate while
//             the query clients run — the read-while-write scenario. The
//             report then includes acknowledged ingest throughput and WAL
//             fsyncs; --ingest-checkpoint-every checkpoints every N
//             batches.
//             Reports end-to-end QPS and the engine's admission/latency
//             counters (p50/p99 from the lock-free histogram).
//             --metrics-out snapshots the engine's metrics registry in
//             Prometheus text format every 500 ms while the bench runs
//             (atomic temp-file + rename writes, plus a final snapshot);
//             --metrics-json writes the final registry state as JSON;
//             --trace-out collects per-query phase traces and writes
//             Chrome trace_event JSON. --listen=<port> starts the live
//             introspection server on 127.0.0.1 (<port> 0 picks an
//             ephemeral port, printed at startup) with /metrics /healthz
//             /debug/active /debug/cancel /debug/slow /debug/trace
//             (+ /debug/ingest when live-backed);
//             --slow_ms sets the slow-query ring threshold; --linger_s
//             keeps the server up that many seconds after the bench
//             drains for manual curl; --log-level=debug|info|warn|error
//             sets the structured-log threshold (JSON lines on stderr).
//             --record=<path> turns on the workload flight recorder: every
//             completed query is appended to a rotating CRC-framed log
//             replayable with `mdseq_cli replay`; --record-sample-every=N
//             keeps every Nth query, --record-max-bytes caps the log file
//             before rotation. The introspection server then also serves
//             /debug/workload.
//             Serving QoS (docs/serving.md): --cache-bytes=N turns on the
//             snapshot-stamped result cache with an N-byte budget (report
//             gains hit/miss/invalidation counters; server gains
//             /debug/cache); --approx-budget=N caps Phase-3 candidates per
//             query (the approximate tier — results stay exact below the
//             certified bound each query reports); --tenants=N spreads the
//             clients round-robin over N equal-weight admission classes,
//             --tenant-mix="4,2,1" sets explicit class weights instead
//             (report gains per-class served/shed rows; server gains
//             /debug/tenants).
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.

#include <sys/stat.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/search.h"
#include "engine/query_engine.h"
#include "engine/workload_recorder.h"
#include "engine/workload_replay.h"
#include "ingest/live_database.h"
#include "gen/fractal.h"
#include "gen/query_workload.h"
#include "gen/video.h"
#include "gen/walk.h"
#include "io/serialization.h"
#include "obs/explain.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/coordinator.h"
#include "shard/shard_set.h"
#include "obs/workload_log.h"
#include "shard/transport.h"
#include "storage/disk_database.h"
#include "util/flags.h"
#include "util/random.h"

namespace {

using namespace mdseq;

int Usage() {
  std::fprintf(stderr,
               "usage: mdseq_cli "
               "<gen|info|export|query|topk|builddb|querydb|explain|"
               "ingest|shard-build|replay|serve-bench> [--flags]\n"
               "see the header of tools/mdseq_cli.cc for details\n");
  return 2;
}

int RunGen(const Flags& flags) {
  const std::string kind = flags.GetString("kind", "synthetic");
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "gen: --out is required\n");
    return 2;
  }
  const size_t count = flags.GetSize("count", 100);
  const size_t min_len = flags.GetSize("min_len", 56);
  const size_t max_len = flags.GetSize("max_len", 512);
  if (min_len < 1 || min_len > max_len) {
    std::fprintf(stderr, "gen: invalid length range\n");
    return 2;
  }
  Rng rng(flags.GetSize("seed", 42));

  std::vector<Sequence> corpus;
  corpus.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t length = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(min_len), static_cast<int64_t>(max_len)));
    if (kind == "synthetic") {
      corpus.push_back(GenerateFractalSequence(length, FractalOptions(),
                                               &rng));
    } else if (kind == "video") {
      corpus.push_back(GenerateVideoSequence(length, VideoOptions(), &rng));
    } else if (kind == "walk") {
      WalkOptions options;
      options.dim = flags.GetSize("dim", 1);
      corpus.push_back(GenerateRandomWalk(length, options, &rng));
    } else {
      std::fprintf(stderr, "gen: unknown --kind=%s\n", kind.c_str());
      return 2;
    }
  }
  if (!WriteSequences(out, corpus)) {
    std::fprintf(stderr, "gen: failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu %s sequence(s) to %s\n", corpus.size(),
              kind.c_str(), out.c_str());
  return 0;
}

std::optional<std::vector<Sequence>> LoadCorpus(const Flags& flags) {
  const std::string path = flags.GetString("corpus", "");
  if (path.empty()) {
    std::fprintf(stderr, "--corpus is required\n");
    return std::nullopt;
  }
  auto corpus = ReadSequences(path);
  if (!corpus.has_value()) {
    std::fprintf(stderr, "failed to read corpus %s\n", path.c_str());
  }
  return corpus;
}

int RunInfo(const Flags& flags) {
  const auto corpus = LoadCorpus(flags);
  if (!corpus.has_value()) return 1;
  size_t points = 0;
  size_t min_len = SIZE_MAX;
  size_t max_len = 0;
  for (const Sequence& s : *corpus) {
    points += s.size();
    min_len = std::min(min_len, s.size());
    max_len = std::max(max_len, s.size());
  }
  std::printf("sequences : %zu\n", corpus->size());
  if (!corpus->empty()) {
    std::printf("dimension : %zu\n", corpus->front().dim());
    std::printf("points    : %zu (lengths %zu-%zu)\n", points, min_len,
                max_len);
  }
  return 0;
}

int RunExport(const Flags& flags) {
  const auto corpus = LoadCorpus(flags);
  if (!corpus.has_value()) return 1;
  const size_t id = flags.GetSize("id", 0);
  const std::string out = flags.GetString("out", "");
  if (out.empty() || id >= corpus->size()) {
    std::fprintf(stderr, "export: need --out and a valid --id (< %zu)\n",
                 corpus->size());
    return 2;
  }
  if (!WriteSequenceCsv(out, (*corpus)[id].View())) {
    std::fprintf(stderr, "export: failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote sequence %zu (%zu points) to %s\n", id,
              (*corpus)[id].size(), out.c_str());
  return 0;
}

// Loads the corpus into an indexed database and parses the query CSV.
struct QuerySetup {
  SequenceDatabase database;
  Sequence query;
};

std::optional<QuerySetup> PrepareQuery(const Flags& flags) {
  const auto corpus = LoadCorpus(flags);
  if (!corpus.has_value() || corpus->empty()) return std::nullopt;
  const std::string query_path = flags.GetString("query", "");
  if (query_path.empty()) {
    std::fprintf(stderr, "--query=<csv> is required\n");
    return std::nullopt;
  }
  auto query = ReadSequenceCsv(query_path);
  if (!query.has_value()) {
    std::fprintf(stderr, "failed to read query CSV %s\n",
                 query_path.c_str());
    return std::nullopt;
  }
  if (query->dim() != corpus->front().dim()) {
    std::fprintf(stderr, "query dimension %zu != corpus dimension %zu\n",
                 query->dim(), corpus->front().dim());
    return std::nullopt;
  }
  QuerySetup setup{SequenceDatabase(corpus->front().dim()),
                   std::move(*query)};
  for (const Sequence& s : *corpus) setup.database.Add(s);
  return setup;
}

void PrintMatch(const SequenceMatch& match, bool verified) {
  if (verified) {
    std::printf("  sequence %zu  distance %.6f  intervals:",
                match.sequence_id, match.exact_distance);
  } else {
    std::printf("  sequence %zu  min Dnorm %.6f  intervals:",
                match.sequence_id, match.min_dnorm);
  }
  for (const Interval& iv : match.solution_interval) {
    std::printf(" [%zu, %zu)", iv.begin, iv.end);
  }
  std::printf("\n");
}

int RunQuery(const Flags& flags) {
  auto setup = PrepareQuery(flags);
  if (!setup.has_value()) return 1;
  const double epsilon = flags.GetDouble("eps", 0.1);
  const bool filter_only = flags.Has("filter-only");
  const size_t max_rows = flags.GetSize("max_rows", 20);

  SimilaritySearch engine(&setup->database);
  const SearchResult result =
      filter_only ? engine.Search(setup->query.View(), epsilon)
                  : engine.SearchVerified(setup->query.View(), epsilon);
  std::printf("query: %zu points, eps %.4f%s\n", setup->query.size(),
              epsilon, filter_only ? " (filter only, no verification)" : "");
  std::printf("candidates after Dmbr: %zu; %s: %zu\n",
              result.candidates.size(),
              filter_only ? "after Dnorm" : "verified matches",
              result.matches.size());
  for (size_t i = 0; i < result.matches.size() && i < max_rows; ++i) {
    PrintMatch(result.matches[i], !filter_only);
  }
  if (result.matches.size() > max_rows) {
    std::printf("  ... %zu more (raise --max_rows)\n",
                result.matches.size() - max_rows);
  }
  return 0;
}

int RunBuildDb(const Flags& flags) {
  const auto corpus = LoadCorpus(flags);
  if (!corpus.has_value()) return 1;
  if (corpus->empty()) {
    std::fprintf(stderr, "builddb: corpus is empty\n");
    return 2;
  }
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "builddb: --out is required\n");
    return 2;
  }
  SequenceDatabase database(corpus->front().dim());
  for (const Sequence& s : *corpus) database.Add(s);
  if (!DiskDatabase::Save(database, out)) {
    std::fprintf(stderr, "builddb: failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote disk database: %zu sequences, %zu points, %zu MBRs "
              "-> %s\n",
              database.num_sequences(), database.total_points(),
              database.total_mbrs(), out.c_str());
  return 0;
}

int RunQueryDb(const Flags& flags) {
  const std::string db_path = flags.GetString("db", "");
  const std::string query_path = flags.GetString("query", "");
  if (db_path.empty() || query_path.empty()) {
    std::fprintf(stderr, "querydb: --db and --query are required\n");
    return 2;
  }
  DiskDatabase database(db_path, flags.GetSize("pool", 256));
  if (!database.valid()) {
    std::fprintf(stderr, "querydb: failed to open %s\n", db_path.c_str());
    return 1;
  }
  auto query = ReadSequenceCsv(query_path);
  if (!query.has_value() || query->dim() != database.dim()) {
    std::fprintf(stderr, "querydb: bad query CSV (need dimension %zu)\n",
                 database.dim());
    return 1;
  }
  const double epsilon = flags.GetDouble("eps", 0.1);
  const bool filter_only = flags.Has("filter-only");
  const size_t max_rows = flags.GetSize("max_rows", 20);

  database.mutable_pool()->ResetStats();
  const uint64_t file_reads_before = database.file().reads();
  const SearchResult result =
      filter_only ? database.Search(query->View(), epsilon)
                  : database.SearchVerified(query->View(), epsilon);
  std::printf("query: %zu points, eps %.4f over %zu sequences on disk\n",
              query->size(), epsilon, database.num_sequences());
  std::printf("candidates after Dmbr: %zu; %s: %zu\n",
              result.candidates.size(),
              filter_only ? "after Dnorm" : "verified matches",
              result.matches.size());
  for (size_t i = 0; i < result.matches.size() && i < max_rows; ++i) {
    PrintMatch(result.matches[i], !filter_only);
  }
  // Index pages go through the pool; verified sequences are read off it,
  // so the file's page reads are pool misses plus sequence pages.
  const uint64_t misses = database.pool().misses();
  std::printf("page I/O: %llu index misses (real reads), %llu pool hits, "
              "%llu sequence pages read\n",
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(database.pool().hits()),
              static_cast<unsigned long long>(database.file().reads() -
                                              file_reads_before - misses));
  return 0;
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

// Atomic replace: write to a sibling temp file, then rename over the
// target. A tailer or scraper reading `path` concurrently sees either the
// previous snapshot or the new one in full — never a torn write.
bool WriteTextFileAtomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  if (!WriteTextFile(tmp, text)) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

// explain: run one query with tracing on and print the per-phase report.
// Works against an in-memory corpus (--corpus) or a disk database (--db).
int RunExplain(const Flags& flags) {
  const std::string corpus_path = flags.GetString("corpus", "");
  const std::string db_path = flags.GetString("db", "");
  if (corpus_path.empty() == db_path.empty()) {
    std::fprintf(stderr,
                 "explain: exactly one of --corpus / --db is required\n");
    return 2;
  }
  const std::string query_path = flags.GetString("query", "");
  if (query_path.empty()) {
    std::fprintf(stderr, "explain: --query=<csv> is required\n");
    return 2;
  }
  auto query = ReadSequenceCsv(query_path);
  if (!query.has_value()) {
    std::fprintf(stderr, "explain: failed to read query CSV %s\n",
                 query_path.c_str());
    return 1;
  }
  const double epsilon = flags.GetDouble("eps", 0.1);
  const bool verified = flags.Has("verified");
  const bool disk = !db_path.empty();
  const size_t num_shards = flags.GetSize("shards", 0);
  if (num_shards > 0 && disk) {
    std::fprintf(stderr, "explain: --shards requires --corpus\n");
    return 2;
  }
  PlacementPolicy placement_policy = PlacementPolicy::kHash;
  const std::string placement_name = flags.GetString("placement", "hash");
  if (!ParsePlacementPolicy(placement_name.c_str(), &placement_policy)) {
    std::fprintf(stderr, "explain: unknown --placement=%s\n",
                 placement_name.c_str());
    return 2;
  }

  obs::Trace trace;
  trace.set_query_id(1);
  SearchControl control;
  control.trace = &trace;

  SearchResult result;
  size_t database_sequences = 0;
  size_t dim = 0;
  if (!disk) {
    auto corpus = ReadSequences(corpus_path);
    if (!corpus.has_value() || corpus->empty()) {
      std::fprintf(stderr, "explain: failed to read corpus %s\n",
                   corpus_path.c_str());
      return 1;
    }
    dim = corpus->front().dim();
    if (query->dim() != dim) {
      std::fprintf(stderr, "explain: query dimension %zu != corpus %zu\n",
                   query->dim(), dim);
      return 1;
    }
    SequenceDatabase database(dim);
    for (const Sequence& s : *corpus) database.Add(s);
    database_sequences = database.num_sequences();
    if (num_shards > 0) {
      // Sharded explain: the same corpus split over in-memory shards and
      // queried through the coordinator, so the report shows the fan-out
      // summary and the per-shard cascade, and the trace carries every
      // shard's stitched spans.
      const std::unique_ptr<ShardSet> shard_set =
          ShardSet::BuildInMemory(database, num_shards, placement_policy);
      LoopbackTransport transport(shard_set->nodes());
      const Coordinator coordinator(&transport, shard_set->placement());
      obs::SpanScope query_span(control.trace, "query");
      result = verified
                   ? coordinator.SearchVerified(query->View(), epsilon,
                                                control)
                   : coordinator.Search(query->View(), epsilon, control);
    } else {
      SimilaritySearch engine(&database);
      obs::SpanScope query_span(control.trace, "query");
      result = verified
                   ? engine.SearchVerified(query->View(), epsilon, control)
                   : engine.Search(query->View(), epsilon, control);
    }
  } else {
    DiskDatabase database(db_path, flags.GetSize("pool", 256));
    if (!database.valid()) {
      std::fprintf(stderr, "explain: failed to open %s\n", db_path.c_str());
      return 1;
    }
    dim = database.dim();
    if (query->dim() != dim) {
      std::fprintf(stderr, "explain: query dimension %zu != database %zu\n",
                   query->dim(), dim);
      return 1;
    }
    database_sequences = database.num_sequences();
    obs::SpanScope query_span(control.trace, "query");
    result = verified
                 ? database.SearchVerified(query->View(), epsilon, control)
                 : database.Search(query->View(), epsilon, control);
  }

  const obs::ExplainStats stats =
      ToExplainStats(result, query->size(), dim, epsilon, verified, disk,
                     database_sequences);
  if (flags.Has("json")) {
    std::printf("%s\n", obs::ExplainJson(stats).c_str());
  } else {
    std::printf("%s", obs::RenderExplainReport(stats).c_str());
  }

  const std::string trace_out = flags.GetString("trace-out", "");
  if (!trace_out.empty()) {
    std::vector<obs::Trace> traces;
    traces.push_back(std::move(trace));
    if (!WriteTextFile(trace_out, obs::ChromeTraceJson(traces))) {
      std::fprintf(stderr, "explain: failed to write %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", traces.front().spans().size(),
                trace_out.c_str());
  }
  return 0;
}

// ingest: stream a corpus into a live database through the WAL-backed
// write path, reporting acknowledged throughput and fsync economics.
int RunIngest(const Flags& flags) {
  const std::string db_path = flags.GetString("db", "");
  if (db_path.empty()) {
    std::fprintf(stderr, "ingest: --db is required\n");
    return 2;
  }
  const auto corpus = LoadCorpus(flags);
  if (!corpus.has_value()) return 1;
  if (corpus->empty()) {
    std::fprintf(stderr, "ingest: corpus is empty\n");
    return 2;
  }
  const size_t dim = corpus->front().dim();
  if (flags.Has("create") && !LiveDatabase::Create(db_path, dim)) {
    std::fprintf(stderr, "ingest: failed to create %s\n", db_path.c_str());
    return 1;
  }
  LiveDatabaseOptions options;
  options.pool_pages = flags.GetSize("pool", 256);
  LiveDatabase database(db_path, options);
  if (!database.valid()) {
    std::fprintf(stderr,
                 "ingest: failed to open %s (missing? pass --create; torn "
                 "WAL headers are rejected)\n",
                 db_path.c_str());
    return 1;
  }
  if (database.dim() != dim) {
    std::fprintf(stderr, "ingest: corpus dimension %zu != database %zu\n",
                 dim, database.dim());
    return 2;
  }
  const size_t commit_every = flags.GetSize("commit-every", 8);
  const size_t checkpoint_every = flags.GetSize("checkpoint-every", 0);

  const auto start = std::chrono::steady_clock::now();
  size_t points = 0;
  size_t since_commit = 0;
  for (size_t i = 0; i < corpus->size(); ++i) {
    const Sequence& s = (*corpus)[i];
    if (s.dim() != dim) {
      std::fprintf(stderr, "ingest: sequence %zu has dimension %zu\n", i,
                   s.dim());
      return 1;
    }
    const uint64_t id = database.BeginSequence();
    if (!database.AppendPoints(id, s.View()) ||
        !database.SealSequence(id)) {
      std::fprintf(stderr, "ingest: append/seal failed for sequence %zu\n",
                   i);
      return 1;
    }
    points += s.size();
    if (++since_commit >= commit_every) {
      if (!database.Commit()) {
        std::fprintf(stderr, "ingest: commit failed at sequence %zu\n", i);
        return 1;
      }
      since_commit = 0;
    }
    if (checkpoint_every > 0 && (i + 1) % checkpoint_every == 0 &&
        !database.Checkpoint()) {
      std::fprintf(stderr, "ingest: checkpoint failed at sequence %zu\n", i);
      return 1;
    }
  }
  if (!database.Commit()) {
    std::fprintf(stderr, "ingest: final commit failed\n");
    return 1;
  }
  if (!flags.Has("no-checkpoint") && !database.Checkpoint()) {
    std::fprintf(stderr, "ingest: final checkpoint failed\n");
    return 1;
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  const IngestStatus status = database.Status();
  std::printf("ingested  : %zu sequences, %zu points -> %s\n",
              corpus->size(), points, db_path.c_str());
  std::printf("throughput: %.0f points/s (%.3f s acknowledged)\n",
              static_cast<double>(points) / elapsed_s, elapsed_s);
  std::printf("wal       : %llu records, %llu commits, %llu fsyncs "
              "(%.2f fsyncs/commit), %llu bytes\n",
              static_cast<unsigned long long>(status.wal_records),
              static_cast<unsigned long long>(status.wal_commits),
              static_cast<unsigned long long>(status.wal_fsyncs),
              status.wal_commits > 0
                  ? static_cast<double>(status.wal_fsyncs) /
                        static_cast<double>(status.wal_commits)
                  : 0.0,
              static_cast<unsigned long long>(status.wal_bytes));
  std::printf("checkpoint: %llu run(s), last %.3f s; %llu base + %llu "
              "pending sequences, %llu file pages\n",
              static_cast<unsigned long long>(status.checkpoints),
              status.last_checkpoint_seconds,
              static_cast<unsigned long long>(status.base_sequences),
              static_cast<unsigned long long>(status.pending_sequences),
              static_cast<unsigned long long>(status.file_pages));
  return 0;
}

// shard-build: split a corpus into an on-disk shard set — one disk
// database per shard plus a manifest recording the placement — ready to
// be served by the scatter-gather coordinator.
int RunShardBuild(const Flags& flags) {
  const auto corpus = LoadCorpus(flags);
  if (!corpus.has_value()) return 1;
  if (corpus->empty()) {
    std::fprintf(stderr, "shard-build: corpus is empty\n");
    return 2;
  }
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "shard-build: --out=<dir> is required\n");
    return 2;
  }
  const size_t shards = flags.GetSize("shards", 2);
  if (shards == 0) {
    std::fprintf(stderr, "shard-build: --shards must be >= 1\n");
    return 2;
  }
  const std::string placement_name = flags.GetString("placement", "hash");
  PlacementPolicy policy;
  if (!ParsePlacementPolicy(placement_name.c_str(), &policy)) {
    std::fprintf(stderr, "shard-build: unknown --placement=%s\n",
                 placement_name.c_str());
    return 2;
  }
  ::mkdir(out.c_str(), 0755);  // fine if it already exists

  SequenceDatabase database(corpus->front().dim());
  for (const Sequence& s : *corpus) database.Add(s);
  if (!ShardSet::BuildOnDisk(database, out, shards, policy)) {
    std::fprintf(stderr, "shard-build: failed to write shard set to %s\n",
                 out.c_str());
    return 1;
  }
  const std::unique_ptr<ShardPlacement> placement =
      ShardPlacement::Build(database.num_sequences(), shards, policy);
  std::printf("wrote shard set: %zu sequences over %zu shard(s), "
              "%s placement -> %s\n",
              database.num_sequences(), shards, placement_name.c_str(),
              out.c_str());
  for (size_t i = 0; i < shards; ++i) {
    std::printf("  shard %zu: %zu sequence(s)\n", i,
                placement->shard_size(static_cast<uint32_t>(i)));
  }
  return 0;
}

// Parses an on/off knob flag; leaves *value untouched when absent.
bool ParseOnOff(const Flags& flags, const char* name, const char* command,
                bool* value, bool* ok) {
  const std::string text = flags.GetString(name, "");
  if (text.empty()) return true;
  if (text == "on") {
    *value = true;
  } else if (text == "off") {
    *value = false;
  } else {
    std::fprintf(stderr, "%s: --%s must be on or off (got %s)\n", command,
                 name, text.c_str());
    *ok = false;
    return false;
  }
  return true;
}

void PrintReplayDiff(const ReplayDiff& diff, size_t max_rows) {
  std::printf("diff      : %llu compared, %llu unmatched; divergences: "
              "%llu outcome, %llu digest, %llu counter -> %s\n",
              static_cast<unsigned long long>(diff.compared),
              static_cast<unsigned long long>(diff.unmatched),
              static_cast<unsigned long long>(diff.outcome_divergences),
              static_cast<unsigned long long>(diff.digest_divergences),
              static_cast<unsigned long long>(diff.counter_divergences),
              diff.clean() ? "CLEAN" : "DIVERGED");
  size_t shown = 0;
  for (const ReplayDivergence& d : diff.divergences) {
    if (shown++ >= max_rows) {
      std::printf("  ... %zu more diverging quer(ies) (raise --max_rows)\n",
                  diff.divergences.size() - max_rows);
      break;
    }
    std::printf("  query %llu: outcome %s -> %s",
                static_cast<unsigned long long>(d.id), d.outcome_a,
                d.outcome_b);
    if (d.digest_differs) {
      std::printf(", digest %016llx -> %016llx (%llu vs %llu matches)",
                  static_cast<unsigned long long>(d.digest_a),
                  static_cast<unsigned long long>(d.digest_b),
                  static_cast<unsigned long long>(d.matches_a),
                  static_cast<unsigned long long>(d.matches_b));
    }
    if (!d.diverging_shards.empty()) {
      std::printf(", shards");
      for (const uint32_t shard : d.diverging_shards) {
        std::printf(" %u", shard);
      }
    }
    std::printf("\n");
    for (const std::string& row : d.counter_diffs) {
      std::printf("    %s\n", row.c_str());
    }
  }
}

bool WriteWorkloadLogFile(const std::string& path,
                          const std::vector<WorkloadQueryRecord>& records) {
  std::remove(path.c_str());  // start a fresh log, not an append
  obs::WorkloadLogWriter writer;
  if (!writer.Open(path)) return false;
  for (const WorkloadQueryRecord& record : records) {
    const std::vector<uint8_t> payload = EncodeWorkloadRecord(record);
    if (!writer.Append(kWorkloadQueryFrame, payload.data(),
                       payload.size())) {
      return false;
    }
  }
  writer.Close();
  return true;
}

// replay: re-execute a recorded workload log against a build (in-memory,
// disk, or sharded) and diff the run against the recording — or, with
// --diff, compare two recordings offline without executing anything.
int RunReplayCmd(const Flags& flags) {
  const std::string log_path = flags.GetString("log", "");
  if (log_path.empty()) {
    std::fprintf(stderr, "replay: --log=<workload log> is required\n");
    return 2;
  }
  const WorkloadReadResult recording = ReadWorkloadRecords(log_path);
  if (recording.records.empty()) {
    std::fprintf(stderr, "replay: no records in %s%s\n", log_path.c_str(),
                 recording.clean ? "" : " (torn or corrupt log)");
    return 1;
  }
  std::printf("recording : %zu record(s) from %s%s%s\n",
              recording.records.size(), log_path.c_str(),
              recording.clean ? "" : " (torn tail dropped)",
              recording.skipped > 0 ? " (unknown frames skipped)" : "");
  const size_t max_rows = flags.GetSize("max_rows", 20);
  const std::string json_out = flags.GetString("json-out", "");

  const std::string diff_path = flags.GetString("diff", "");
  if (!diff_path.empty()) {
    // Offline mode: compare two logs record-by-record, no execution.
    const WorkloadReadResult other = ReadWorkloadRecords(diff_path);
    if (other.records.empty()) {
      std::fprintf(stderr, "replay: no records in %s\n", diff_path.c_str());
      return 1;
    }
    std::printf("against   : %zu record(s) from %s\n", other.records.size(),
                diff_path.c_str());
    const ReplayDiff diff =
        DiffWorkloads(recording.records, other.records);
    PrintReplayDiff(diff, max_rows);
    if (!json_out.empty() &&
        !WriteTextFile(json_out, ReplayDiffJson(diff))) {
      std::fprintf(stderr, "replay: failed to write %s\n", json_out.c_str());
      return 1;
    }
    return 0;
  }

  const std::string corpus_path = flags.GetString("corpus", "");
  const std::string db_path = flags.GetString("db", "");
  if (corpus_path.empty() == db_path.empty()) {
    std::fprintf(stderr,
                 "replay: exactly one of --corpus / --db is required "
                 "(or --diff for offline mode)\n");
    return 2;
  }
  const size_t num_shards = flags.GetSize("shards", 0);
  if (num_shards > 0 && corpus_path.empty()) {
    std::fprintf(stderr, "replay: --shards requires --corpus\n");
    return 2;
  }
  PlacementPolicy placement_policy = PlacementPolicy::kHash;
  const std::string placement_name = flags.GetString("placement", "hash");
  if (!ParsePlacementPolicy(placement_name.c_str(), &placement_policy)) {
    std::fprintf(stderr, "replay: unknown --placement=%s\n",
                 placement_name.c_str());
    return 2;
  }

  ReplayOptions replay_options;
  const std::string pace = flags.GetString("pace", "max");
  if (pace == "max") {
    replay_options.pace = ReplayOptions::Pace::kMax;
  } else if (pace == "recorded") {
    replay_options.pace = ReplayOptions::Pace::kRecorded;
  } else {
    std::fprintf(stderr, "replay: unknown --pace=%s\n", pace.c_str());
    return 2;
  }
  replay_options.speed = flags.GetDouble("speed", 1.0);
  if (replay_options.speed <= 0) {
    std::fprintf(stderr, "replay: --speed must be > 0\n");
    return 2;
  }
  replay_options.apply_deadlines = flags.Has("apply-deadlines");

  EngineOptions options;
  options.num_threads = flags.GetSize("threads", 0);
  options.queue_capacity = flags.GetSize("queue", 1024);
  bool knobs_ok = true;
  ParseOnOff(flags, "prefilter", "replay", &options.search.prefilter,
             &knobs_ok);
  ParseOnOff(flags, "composite", "replay", &options.search.composite_bound,
             &knobs_ok);
  if (!knobs_ok) return 2;

  // Build the replay target the same way serve-bench does.
  std::unique_ptr<SequenceDatabase> memory_database;
  std::unique_ptr<DiskDatabase> disk_database;
  std::unique_ptr<ShardSet> shard_set;
  std::unique_ptr<LoopbackTransport> shard_transport;
  std::unique_ptr<Coordinator> coordinator;
  if (!corpus_path.empty()) {
    auto loaded = ReadSequences(corpus_path);
    if (!loaded.has_value() || loaded->empty()) {
      std::fprintf(stderr, "replay: failed to read corpus %s\n",
                   corpus_path.c_str());
      return 1;
    }
    if (num_shards > 0) {
      SequenceDatabase full(loaded->front().dim());
      for (const Sequence& s : *loaded) full.Add(s);
      // The knob flags must reach the shard nodes too: each shard runs its
      // own SimilaritySearch with the options it was built with.
      shard_set = ShardSet::BuildInMemory(full, num_shards,
                                          placement_policy, options.search);
      shard_transport =
          std::make_unique<LoopbackTransport>(shard_set->nodes());
      coordinator = std::make_unique<Coordinator>(shard_transport.get(),
                                                  shard_set->placement());
    } else {
      memory_database =
          std::make_unique<SequenceDatabase>(loaded->front().dim());
      for (const Sequence& s : *loaded) memory_database->Add(s);
    }
  } else {
    disk_database = std::make_unique<DiskDatabase>(
        db_path, flags.GetSize("pool", 256));
    if (!disk_database->valid()) {
      std::fprintf(stderr, "replay: failed to open %s\n", db_path.c_str());
      return 1;
    }
  }

  std::unique_ptr<QueryEngine> engine;
  if (coordinator != nullptr) {
    engine = std::make_unique<QueryEngine>(coordinator.get(), options);
  } else if (memory_database != nullptr) {
    engine = std::make_unique<QueryEngine>(memory_database.get(), options);
  } else {
    engine = std::make_unique<QueryEngine>(disk_database.get(), options);
  }

  const ReplayReport report =
      RunReplay(engine.get(), recording.records, replay_options);
  engine->Shutdown();
  std::printf("replayed  : %llu quer(ies), %llu ok, %.3f s (%s pace) "
              "-> %.0f queries/s\n",
              static_cast<unsigned long long>(report.replayed),
              static_cast<unsigned long long>(report.ok),
              report.wall_seconds, pace.c_str(),
              report.wall_seconds > 0
                  ? static_cast<double>(report.replayed) /
                        report.wall_seconds
                  : 0.0);

  const ReplayDiff diff = DiffWorkloads(recording.records, report.records);
  PrintReplayDiff(diff, max_rows);

  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    if (!WriteWorkloadLogFile(out, report.records)) {
      std::fprintf(stderr, "replay: failed to write %s\n", out.c_str());
      return 1;
    }
    std::printf("replay log: %zu record(s) -> %s\n", report.records.size(),
                out.c_str());
  }
  if (!json_out.empty() && !WriteTextFile(json_out, ReplayDiffJson(diff))) {
    std::fprintf(stderr, "replay: failed to write %s\n", json_out.c_str());
    return 1;
  }
  return 0;
}

// serve-bench: N client threads submit batches of drawn queries into the
// concurrent engine; reports QPS and the engine counters. Works against an
// in-memory corpus (--corpus) or a disk database (--db). With
// --ingest-rate a background writer ingests into the (live-opened)
// database while the clients query it.
int RunServeBench(const Flags& flags) {
  const std::string corpus_path = flags.GetString("corpus", "");
  const std::string db_path = flags.GetString("db", "");
  if (corpus_path.empty() == db_path.empty()) {
    std::fprintf(stderr,
                 "serve-bench: exactly one of --corpus / --db is required\n");
    return 2;
  }
  const size_t ingest_rate = flags.GetSize("ingest-rate", 0);
  if (ingest_rate > 0 && db_path.empty()) {
    std::fprintf(stderr, "serve-bench: --ingest-rate requires --db\n");
    return 2;
  }
  const size_t num_shards = flags.GetSize("shards", 0);
  if (num_shards > 0 && corpus_path.empty()) {
    std::fprintf(stderr, "serve-bench: --shards requires --corpus\n");
    return 2;
  }
  PlacementPolicy placement_policy = PlacementPolicy::kHash;
  const std::string placement_name = flags.GetString("placement", "hash");
  if (!ParsePlacementPolicy(placement_name.c_str(), &placement_policy)) {
    std::fprintf(stderr, "serve-bench: unknown --placement=%s\n",
                 placement_name.c_str());
    return 2;
  }
  CoordinatorOptions coordinator_options;
  const std::string failure = flags.GetString("shard-failure", "failfast");
  if (failure == "failfast") {
    coordinator_options.failure = CoordinatorOptions::FailurePolicy::kFailFast;
  } else if (failure == "degraded") {
    coordinator_options.failure = CoordinatorOptions::FailurePolicy::kDegraded;
  } else {
    std::fprintf(stderr, "serve-bench: unknown --shard-failure=%s\n",
                 failure.c_str());
    return 2;
  }

  EngineOptions options;
  options.num_threads = flags.GetSize("threads", 0);
  options.queue_capacity = flags.GetSize("queue", 1024);
  if (options.queue_capacity == 0) {
    std::fprintf(stderr, "serve-bench: --queue must be >= 1\n");
    return 2;
  }
  const std::string policy = flags.GetString("policy", "block");
  if (policy == "block") {
    options.policy = OverloadPolicy::kBlock;
  } else if (policy == "reject") {
    options.policy = OverloadPolicy::kReject;
  } else if (policy == "shed") {
    options.policy = OverloadPolicy::kShedOldest;
  } else {
    std::fprintf(stderr, "serve-bench: unknown --policy=%s\n",
                 policy.c_str());
    return 2;
  }

  // Serving QoS subsystem knobs: result cache, approximate tier, and
  // per-tenant admission classes (docs/serving.md).
  options.cache_bytes = flags.GetSize("cache-bytes", 0);
  options.search.max_candidates = flags.GetSize("approx-budget", 0);
  const std::string tenant_mix = flags.GetString("tenant-mix", "");
  size_t num_tenants = flags.GetSize("tenants", 0);
  if (!tenant_mix.empty()) {
    // "4,2,1" = three classes with weights 4, 2, 1 (overrides --tenants).
    std::vector<TenantClassSpec> classes;
    size_t pos = 0;
    while (pos <= tenant_mix.size()) {
      size_t comma = tenant_mix.find(',', pos);
      if (comma == std::string::npos) comma = tenant_mix.size();
      const std::string token = tenant_mix.substr(pos, comma - pos);
      char* end = nullptr;
      const unsigned long weight = std::strtoul(token.c_str(), &end, 10);
      if (token.empty() || end == nullptr || *end != '\0' || weight == 0) {
        std::fprintf(stderr,
                     "serve-bench: --tenant-mix wants comma-separated "
                     "positive weights, got %s\n",
                     tenant_mix.c_str());
        return 2;
      }
      TenantClassSpec spec;
      spec.name = "t" + std::to_string(classes.size());
      spec.weight = static_cast<uint32_t>(weight);
      classes.push_back(std::move(spec));
      pos = comma + 1;
    }
    options.tenant_classes = std::move(classes);
  } else if (num_tenants > 0) {
    for (size_t i = 0; i < num_tenants; ++i) {
      TenantClassSpec spec;
      spec.name = "t" + std::to_string(i);
      spec.weight = 1;
      options.tenant_classes.push_back(std::move(spec));
    }
  }
  const size_t num_classes = options.tenant_classes.size();

  QueryOptions query_options;
  query_options.epsilon = flags.GetDouble("eps", 0.1);
  query_options.verified = flags.Has("verified");
  const size_t deadline_ms = flags.GetSize("deadline_ms", 0);
  if (deadline_ms > 0) {
    query_options.deadline = std::chrono::milliseconds(deadline_ms);
  }

  const std::string log_level = flags.GetString("log-level", "");
  if (!log_level.empty()) {
    obs::LogLevel level;
    if (!obs::ParseLogLevel(log_level, &level)) {
      std::fprintf(stderr, "serve-bench: unknown --log-level=%s\n",
                   log_level.c_str());
      return 2;
    }
    obs::Logger::Global().SetLevel(level);
  }

  const bool listen = flags.Has("listen");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string metrics_json = flags.GetString("metrics-json", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  obs::MetricsRegistry registry;
  if (listen || !metrics_out.empty() || !metrics_json.empty()) {
    options.metrics = &registry;
  }
  if (listen) {
    // 0 binds an ephemeral port; the actual one is printed below.
    options.listen_port = static_cast<int>(flags.GetSize("listen", 0));
    if (options.listen_port > 65535) {
      std::fprintf(stderr, "serve-bench: --listen must be <= 65535\n");
      return 2;
    }
  }
  const size_t slow_ms = flags.GetSize("slow_ms", 0);
  if (slow_ms > 0) {
    options.slow_query_threshold = std::chrono::milliseconds(slow_ms);
  }
  if (!trace_out.empty() || listen) {
    options.trace_capacity = flags.GetSize("trace-cap", 4096);
  }
  const std::string record_path = flags.GetString("record", "");
  if (!record_path.empty()) {
    options.workload_log_path = record_path;
    options.workload_sample_every =
        flags.GetSize("record-sample-every", 1);
    options.workload_max_bytes =
        flags.GetSize("record-max-bytes", 64ull << 20);
    if (options.workload_sample_every == 0) {
      std::fprintf(stderr,
                   "serve-bench: --record-sample-every must be >= 1\n");
      return 2;
    }
  }

  // The query set is drawn from the stored sequences either way; for a
  // disk database the raw sequences are read back through the pool first.
  std::vector<Sequence> corpus;
  std::unique_ptr<SequenceDatabase> memory_database;
  std::unique_ptr<DiskDatabase> disk_database;
  std::unique_ptr<LiveDatabase> live_database;
  // Sharded serving (--shards): the engine is declared after these, so it
  // shuts down before the coordinator, transport, and shards tear down.
  std::unique_ptr<ShardSet> shard_set;
  std::unique_ptr<LoopbackTransport> shard_transport;
  std::unique_ptr<Coordinator> coordinator;
  if (ingest_rate > 0) {
    LiveDatabaseOptions live_options;
    live_options.pool_pages = flags.GetSize("pool", 256);
    live_database = std::make_unique<LiveDatabase>(db_path, live_options);
    if (!live_database->valid()) {
      std::fprintf(stderr, "serve-bench: failed to open %s live\n",
                   db_path.c_str());
      return 1;
    }
    corpus.reserve(live_database->num_sequences());
    for (size_t id = 0; id < live_database->num_sequences(); ++id) {
      auto sequence = live_database->ReadSequence(id);
      if (!sequence.has_value()) {
        std::fprintf(stderr, "serve-bench: failed to read sequence %zu\n",
                     id);
        return 1;
      }
      corpus.push_back(std::move(*sequence));
    }
    if (corpus.empty()) {
      std::fprintf(stderr, "serve-bench: database %s is empty\n",
                   db_path.c_str());
      return 1;
    }
  } else if (!corpus_path.empty()) {
    auto loaded = ReadSequences(corpus_path);
    if (!loaded.has_value() || loaded->empty()) {
      std::fprintf(stderr, "serve-bench: failed to read corpus %s\n",
                   corpus_path.c_str());
      return 1;
    }
    corpus = std::move(*loaded);
    if (num_shards > 0) {
      SequenceDatabase full(corpus.front().dim());
      for (const Sequence& s : corpus) full.Add(s);
      // Shard nodes run with the engine's SearchOptions so an
      // --approx-budget is enforced shard-side too.
      shard_set = ShardSet::BuildInMemory(full, num_shards, placement_policy,
                                          options.search);
      shard_transport =
          std::make_unique<LoopbackTransport>(shard_set->nodes());
      coordinator = std::make_unique<Coordinator>(shard_transport.get(),
                                                  shard_set->placement(),
                                                  coordinator_options);
    } else {
      memory_database =
          std::make_unique<SequenceDatabase>(corpus.front().dim());
      for (const Sequence& s : corpus) memory_database->Add(s);
    }
  } else {
    disk_database = std::make_unique<DiskDatabase>(
        db_path, flags.GetSize("pool", 256));
    if (!disk_database->valid()) {
      std::fprintf(stderr, "serve-bench: failed to open %s\n",
                   db_path.c_str());
      return 1;
    }
    corpus.reserve(disk_database->num_sequences());
    for (size_t id = 0; id < disk_database->num_sequences(); ++id) {
      auto sequence = disk_database->ReadSequence(id);
      if (!sequence.has_value()) {
        std::fprintf(stderr, "serve-bench: failed to read sequence %zu\n",
                     id);
        return 1;
      }
      corpus.push_back(std::move(*sequence));
    }
  }

  const size_t clients = flags.GetSize("clients", 4);
  const size_t queries_per_client = flags.GetSize("queries", 64);
  QueryWorkloadOptions workload;
  workload.min_length = flags.GetSize("min_qlen", 32);
  workload.max_length = flags.GetSize("max_qlen", 128);
  Rng rng(flags.GetSize("seed", 42));
  std::vector<std::vector<Sequence>> per_client(clients);
  for (size_t c = 0; c < clients; ++c) {
    per_client[c] = DrawQueries(corpus, queries_per_client, workload, &rng);
  }

  std::unique_ptr<QueryEngine> engine;
  if (coordinator != nullptr) {
    engine = std::make_unique<QueryEngine>(coordinator.get(), options);
  } else if (live_database != nullptr) {
    engine = std::make_unique<QueryEngine>(live_database.get(), options);
  } else if (memory_database != nullptr) {
    engine = std::make_unique<QueryEngine>(memory_database.get(), options);
  } else {
    engine = std::make_unique<QueryEngine>(disk_database.get(), options);
  }
  if (listen) {
    if (engine->introspection_port() < 0) {
      std::fprintf(stderr, "serve-bench: failed to bind --listen port %d\n",
                   options.listen_port);
      return 1;
    }
    std::printf("listening : http://127.0.0.1:%d  "
                "(/metrics /healthz /debug/active /debug/cancel "
                "/debug/slow /debug/trace%s%s%s%s%s)\n",
                engine->introspection_port(),
                ingest_rate > 0 ? " /debug/ingest" : "",
                coordinator != nullptr ? " /debug/shards" : "",
                record_path.empty() ? "" : " /debug/workload",
                options.cache_bytes > 0 ? " /debug/cache" : "",
                num_classes > 0 ? " /debug/tenants" : "");
    std::fflush(stdout);
  }

  // Periodic metrics exposition while the bench runs: the registry is
  // snapshotted every 500 ms (what a Prometheus scraper would see), with a
  // guaranteed final snapshot after the workload drains. Snapshots are
  // written via temp-file + rename so a concurrent reader never sees a
  // torn file.
  std::mutex snapshot_mutex;
  std::condition_variable snapshot_cv;
  bool snapshot_stop = false;
  std::thread snapshot_thread;
  if (!metrics_out.empty()) {
    snapshot_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(snapshot_mutex);
      while (!snapshot_stop) {
        snapshot_cv.wait_for(lock, std::chrono::milliseconds(500));
        WriteTextFileAtomic(metrics_out, registry.PrometheusText());
      }
    });
  }

  // Background writer (read-while-write): sealed random-walk sequences of
  // workload length are submitted as ingest batches, paced to the target
  // point rate. Each batch's future is awaited, so `ingest_points` counts
  // only durable (acknowledged) points.
  std::atomic<bool> ingest_stop{false};
  std::thread ingest_thread;
  uint64_t ingest_points = 0;
  uint64_t ingest_batches = 0;
  uint64_t ingest_rejected = 0;
  const size_t ingest_checkpoint_every =
      flags.GetSize("ingest-checkpoint-every", 0);

  const auto start = std::chrono::steady_clock::now();
  if (ingest_rate > 0) {
    ingest_thread = std::thread([&] {
      Rng ingest_rng(flags.GetSize("seed", 42) + 0x9e3779b9u);
      WalkOptions walk;
      walk.dim = corpus.front().dim();
      uint64_t sent_points = 0;
      while (!ingest_stop.load(std::memory_order_acquire)) {
        const size_t length = static_cast<size_t>(ingest_rng.UniformInt(
            static_cast<int64_t>(workload.min_length),
            static_cast<int64_t>(workload.max_length)));
        IngestBatch batch;
        IngestOp op;
        op.points = GenerateRandomWalk(length, walk, &ingest_rng);
        op.seal = true;
        batch.ops.push_back(std::move(op));
        batch.checkpoint =
            ingest_checkpoint_every > 0 &&
            (ingest_batches + 1) % ingest_checkpoint_every == 0;
        IngestOutcome outcome = engine->SubmitIngest(std::move(batch)).get();
        if (outcome.rejected) {
          ++ingest_rejected;
        } else {
          ++ingest_batches;
          ingest_points += outcome.points;
        }
        sent_points += length;
        // Pace to the target: sleep until the point budget catches up.
        const double target_elapsed =
            static_cast<double>(sent_points) /
            static_cast<double>(ingest_rate);
        const double actual_elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (target_elapsed > actual_elapsed) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              target_elapsed - actual_elapsed));
        }
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      QueryOptions client_options = query_options;
      if (num_classes > 0) {
        // Round-robin clients over the admission classes.
        client_options.tenant = static_cast<uint32_t>(c % num_classes);
      }
      auto futures =
          engine->SubmitBatch(std::move(per_client[c]), client_options);
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : threads) t.join();
  if (ingest_thread.joinable()) {
    ingest_stop.store(true, std::memory_order_release);
    ingest_thread.join();
  }

  if (snapshot_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(snapshot_mutex);
      snapshot_stop = true;
    }
    snapshot_cv.notify_all();
    snapshot_thread.join();
    if (!WriteTextFileAtomic(metrics_out, registry.PrometheusText())) {
      std::fprintf(stderr, "serve-bench: failed to write %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  const EngineStats stats = engine->stats();
  const uint64_t total = clients * queries_per_client;
  std::printf("serve-bench: %zu sequences, %zu client(s) x %zu queries, "
              "%zu worker(s), queue %zu (%s)\n",
              corpus.size(), clients, queries_per_client,
              engine->num_threads(), options.queue_capacity,
              policy.c_str());
  std::printf("elapsed   : %.3f s  (%.0f queries/s end-to-end)\n",
              elapsed_s, static_cast<double>(total) / elapsed_s);
  std::printf("outcomes  : %llu served, %llu rejected, %llu shed, "
              "%llu deadline-expired, %llu cancelled\n",
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.deadline_expired),
              static_cast<unsigned long long>(stats.cancelled));
  std::printf("latency   : p50 %llu us, p99 %llu us, max %llu us, "
              "mean %.0f us\n",
              static_cast<unsigned long long>(stats.p50_latency_us),
              static_cast<unsigned long long>(stats.p99_latency_us),
              static_cast<unsigned long long>(stats.max_latency_us),
              stats.mean_latency_us);
  std::printf("work      : %llu node accesses, %llu Dnorm evaluations, "
              "%llu phase-2 candidates, %llu phase-3 matches\n",
              static_cast<unsigned long long>(stats.node_accesses),
              static_cast<unsigned long long>(stats.dnorm_evaluations),
              static_cast<unsigned long long>(stats.phase2_candidates),
              static_cast<unsigned long long>(stats.phase3_matches));
  std::printf("phases    : partition %.1f ms, first pruning %.1f ms, "
              "second pruning %.1f ms, verify %.1f ms (summed over "
              "queries)\n",
              static_cast<double>(stats.partition_ns) / 1e6,
              static_cast<double>(stats.first_pruning_ns) / 1e6,
              static_cast<double>(stats.second_pruning_ns) / 1e6,
              static_cast<double>(stats.verify_ns) / 1e6);
  if (coordinator != nullptr) {
    // Coordinator phase breakdown: time blocked on the slowest shard per
    // fan-out vs time merging shard results, summed over queries. The
    // shard-side phase totals above already include all shards' work.
    std::printf("shards    : %zu shard(s), %s placement, %s policy; "
                "fan-out wait %.1f ms, merge %.1f ms (summed over "
                "queries)\n",
                coordinator->num_shards(), placement_name.c_str(),
                FailurePolicyName(coordinator_options.failure),
                static_cast<double>(stats.fanout_wait_ns) / 1e6,
                static_cast<double>(stats.merge_ns) / 1e6);
  }
  if (num_classes > 0) {
    for (const TenantClassStats& c : engine->TenantStats()) {
      std::printf("tenant %-4s: weight %u, quota %llu; %llu submitted, "
                  "%llu served, %llu shed, %llu rejected\n",
                  c.name.c_str(), c.weight,
                  static_cast<unsigned long long>(c.quota),
                  static_cast<unsigned long long>(c.submitted),
                  static_cast<unsigned long long>(c.popped),
                  static_cast<unsigned long long>(c.shed),
                  static_cast<unsigned long long>(c.rejected));
    }
  }
  if (engine->result_cache() != nullptr) {
    const ResultCache::Stats cache = engine->result_cache()->GetStats();
    std::printf("cache     : %llu hits, %llu misses, %llu insertions, "
                "%llu evictions, %llu invalidations, %llu single-flight "
                "waits; %zu entries, %zu / %zu bytes\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.insertions),
                static_cast<unsigned long long>(cache.evictions),
                static_cast<unsigned long long>(cache.invalidations),
                static_cast<unsigned long long>(cache.singleflight_waits),
                cache.entries, cache.bytes,
                engine->result_cache()->capacity_bytes());
  }
  if (options.search.max_candidates > 0) {
    std::printf("approx    : budget %llu candidates/query\n",
                static_cast<unsigned long long>(
                    options.search.max_candidates));
  }
  if (ingest_rate > 0) {
    const IngestStatus ingest_status = live_database->Status();
    std::printf("ingest    : %llu points in %llu batch(es) (%llu rejected) "
                "-> %.0f points/s acknowledged (target %zu)\n",
                static_cast<unsigned long long>(ingest_points),
                static_cast<unsigned long long>(ingest_batches),
                static_cast<unsigned long long>(ingest_rejected),
                static_cast<double>(ingest_points) / elapsed_s, ingest_rate);
    std::printf("wal       : %llu fsyncs, %llu commits, %llu checkpoint(s), "
                "%llu pending sequences\n",
                static_cast<unsigned long long>(ingest_status.wal_fsyncs),
                static_cast<unsigned long long>(ingest_status.wal_commits),
                static_cast<unsigned long long>(ingest_status.checkpoints),
                static_cast<unsigned long long>(
                    ingest_status.pending_sequences));
  }

  if (!metrics_out.empty()) {
    std::printf("metrics   : Prometheus text -> %s\n", metrics_out.c_str());
  }
  if (!metrics_json.empty()) {
    if (!WriteTextFile(metrics_json, registry.JsonText())) {
      std::fprintf(stderr, "serve-bench: failed to write %s\n",
                   metrics_json.c_str());
      return 1;
    }
    std::printf("metrics   : JSON -> %s\n", metrics_json.c_str());
  }
  if (!trace_out.empty()) {
    const std::vector<obs::Trace> traces = engine->TakeTraces();
    if (!WriteTextFile(trace_out, obs::ChromeTraceJson(traces))) {
      std::fprintf(stderr, "serve-bench: failed to write %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("traces    : %zu kept (%llu dropped) -> %s\n", traces.size(),
                static_cast<unsigned long long>(stats.traces_dropped),
                trace_out.c_str());
  }

  if (!record_path.empty()) {
    const WorkloadRecorder* recorder = engine->workload_recorder();
    if (recorder == nullptr || !recorder->ok()) {
      std::fprintf(stderr, "serve-bench: failed to open --record=%s\n",
                   record_path.c_str());
      return 1;
    }
    std::printf("recorded  : %llu record(s), %llu bytes (%llu sampled out, "
                "%llu rotation(s)) -> %s\n",
                static_cast<unsigned long long>(recorder->records_written()),
                static_cast<unsigned long long>(recorder->bytes_written()),
                static_cast<unsigned long long>(recorder->sampled_out()),
                static_cast<unsigned long long>(recorder->rotations()),
                record_path.c_str());
  }

  // --linger_s keeps the engine (and its introspection server) alive after
  // the workload drains, so the endpoints can be probed manually.
  const size_t linger_s = flags.GetSize("linger_s", 0);
  if (linger_s > 0 && listen) {
    std::printf("linger    : serving introspection for %zu s\n", linger_s);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(linger_s));
  }
  // Drain the worker pool before any teardown (databases, registry,
  // lingering server state): without this, a query still in flight when
  // linger elapsed would race the destructors — the source of
  // nondeterministic TSan CLI smoke failures.
  engine->Shutdown();
  return 0;
}

int RunTopk(const Flags& flags) {
  auto setup = PrepareQuery(flags);
  if (!setup.has_value()) return 1;
  const size_t k = flags.GetSize("k", 5);
  SimilaritySearch engine(&setup->database);
  const std::vector<SequenceMatch> nearest =
      engine.SearchNearest(setup->query.View(), k);
  std::printf("top-%zu nearest sequences:\n", k);
  for (const SequenceMatch& match : nearest) PrintMatch(match, true);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc - 1, argv + 1);
  if (command == "gen") return RunGen(flags);
  if (command == "info") return RunInfo(flags);
  if (command == "export") return RunExport(flags);
  if (command == "query") return RunQuery(flags);
  if (command == "topk") return RunTopk(flags);
  if (command == "builddb") return RunBuildDb(flags);
  if (command == "querydb") return RunQueryDb(flags);
  if (command == "explain") return RunExplain(flags);
  if (command == "ingest") return RunIngest(flags);
  if (command == "shard-build") return RunShardBuild(flags);
  if (command == "replay") return RunReplayCmd(flags);
  if (command == "serve-bench") return RunServeBench(flags);
  return Usage();
}
