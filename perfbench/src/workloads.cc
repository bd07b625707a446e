#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/database.h"
#include "core/distance.h"
#include "core/partitioning.h"
#include "core/search.h"
#include "engine/query_engine.h"
#include "ingest/live_database.h"
#include "shard/coordinator.h"
#include "shard/message.h"
#include "shard/shard_node.h"
#include "shard/shard_set.h"
#include "shard/transport.h"
#include "spans.h"
#include "stats.h"
#include "storage/disk_database.h"
#include "storage/page_file.h"
#include "util/random.h"

namespace perfbench {

using mdseq::Coordinator;
using mdseq::CoordinatorOptions;
using mdseq::DiskDatabase;
using mdseq::EngineOptions;
using mdseq::IngestBatch;
using mdseq::IngestOp;
using mdseq::IngestOutcome;
using mdseq::LiveDatabase;
using mdseq::QueryEngine;
using mdseq::QueryOptions;
using mdseq::QueryOutcome;
using mdseq::QueryStatus;
using mdseq::SearchResult;
using mdseq::Sequence;
using mdseq::SequenceDatabase;
using mdseq::SequenceMatch;
using mdseq::SequenceView;
using mdseq::ShardSet;
using mdseq::SimilaritySearch;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "mem_video_filter", "disk_synth_verified", "live_synth_ingest",
      "shard4_synth_mixed"};
  return kNames;
}

namespace {

constexpr size_t kTopK = 10;
/// Buffer pool of the disk workload: 1 MiB against a ~3050-page file, so
/// the working set does not fit.
constexpr size_t kDiskPoolPages = 256;
/// Buffer pool of the live workload: holds the whole file plus growth
/// (~3100 pages growing to ~16000 over a 15 s run).
constexpr size_t kLivePoolPages = 24576;
/// Live writer: one batch (one WAL group commit) per chunk of a stream
/// sequence, a checkpoint in the middle of every Nth batch period, and a
/// run length counted in batches (so the database grows identically in
/// every run). The writer keeps one batch in flight and offers at most this
/// many batches per second: unpaced it reached ~1400/s on a 4-vCPU machine,
/// growing the database 2.5x in a 15 s run, and every checkpoint rewrites
/// the whole base, so the file would outgrow any fixed pool. A fixed offered rate also keeps the
/// read-side load identical between commits; a write path that cannot
/// keep up shows as fewer points per second.
constexpr size_t kCheckpointEvery = 1000;
constexpr double kIngestBatchesPerSecond = 200.0;
constexpr size_t kShardCount = 4;
constexpr size_t kFanoutThreads = 2;
/// Timed statistics are medians over this many consecutive slices of the
/// window (fewer when a slice would be too thin), so a burst of outside
/// interference in one slice does not move them.
constexpr size_t kSlices = 5;
/// The timed window is cut into this many rounds, each on a fresh set-up
/// of the system after its own warm-up, so no one build's memory layout
/// and thread placement decides the result: on a 4-vCPU KVM guest the
/// per-round threshold-query p50s of `shard4_synth_mixed` in one run
/// ranged over +-15% of their median.
constexpr size_t kRounds = 5;
/// Tolerance when comparing a returned exact distance with the scan's.
constexpr double kDistanceTolerance = 1e-9;

double MsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Outcome counts and raw latency samples of one window.
struct Tally {
  std::vector<Sample> queries;
  std::vector<Sample> topk;
  std::vector<Sample> ingest;
  uint64_t attempted = 0;
  uint64_t non_ok = 0;
  uint64_t wrong = 0;
  uint64_t rejected = 0;
  uint64_t ingest_points = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Operation number the next window continues from.
  uint64_t next_op = 0;

  uint64_t failed() const { return non_ok + wrong + rejected; }
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }

  void Merge(const Tally& o) {
    queries.insert(queries.end(), o.queries.begin(), o.queries.end());
    topk.insert(topk.end(), o.topk.begin(), o.topk.end());
    ingest.insert(ingest.end(), o.ingest.begin(), o.ingest.end());
    attempted += o.attempted;
    non_ok += o.non_ok;
    wrong += o.wrong;
    rejected += o.rejected;
    ingest_points += o.ingest_points;
  }
};

/// Closed loop: `clients` threads, each with one operation in flight,
/// claim operation numbers from one shared counter starting at `first` (so
/// together they walk the seeded operation order) until `done()` says stop.
template <typename Op, typename Done>
Tally RunClients(size_t clients, const Op& op, const Done& done,
                 uint64_t first = 0) {
  std::atomic<uint64_t> next{first};
  std::vector<Tally> tallies(clients);
  const uint64_t start = NowNs();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!done()) op(next.fetch_add(1), &tallies[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  Tally total;
  for (const Tally& t : tallies) total.Merge(t);
  total.start_ns = start;
  total.end_ns = NowNs();
  total.next_op = next.load();
  return total;
}

auto Until(double seconds) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  return [deadline] { return NowNs() >= deadline; };
}

std::atomic<int> g_reported_errors{0};

void ReportWrong(const std::string& what, size_t query, double epsilon) {
  if (g_reported_errors.fetch_add(1) < 10) {
    std::fprintf(stderr, "perfbench: wrong answer (%s) query=%zu eps=%g\n",
                 what.c_str(), query, epsilon);
  }
}

/// Lemmas 1-3: a filter answer holds every exact match.
bool ContainsAll(const std::vector<SequenceMatch>& matches,
                 const std::vector<uint32_t>& exact) {
  std::vector<uint32_t> got;
  got.reserve(matches.size());
  for (const SequenceMatch& m : matches) {
    got.push_back(static_cast<uint32_t>(m.sequence_id));
  }
  std::sort(got.begin(), got.end());
  return std::includes(got.begin(), got.end(), exact.begin(), exact.end());
}

/// A verified answer is exactly the scan's set, with the scan's distances.
bool EqualsExact(const std::vector<SequenceMatch>& matches,
                 const std::vector<RefMatch>& refs, double epsilon) {
  std::vector<std::pair<uint32_t, double>> want;
  for (const RefMatch& r : refs) {
    if (r.distance <= epsilon) want.emplace_back(r.id, r.distance);
  }
  if (want.size() != matches.size()) return false;
  std::sort(want.begin(), want.end());
  std::vector<std::pair<uint32_t, double>> got;
  for (const SequenceMatch& m : matches) {
    got.emplace_back(static_cast<uint32_t>(m.sequence_id), m.exact_distance);
  }
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != want[i].first ||
        std::fabs(got[i].second - want[i].second) > kDistanceTolerance) {
      return false;
    }
  }
  return true;
}

/// A top-k answer has exactly the k nearest exact distances.
bool NearestMatch(const std::vector<SequenceMatch>& matches,
                  const std::vector<RefMatch>& refs, size_t k) {
  const size_t want = std::min(k, refs.size());
  if (matches.size() != want) return false;
  std::vector<double> got;
  for (const SequenceMatch& m : matches) got.push_back(m.exact_distance);
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < want; ++i) {
    if (std::fabs(got[i] - refs[i].distance) > kDistanceTolerance) {
      return false;
    }
  }
  return true;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Writes the spans of every window next to the database files, one
/// block after another (parent indices rebased onto the joined list).
void DumpSpans(const RunOptions& opt,
               const std::vector<std::vector<Span>>& blocks) {
  std::vector<Span> spans;
  for (const std::vector<Span>& block : blocks) {
    const int64_t base = static_cast<int64_t>(spans.size());
    for (Span s : block) {
      if (s.parent >= 0) s.parent += base;
      spans.push_back(s);
    }
  }
  const std::string path = opt.work_dir + "/spans-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".jsonl";
  if (WriteSpans(path, spans)) {
    std::printf("spans %zu written to %s\n", spans.size(), path.c_str());
  }
}

/// One threshold operation of the seeded order.
struct QueryOp {
  uint32_t query = 0;
  double epsilon = 0.0;
};

/// Every (query, epsilon) pair once, in seeded order.
std::vector<QueryOp> MakeOrder(size_t queries,
                               const std::vector<double>& epsilons,
                               uint64_t seed) {
  std::vector<QueryOp> order;
  for (size_t q = 0; q < queries; ++q) {
    for (double e : epsilons) order.push_back({static_cast<uint32_t>(q), e});
  }
  mdseq::Rng rng(MixSeed(seed, 0x6f72646572ull));
  std::shuffle(order.begin(), order.end(), rng.engine());
  return order;
}

/// Shard transport that is the library's `LoopbackTransport` when untraced
/// and, when a recorder is attached, performs the same codec round trip
/// itself so codec and node execution get their own spans. RPC spans
/// parent under the span the (single) client set as current.
class BenchTransport final : public mdseq::ShardTransport {
 public:
  explicit BenchTransport(std::vector<const mdseq::ShardNode*> nodes)
      : loopback_(nodes), nodes_(std::move(nodes)) {}

  size_t num_shards() const override { return nodes_.size(); }

  void Attach(SpanRecorder* recorder) { recorder_.store(recorder); }
  void SetParent(uint64_t op, int64_t parent) {
    op_.store(op);
    parent_.store(parent);
  }

  bool Call(uint32_t shard, const mdseq::ShardRequest& request,
            mdseq::ShardResponse* response) override {
    SpanRecorder* recorder = recorder_.load();
    if (recorder == nullptr) return loopback_.Call(shard, request, response);
    if (shard >= nodes_.size()) {
      response->error = "unknown shard";
      return false;
    }
    const uint64_t op = op_.load();
    ScopedSpan rpc(recorder, RpcSpanName(request.rpc), op, parent_.load());
    mdseq::ShardRequest decoded;
    bool ok = false;
    {
      ScopedSpan codec(recorder, "shard.codec", op, rpc.id());
      ok = mdseq::DecodeShardRequest(mdseq::EncodeShardRequest(request),
                                     &decoded);
    }
    if (!ok) {
      response->error = "request codec round-trip failed";
      return false;
    }
    mdseq::ShardResponse reply;
    {
      ScopedSpan node(recorder, "shard.node", op, rpc.id());
      reply = nodes_[shard]->Execute(decoded);
    }
    ScopedSpan codec(recorder, "shard.codec", op, rpc.id());
    if (!mdseq::DecodeShardResponse(mdseq::EncodeShardResponse(reply),
                                    response)) {
      response->error = "response codec round-trip failed";
      return false;
    }
    return true;
  }

 private:
  static const char* RpcSpanName(mdseq::ShardRpc rpc) {
    switch (rpc) {
      case mdseq::ShardRpc::kSearch:
        return "shard.rpc.search";
      case mdseq::ShardRpc::kSearchVerified:
        return "shard.rpc.search_verified";
      case mdseq::ShardRpc::kVerify:
        return "shard.rpc.verify";
      case mdseq::ShardRpc::kFinalize:
        return "shard.rpc.finalize";
      case mdseq::ShardRpc::kStatus:
        return "shard.rpc.status";
    }
    return "shard.rpc.unknown";
  }

  mdseq::LoopbackTransport loopback_;
  std::vector<const mdseq::ShardNode*> nodes_;
  std::atomic<SpanRecorder*> recorder_{nullptr};
  std::atomic<uint64_t> op_{0};
  std::atomic<int64_t> parent_{-1};
};

/// Counters the storage and ingest layers already keep; zero where a
/// workload has no such layer.
struct Counters {
  uint64_t hits = 0, misses = 0, evictions = 0, reads = 0, writes = 0;
  uint64_t wal_commits = 0, wal_fsyncs = 0, wal_bytes = 0;
  uint64_t file_pages = 0, checkpoints = 0;
};

/// Per-layer totals of the serial decomposition pass (span self times in
/// ns, counts from what the calls return).
struct Decomposition {
  uint64_t ops = 0;
  std::map<std::string, double> self_ns;
  double node_visits = 0, hits = 0, dnorm = 0;
  double phase2 = 0, phase3 = 0, prefilter_survivors = 0;
  double verifications = 0, abandons = 0, bytes = 0;

  double Us(const char* name) const {
    auto it = self_ns.find(name);
    return it == self_ns.end() || ops == 0 ? 0.0 : it->second / 1e3 / ops;
  }
};

double MeanUs(const std::map<std::string, SpanTotals>& totals,
              const char* name) {
  auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.MeanUs();
}

uint64_t Count(const std::map<std::string, SpanTotals>& totals,
               const char* name) {
  auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second.count;
}

std::unique_ptr<SequenceDatabase> BuildDatabase(
    const std::vector<Sequence>& corpus) {
  auto db = std::make_unique<SequenceDatabase>(3);
  for (const Sequence& s : corpus) db->Add(s);
  return db;
}

EngineOptions Engine(size_t workers) {
  EngineOptions options;
  options.num_threads = workers;
  return options;
}

[[noreturn]] void Fail(const char* what, const std::string& path) {
  std::fprintf(stderr, "perfbench: cannot %s %s\n", what, path.c_str());
  std::exit(1);
}

/// The measurement procedure shared by the four workloads. A subclass
/// builds the system under test in `SetUp` and supplies the calls; the
/// windows, statistics, correctness tally and per-layer arithmetic live
/// here.
class Workload {
 public:
  explicit Workload(const RunOptions& options) : opt_(options) {}
  virtual ~Workload() = default;

  RunResult Run();

 protected:
  enum class Mode {
    kEngine,  ///< operations through the serving path
    kPaired,  ///< each operation through the engine and directly
  };

  // --- What a workload supplies. ------------------------------------------
  virtual void PrepareInputs() = 0;
  virtual void SetUp() = 0;
  virtual void TearDown() = 0;
  /// "clients=2 engine_workers=2" etc.; the counts add up to 4.
  virtual std::string ThreadSplit() const = 0;
  virtual std::string Storage() const { return "memory"; }
  virtual uint64_t IngestFingerprint() const { return 0; }
  virtual size_t Clients() const = 0;
  virtual QueryEngine* engine() const = 0;
  /// Whether threshold queries run `SearchVerified`.
  virtual bool Verified() const { return false; }
  /// The direct backend call of a threshold query.
  virtual SearchResult Direct(const QueryOp& op) const = 0;
  /// The exact-answer check of a threshold answer.
  virtual bool Right(const QueryOp& op, const SearchResult& result) const {
    return ContainsAll(result.matches,
                       ExactIds(in_.refs[op.query], op.epsilon));
  }
  /// Position of operation number `n` in the threshold-query sequence,
  /// which cycles through `order_`.
  virtual uint64_t ThresholdIndex(uint64_t n) const { return n; }
  QueryOp ThresholdOp(uint64_t n) const {
    return order_[ThresholdIndex(n) % order_.size()];
  }
  /// Slices the timed statistics are medians over.
  virtual size_t Slices() const { return kSlices; }
  /// Set-ups the timed window is spread over.
  virtual size_t Rounds() const { return kRounds; }
  /// In-memory database over the same corpus for the core/index spans.
  virtual const SequenceDatabase* Replica() const = 0;
  virtual Counters Snapshot() const { return {}; }

  // --- Hooks with defaults. ------------------------------------------------
  /// One operation of the load; the default is a threshold query.
  virtual void Op(uint64_t n, Mode mode, Tally* tally, SpanRecorder* rec);
  /// A window of `seconds` whose operations are numbered from `first`
  /// (the live workload instead runs its writer's whole plan).
  virtual Tally Window(Mode mode, SpanRecorder* rec, double seconds,
                       uint64_t first = 0) {
    return RunClients(
        Clients(),
        [&](uint64_t n, Tally* tally) { Op(n, mode, tally, rec); },
        Until(seconds), first);
  }
  /// Untimed warm-up before a timed window.
  virtual void Warm(Tally* all) {
    all->Merge(Window(Mode::kEngine, nullptr, opt_.warmup_seconds));
  }
  /// Called around each round of the timed end-to-end window.
  virtual void BeforeTimed(Tally* /*all*/) {}
  virtual void AfterTimed(const Tally& /*timed*/, RunResult* /*result*/,
                          Tally* /*all*/) {}
  /// Puts the system back in its set-up state before a traced window.
  virtual void Fresh(Tally* /*all*/) {}
  /// Last checks before the final tear-down.
  virtual void Finish(Tally* /*all*/) {}
  /// Per-layer metrics only this workload's spans carry.
  virtual void LayerMetrics(const std::vector<Span>& /*paired*/,
                            RunResult* /*result*/) {}
  /// Serial per-layer decomposition of operation `n`.
  virtual void Decompose(uint64_t n, SpanRecorder* rec, Decomposition* d);

  // --- Shared pieces. ------------------------------------------------------
  void EngineQuery(uint64_t n, const QueryOp& op, Tally* tally,
                   SpanRecorder* rec);
  void DirectQuery(uint64_t n, const QueryOp& op, Tally* tally,
                   SpanRecorder* rec);
  /// Called inside an operation's root span, before the call.
  virtual void Enter(uint64_t /*n*/, int64_t /*span*/) {}
  /// Sliced percentiles `<prefix>_p<percent>_ms` of `samples`, whose
  /// operations repeat every `cycle`.
  void SetSliced(const std::string& prefix, std::initializer_list<int> percents,
                 const std::vector<Sample>& samples, size_t cycle,
                 RunResult* result);
  void PrintHeader() const;
  /// The set-ups and the timed end-to-end window spread over `Rounds()` of
  /// them; returns the timed samples and sets `setup_s` and `query_qps`.
  Tally MeasureRounds(RunResult* result, Tally* all);
  void TraceRun(RunResult* result, Tally* all);
  void StorageMetrics(const Counters& before, const Counters& after,
                      const Tally& window, RunResult* result) const;

  RunOptions opt_;
  Inputs in_;
  std::vector<QueryOp> order_;
};

void Workload::EngineQuery(uint64_t n, const QueryOp& op, Tally* tally,
                           SpanRecorder* rec) {
  Sequence query = in_.queries[op.query];
  QueryOptions options;
  options.epsilon = op.epsilon;
  options.verified = Verified();
  QueryOutcome out;
  const uint64_t start = NowNs();
  {
    ScopedSpan span(rec, "engine.query", n);
    Enter(n, span.id());
    out = engine()->Submit(std::move(query), options).get();
  }
  const double ms = MsSince(start);
  ++tally->attempted;
  if (out.status != QueryStatus::kOk) {
    ++tally->non_ok;
    return;
  }
  if (!Right(op, out.result)) {
    ++tally->wrong;
    ReportWrong(opt_.workload, op.query, op.epsilon);
  }
  tally->queries.push_back({ThresholdIndex(n), NowNs(), ms});
}

void Workload::DirectQuery(uint64_t n, const QueryOp& op, Tally* tally,
                           SpanRecorder* rec) {
  SearchResult result;
  {
    ScopedSpan span(rec, "backend.query", n);
    Enter(n, span.id());
    result = Direct(op);
  }
  ++tally->attempted;
  if (!Right(op, result)) {
    ++tally->wrong;
    ReportWrong(opt_.workload, op.query, op.epsilon);
  }
}

void Workload::Op(uint64_t n, Mode mode, Tally* tally, SpanRecorder* rec) {
  const QueryOp op = ThresholdOp(n);
  if (mode == Mode::kEngine) return EngineQuery(n, op, tally, rec);
  // Paired: both calls back to back, in alternating order so neither side
  // always finds the caches the other warmed; both see the same machine
  // state, which is what `engine.overhead_us` compares.
  if (n % 2 == 0) EngineQuery(n, op, tally, rec);
  DirectQuery(n, op, tally, rec);
  if (n % 2 == 1) EngineQuery(n, op, tally, rec);
}

void Workload::SetSliced(const std::string& prefix,
                         std::initializer_list<int> percents,
                         const std::vector<Sample>& samples, size_t cycle,
                         RunResult* result) {
  for (const int percent : percents) {
    const std::string name = prefix + "_p" + std::to_string(percent) + "_ms";
    const std::optional<SlicedStat> stat =
        SlicedPercentile(samples, percent / 100.0, Slices(), cycle);
    if (!stat) {
      result->refused.push_back(name);
      continue;
    }
    result->report.Set(name, stat->value, stat->samples, stat->Describe());
  }
}

void Workload::PrintHeader() const {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt_.workload.c_str(),
              static_cast<unsigned long long>(opt_.seed), opt_.seconds,
              opt_.trace ? 1 : 0);
  std::printf("config nproc=%zu threads=4 (%s) storage=%s\n", opt_.nproc,
              ThreadSplit().c_str(), Storage().c_str());
  if (opt_.nproc < 4) {
    std::printf("warning thread budget 4 exceeds nproc %zu\n", opt_.nproc);
  }
  std::printf("inputs corpus=%zu queries=%zu ops_in_order=%zu\n",
              in_.corpus.size(), in_.queries.size(), order_.size());
  uint64_t order = order_.size();
  for (const QueryOp& op : order_) {
    order = MixSeed(order, op.query, static_cast<uint64_t>(op.epsilon * 1e6));
  }
  std::printf("fingerprint corpus=%s queries=%s order=%s ingest=%s\n",
              Hex(Fingerprint(in_.corpus)).c_str(),
              Hex(Fingerprint(in_.queries)).c_str(), Hex(order).c_str(),
              Hex(IngestFingerprint()).c_str());
  std::fflush(stdout);
}

Tally Workload::MeasureRounds(RunResult* result, Tally* all) {
  const size_t rounds = Rounds();
  const size_t builds = std::max(opt_.setup_repeats, rounds);
  std::vector<double> seconds, rates;
  Tally timed;
  for (size_t i = 0; i < builds; ++i) {
    if (i > 0) TearDown();
    const uint64_t start = NowNs();
    SetUp();
    seconds.push_back(MsSince(start) / 1e3);
    // Set-up only, until the last `rounds` builds.
    if (i + rounds < builds) continue;
    Warm(all);
    BeforeTimed(all);
    // Operation numbers continue across rounds, so together the rounds
    // walk the seeded order as one window would.
    Tally t = Window(Mode::kEngine, nullptr, opt_.seconds / rounds,
                     timed.next_op);
    rates.push_back(static_cast<double>(t.queries.size()) / t.seconds());
    if (timed.start_ns == 0) timed.start_ns = t.start_ns;
    timed.end_ns = t.end_ns;
    timed.next_op = t.next_op;
    timed.Merge(t);
  }
  all->Merge(timed);
  Report& r = result->report;
  r.Set("setup_s", Median(seconds), seconds.size(), "median of set-ups");
  // One round: burst-robust slices of the window; more: the median of the
  // rounds' rates (the set-ups between them are not serving time).
  const std::optional<SlicedStat> qps =
      rounds > 1 ? MedianOfRounds(rates, timed.queries.size())
                 : SlicedRate(timed.queries, timed.start_ns, Slices());
  if (qps && !timed.queries.empty()) {
    r.Set("query_qps", qps->value, qps->samples, qps->Describe());
  } else {
    result->refused.push_back("query_qps");
  }
  return timed;
}

void Workload::Decompose(uint64_t n, SpanRecorder* rec, Decomposition* d) {
  const QueryOp op = ThresholdOp(n);
  const SequenceDatabase& db = *Replica();
  const SequenceView q = in_.queries[op.query].View();
  const SimilaritySearch search(&db);
  // Untimed first pass, so every timed call below finds warm caches.
  search.Search(q, op.epsilon);
  ScopedSpan root(rec, "decomp", n);
  mdseq::Partition partition;
  {
    ScopedSpan s(rec, "core.partition", n, root.id());
    partition = mdseq::PartitionSequence(q, db.options().partitioning);
  }
  std::vector<mdseq::Mbr> mbrs;
  for (const mdseq::SequenceMbr& piece : partition) mbrs.push_back(piece.mbr);
  std::vector<std::vector<mdseq::SpatialIndex::BatchHit>> hits;
  uint64_t visits = 0;
  {
    ScopedSpan s(rec, "index.descent", n, root.id());
    visits = db.index().RangeSearchBatch(mbrs, op.epsilon, &hits);
  }
  {
    ScopedSpan s(rec, "core.candidates", n, root.id());
    search.SearchCandidates(q, op.epsilon);
  }
  SearchResult result;
  {
    ScopedSpan s(rec, "core.search", n, root.id());
    result = search.Search(q, op.epsilon);
  }
  ++d->ops;
  d->node_visits += static_cast<double>(visits);
  for (const auto& h : hits) d->hits += static_cast<double>(h.size());
  d->dnorm += static_cast<double>(result.stats.dnorm_evaluations);
  d->phase2 += static_cast<double>(result.stats.phase2_candidates);
  d->phase3 += static_cast<double>(result.stats.phase3_matches);
  d->prefilter_survivors +=
      static_cast<double>(result.stats.prefilter_survivors);
}

void Workload::StorageMetrics(const Counters& before, const Counters& after,
                              const Tally& window, RunResult* result) const {
  Report& r = result->report;
  const bool storage = Storage() != "memory";
  const char* note = storage ? "" : "n/a";
  const double queries =
      static_cast<double>(std::max<size_t>(window.queries.size(), 1));
  const uint64_t lookups =
      (after.hits - before.hits) + (after.misses - before.misses);
  r.Set("storage.page_miss_ratio",
        lookups ? static_cast<double>(after.misses - before.misses) / lookups
                : 0.0,
        lookups, note);
  r.Set("storage.page_reads_per_query",
        static_cast<double>(after.reads - before.reads) / queries,
        window.queries.size(), note);
  r.Set("storage.evictions_per_query",
        static_cast<double>(after.evictions - before.evictions) / queries,
        window.queries.size(), note);
  const uint64_t commits = after.wal_commits - before.wal_commits;
  if (commits == 0) return;
  std::printf("ingest file_pages=%llu..%llu checkpoints=%llu\n",
              static_cast<unsigned long long>(before.file_pages),
              static_cast<unsigned long long>(after.file_pages),
              static_cast<unsigned long long>(after.checkpoints -
                                              before.checkpoints));
  r.Set("ingest.fsyncs_per_commit",
        static_cast<double>(after.wal_fsyncs - before.wal_fsyncs) / commits,
        commits);
  const double user_bytes =
      static_cast<double>(window.ingest_points) * 3 * sizeof(double);
  const double written =
      static_cast<double>(after.writes - before.writes) * mdseq::kPageSize +
      static_cast<double>(after.wal_bytes - before.wal_bytes);
  r.Set("ingest.write_amp", user_bytes > 0 ? written / user_bytes : 0.0,
        window.ingest.size(), "(page writes * 4096 + WAL bytes) / user bytes");
}

void Workload::TraceRun(RunResult* result, Tally* all) {
  Report& r = result->report;
  const double part = std::max(opt_.seconds / 3.0, 0.5);

  // Traced serving window: the end-to-end load with a span per operation,
  // plus the storage and ingest counter deltas.
  Fresh(all);
  SpanRecorder traced;
  const Counters before = Snapshot();
  const Tally t = Window(Mode::kEngine, &traced, part);
  const Counters after = Snapshot();
  all->Merge(t);
  const std::optional<SlicedStat> traced_p50 =
      SlicedPercentile(t.queries, 0.5, Slices(), order_.size());
  if (!traced_p50 || !r.Has("query_p50_ms")) {
    result->refused.push_back("trace.overhead_ms");
  } else {
    r.Set("trace.overhead_ms", traced_p50->value - r.Get("query_p50_ms"),
          traced_p50->samples, "traced - untraced query_p50_ms");
  }
  StorageMetrics(before, after, t, result);

  // Paired window: every operation through the engine and directly; the
  // shard transport and the live writer record their layer spans here.
  Fresh(all);
  SpanRecorder paired;
  all->Merge(Window(Mode::kPaired, &paired, part));
  const std::vector<Span> paired_spans = paired.Snapshot();
  const auto totals = TotalsByName(paired_spans);
  const double backend_us = MeanUs(totals, "backend.query");
  r.Set("engine.overhead_us", MeanUs(totals, "engine.query") - backend_us,
        Count(totals, "engine.query"),
        "residual: engine latency - direct backend call, paired");
  if (Count(totals, "backend.ingest") > 0) {
    r.Set("ingest.append_us", MeanUs(totals, "ingest.append"),
          Count(totals, "ingest.append"));
    r.Set("ingest.commit_ms", MeanUs(totals, "ingest.commit") / 1e3,
          Count(totals, "ingest.commit"));
    r.Set("ingest.checkpoint_ms", MeanUs(totals, "ingest.checkpoint") / 1e3,
          Count(totals, "ingest.checkpoint"));
  }
  LayerMetrics(paired_spans, result);

  // Serial decomposition over the start of the same operation order.
  SpanRecorder decomp;
  Decomposition d;
  const auto budget = Until(std::max(2.0, opt_.seconds / 4.0));
  for (uint64_t n = 0; n < order_.size() && (n < 20 || !budget()); ++n) {
    Decompose(n, &decomp, &d);
  }
  const std::vector<Span> decomp_spans = decomp.Snapshot();
  const std::vector<uint64_t> self = SelfTimes(decomp_spans);
  for (size_t i = 0; i < decomp_spans.size(); ++i) {
    d.self_ns[decomp_spans[i].name] += static_cast<double>(self[i]);
  }
  const double ops = static_cast<double>(std::max<uint64_t>(d.ops, 1));
  const double partition = d.Us("core.partition");
  const double descent = d.Us("index.descent");
  const double candidates = d.Us("core.candidates");
  const double search = d.Us("core.search");
  r.Set("core.partition_us", partition, d.ops);
  r.Set("index.descent_us", descent, d.ops);
  r.Set("index.node_visits", d.node_visits / ops, d.ops);
  r.Set("index.hits", d.hits / ops, d.ops);
  r.Set("core.aggregate_us", candidates - partition - descent, d.ops,
        "residual: SearchCandidates - partition - descent");
  r.Set("core.phase3_us", search - candidates, d.ops,
        "residual: Search - SearchCandidates");
  r.Set("core.dnorm_evals", d.dnorm / ops, d.ops);
  r.Set("core.match_ratio", d.phase2 > 0 ? d.phase3 / d.phase2 : 0.0, d.ops);
  r.Set("core.prefilter_survivor_ratio",
        d.phase2 > 0 ? d.prefilter_survivors / d.phase2 : 0.0, d.ops);
  std::printf("share backend_us=%.6g core+index=%.4f", backend_us,
              backend_us > 0 ? search / backend_us : 0.0);
  if (d.verifications > 0) {
    const double filter = d.Us("storage.filter");
    const double read = d.Us("storage.read_seq");
    const double verify = d.Us("core.verify_compute");
    const double total = filter + read + verify;
    r.Set("core.verify_compute_us", verify, d.ops);
    r.Set("core.verify_abandon_ratio", d.abandons / d.verifications, d.ops);
    r.Set("storage.filter_us", filter, d.ops);
    r.Set("storage.read_seq_us", read, d.ops);
    r.Set("storage.bytes_read_per_query", d.bytes / ops, d.ops);
    std::printf(" verified_path_us=%.6g read_seq+verify=%.4f phase3=%.4f",
                total, (read + verify) / total, (search - candidates) / total);
  }
  std::printf("\n");
  r.Set("engine.failed", static_cast<double>(all->non_ok), all->attempted);
  DumpSpans(opt_, {traced.Snapshot(), paired_spans, decomp_spans});
}

RunResult Workload::Run() {
  RunResult result;
  const uint64_t inputs_start = NowNs();
  PrepareInputs();
  PrintHeader();
  std::printf("inputs_s %.3f (generation and reference answers, untimed)\n",
              MsSince(inputs_start) / 1e3);

  Tally all;
  const Tally timed = MeasureRounds(&result, &all);
  Report& r = result.report;
  SetSliced("query", {50, 90, 99}, timed.queries, order_.size(), &result);
  if (!timed.topk.empty()) {
    SetSliced("topk", {50, 99}, timed.topk, order_.size(), &result);
  }
  if (!timed.ingest.empty()) {
    SetSliced("ingest", {50, 99}, timed.ingest, 0, &result);
    r.Set("ingest_points_per_s",
          static_cast<double>(timed.ingest_points) / timed.seconds(),
          timed.ingest.size());
  }
  AfterTimed(timed, &result, &all);

  if (opt_.trace) TraceRun(&result, &all);
  Finish(&all);
  TearDown();

  r.Set("rss_peak_mb", PeakRssMiB());
  result.attempted = all.attempted;
  result.failed = all.failed();
  result.correct = all.wrong == 0;
  r.Set("failed_share",
        all.attempted ? static_cast<double>(all.failed()) / all.attempted
                      : 0.0,
        all.attempted);
  return result;
}

/// Corpus, pool and cached exact references for a workload.
void PrepareInputs(CorpusKind kind, double epsilon, size_t k,
                   const RunOptions& opt, Inputs* in) {
  in->corpus = GenerateCorpus(kind, opt.scale, opt.nproc);
  in->queries = DrawQueryPool(in->corpus, opt.scale);
  if (!LoadOrComputeReferences(epsilon, k, opt.nproc, opt.cache_dir, in)) {
    std::fprintf(stderr, "perfbench: cannot cache references in %s\n",
                 opt.cache_dir.c_str());
  }
}

/// The synthetic workloads share one reference set: the largest threshold
/// any of them uses (0.2), widened to hold the k nearest for top-k.
void PrepareSynthetic(const RunOptions& opt, Inputs* in) {
  PrepareInputs(CorpusKind::kSynthetic, 0.2, kTopK, opt, in);
}

// --- mem_video_filter ------------------------------------------------------

class MemVideoFilter final : public Workload {
 public:
  using Workload::Workload;

 protected:
  void PrepareInputs() override {
    perfbench::PrepareInputs(CorpusKind::kVideo, 0.5, 1, opt_, &in_);
    order_ = MakeOrder(in_.queries.size(), {0.1, 0.2, 0.3, 0.4, 0.5},
                       opt_.seed);
  }
  void SetUp() override {
    db_ = BuildDatabase(in_.corpus);
    engine_ = std::make_unique<QueryEngine>(db_.get(), Engine(2));
    search_ = std::make_unique<SimilaritySearch>(db_.get());
  }
  void TearDown() override {
    search_.reset();
    engine_.reset();
    db_.reset();
  }
  std::string ThreadSplit() const override {
    return "clients=2 engine_workers=2";
  }
  size_t Clients() const override { return 2; }
  QueryEngine* engine() const override { return engine_.get(); }
  SearchResult Direct(const QueryOp& op) const override {
    return search_->Search(in_.queries[op.query].View(), op.epsilon);
  }
  const SequenceDatabase* Replica() const override { return db_.get(); }

 private:
  std::unique_ptr<SequenceDatabase> db_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<SimilaritySearch> search_;
};

// --- disk_synth_verified ---------------------------------------------------

class DiskSynthVerified final : public Workload {
 public:
  using Workload::Workload;

 protected:
  void PrepareInputs() override {
    PrepareSynthetic(opt_, &in_);
    order_ = MakeOrder(in_.queries.size(), {0.05, 0.1, 0.2}, opt_.seed);
    path_ = opt_.work_dir + "/disk_synth.db";
  }
  void SetUp() override {
    db_ = BuildDatabase(in_.corpus);
    if (!DiskDatabase::Save(*db_, path_)) Fail("save", path_);
    disk_ = std::make_unique<DiskDatabase>(path_, kDiskPoolPages);
    if (!disk_->valid()) Fail("open", path_);
    engine_ = std::make_unique<QueryEngine>(disk_.get(), Engine(2));
  }
  void TearDown() override {
    engine_.reset();
    disk_.reset();
    db_.reset();
    std::filesystem::remove(path_);
  }
  std::string ThreadSplit() const override {
    return "clients=2 engine_workers=2";
  }
  std::string Storage() const override {
    return "disk pool_pages=" + std::to_string(kDiskPoolPages) +
           " fsync=none(read-only)";
  }
  size_t Clients() const override { return 2; }
  QueryEngine* engine() const override { return engine_.get(); }
  bool Verified() const override { return true; }
  SearchResult Direct(const QueryOp& op) const override {
    return disk_->SearchVerified(in_.queries[op.query].View(), op.epsilon);
  }
  bool Right(const QueryOp& op, const SearchResult& result) const override {
    return EqualsExact(result.matches, in_.refs[op.query], op.epsilon);
  }
  const SequenceDatabase* Replica() const override { return db_.get(); }
  Counters Snapshot() const override {
    Counters c;
    c.hits = disk_->pool().hits();
    c.misses = disk_->pool().misses();
    c.evictions = disk_->pool().evictions();
    c.reads = disk_->file().reads();
    c.writes = disk_->file().writes();
    return c;
  }
  void Decompose(uint64_t n, SpanRecorder* rec, Decomposition* d) override {
    Workload::Decompose(n, rec, d);
    const QueryOp op = ThresholdOp(n);
    const SequenceView q = in_.queries[op.query].View();
    ScopedSpan root(rec, "decomp.verified", n);
    SearchResult filter;
    {
      ScopedSpan s(rec, "storage.filter", n, root.id());
      filter = disk_->Search(q, op.epsilon);
    }
    for (const SequenceMatch& m : filter.matches) {
      std::optional<Sequence> data;
      {
        ScopedSpan s(rec, "storage.read_seq", n, root.id());
        data = disk_->ReadSequence(m.sequence_id);
      }
      if (!data) continue;
      d->bytes += static_cast<double>(data->size() * data->dim() *
                                      sizeof(double));
      ScopedSpan s(rec, "core.verify_compute", n, root.id());
      const double exact =
          mdseq::SequenceDistanceBounded(q, data->View(), op.epsilon);
      d->verifications += 1;
      if (exact > op.epsilon) {
        d->abandons += 1;
      } else {
        mdseq::ExactSolutionInterval(q, data->View(), op.epsilon);
      }
    }
  }

 private:
  std::string path_;
  std::unique_ptr<SequenceDatabase> db_;
  std::unique_ptr<DiskDatabase> disk_;
  std::unique_ptr<QueryEngine> engine_;
};

// --- shard4_synth_mixed ----------------------------------------------------

class Shard4SynthMixed final : public Workload {
 public:
  using Workload::Workload;

 protected:
  /// At 0.1 a threshold query took ~0.35 ms, mostly thread hand-offs
  /// (client, engine worker, fan-out threads), and its p50 tracked the
  /// host's wake-up latency: 13-17% quartile spread over identical runs on
  /// a shared 4-vCPU host. At 0.2 (~0.7 ms, fan-out and merge still ~1/3)
  /// the same interleaved runs spread 9-13%.
  static constexpr double kEpsilon = 0.2;

  void PrepareInputs() override {
    PrepareSynthetic(opt_, &in_);
    order_ = MakeOrder(in_.queries.size(), {kEpsilon}, opt_.seed);
    // Single-node digests of every threshold answer.
    const std::unique_ptr<SequenceDatabase> single =
        BuildDatabase(in_.corpus);
    const SimilaritySearch search(single.get());
    digests_.resize(in_.queries.size());
    for (size_t q = 0; q < in_.queries.size(); ++q) {
      digests_[q] = mdseq::ResultDigest(
          search.Search(in_.queries[q].View(), kEpsilon).matches, false);
    }
  }
  void SetUp() override {
    db_ = BuildDatabase(in_.corpus);
    set_ = ShardSet::BuildInMemory(*db_, kShardCount,
                                   mdseq::PlacementPolicy::kHash);
    transport_ = std::make_unique<BenchTransport>(set_->nodes());
    CoordinatorOptions options;
    options.fanout_threads = kFanoutThreads;
    coordinator_ = std::make_unique<Coordinator>(transport_.get(),
                                                 set_->placement(), options);
    engine_ = std::make_unique<QueryEngine>(coordinator_.get(), Engine(1));
  }
  void TearDown() override {
    engine_.reset();
    coordinator_.reset();
    transport_.reset();
    set_.reset();
    db_.reset();
  }
  std::string ThreadSplit() const override {
    return "clients=1 engine_workers=1 fanout_threads=2 shards=4";
  }
  size_t Clients() const override { return 1; }
  QueryEngine* engine() const override { return engine_.get(); }
  SearchResult Direct(const QueryOp& op) const override {
    return coordinator_->Search(in_.queries[op.query].View(), op.epsilon);
  }
  bool Right(const QueryOp& op, const SearchResult& result) const override {
    return Workload::Right(op, result) &&
           mdseq::ResultDigest(result.matches, false) == digests_[op.query];
  }
  const SequenceDatabase* Replica() const override { return db_.get(); }
  void Enter(uint64_t n, int64_t span) override {
    transport_->SetParent(n, span);
  }

  /// Every fourth operation is a direct top-k call; the rest are threshold
  /// queries. Each kind walks the seeded order on its own.
  static bool IsTopK(uint64_t n) { return n % 4 == 3; }
  uint64_t ThresholdIndex(uint64_t n) const override { return n - n / 4; }
  void Op(uint64_t n, Mode mode, Tally* tally, SpanRecorder* rec) override {
    transport_->Attach(rec);
    if (!IsTopK(n)) return Workload::Op(n, mode, tally, rec);
    const QueryOp op = order_[(n / 4) % order_.size()];
    std::vector<SequenceMatch> nearest;
    const uint64_t start = NowNs();
    {
      ScopedSpan span(rec, "shard.topk", n);
      Enter(n, span.id());
      nearest = coordinator_->SearchNearest(in_.queries[op.query].View(),
                                            kTopK);
    }
    const double ms = MsSince(start);
    ++tally->attempted;
    if (!NearestMatch(nearest, in_.refs[op.query], kTopK)) {
      ++tally->wrong;
      ReportWrong("top-k", op.query, 0.0);
    }
    tally->topk.push_back({n / 4, NowNs(), ms});
  }

  void LayerMetrics(const std::vector<Span>& spans,
                    RunResult* result) override {
    transport_->Attach(nullptr);
    // Per root span (one engine call, direct call or top-k): its RPCs and
    // each RPC's node time. Parents precede their children.
    struct PerRoot {
      std::string name;
      uint64_t rpcs = 0;
      std::vector<uint64_t> node_ns;
    };
    std::vector<int64_t> root(spans.size(), -1);
    std::map<int64_t, PerRoot> roots;
    std::map<std::string, SpanTotals> verbs;
    uint64_t rpcs = 0, rpc_ns = 0, codec_ns = 0, node_ns = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::string name = s.name;
      root[i] = s.parent < 0 ? static_cast<int64_t>(i)
                             : root[static_cast<size_t>(s.parent)];
      PerRoot& op = roots[root[i]];
      if (s.parent < 0) {
        op.name = name;
      } else if (name.rfind("shard.rpc.", 0) == 0) {
        ++rpcs;
        ++op.rpcs;
        rpc_ns += s.duration_ns();
        SpanTotals& v = verbs[name];
        ++v.count;
        v.total_ns += s.duration_ns();
      } else if (name == "shard.codec") {
        codec_ns += s.duration_ns();
      } else if (name == "shard.node") {
        node_ns += s.duration_ns();
        op.node_ns.push_back(s.duration_ns());
      }
    }
    double topk_ops = 0, topk_rpcs = 0, straggler = 0, overhead = 0;
    uint64_t threshold_ops = 0;
    for (const auto& [index, op] : roots) {
      if (op.name == "shard.topk") {
        topk_ops += 1;
        topk_rpcs += static_cast<double>(op.rpcs);
        continue;
      }
      if (op.name != "backend.query" || op.node_ns.empty()) continue;
      const double slowest = static_cast<double>(
          *std::max_element(op.node_ns.begin(), op.node_ns.end()));
      double mean = 0;
      for (uint64_t v : op.node_ns) mean += static_cast<double>(v);
      mean /= static_cast<double>(op.node_ns.size());
      straggler += mean > 0 ? slowest / mean : 1.0;
      overhead += static_cast<double>(
                      spans[static_cast<size_t>(index)].duration_ns()) -
                  slowest;
      ++threshold_ops;
    }
    Report& r = result->report;
    const double per_rpc = rpcs ? 1.0 / static_cast<double>(rpcs) : 0.0;
    r.Set("shard.rpc_us", static_cast<double>(rpc_ns) / 1e3 * per_rpc, rpcs);
    r.Set("shard.rpcs_per_topk", topk_ops > 0 ? topk_rpcs / topk_ops : 0.0,
          static_cast<uint64_t>(topk_ops));
    r.Set("shard.node_us", static_cast<double>(node_ns) / 1e3 * per_rpc,
          rpcs);
    r.Set("shard.codec_us", static_cast<double>(codec_ns) / 1e3 * per_rpc,
          rpcs, "per RPC, request + response");
    const double tops =
        static_cast<double>(std::max<uint64_t>(threshold_ops, 1));
    r.Set("shard.straggler_ratio", straggler / tops, threshold_ops,
          "slowest / mean ShardNode::Execute per threshold query");
    r.Set("shard.coord_overhead_us", overhead / 1e3 / tops, threshold_ops,
          "residual: Coordinator::Search - slowest ShardNode::Execute");
    for (const auto& [name, v] : verbs) {
      std::printf("rpc %-28s count=%llu mean_us=%.6g\n", name.c_str(),
                  static_cast<unsigned long long>(v.count), v.MeanUs());
    }
  }

 private:
  std::vector<uint64_t> digests_;
  std::unique_ptr<SequenceDatabase> db_;
  std::unique_ptr<ShardSet> set_;
  std::unique_ptr<BenchTransport> transport_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<QueryEngine> engine_;
};

// --- live_synth_ingest -----------------------------------------------------

class LiveSynthIngest final : public Workload {
 public:
  using Workload::Workload;

 protected:
  static constexpr uint64_t kNone = ~0ull;

  /// One writer batch: points [begin, end) of stream sequence `sequence`.
  struct Chunk {
    size_t sequence = 0;
    size_t begin = 0;
    size_t end = 0;
    bool last = false;
  };

  void PrepareInputs() override {
    PrepareSynthetic(opt_, &in_);
    order_ = MakeOrder(in_.queries.size(), {0.05, 0.1}, opt_.seed);
    path_ = opt_.work_dir + "/live_synth.db";
    // Consecutive chunks of the stream sequences; the last chunk of a
    // sequence seals it.
    const size_t batches = std::max<size_t>(
        1, static_cast<size_t>(
               std::llround(opt_.seconds * kIngestBatchesPerSecond)));
    for (size_t j = 0; plan_.size() < batches; ++j) {
      stream_.push_back(IngestSequence(opt_.seed, j, opt_.scale));
      const size_t length = stream_.back().size();
      for (size_t off = 0; off < length && plan_.size() < batches;
           off += opt_.scale.ingest_chunk) {
        const size_t end = std::min(length, off + opt_.scale.ingest_chunk);
        plan_.push_back(Chunk{j, off, end, end == length});
      }
    }
  }
  void SetUp() override {
    db_ = BuildDatabase(in_.corpus);
    std::filesystem::remove(path_ + ".wal");
    if (!DiskDatabase::Save(*db_, path_)) Fail("save", path_);
    mdseq::LiveDatabaseOptions options;
    options.pool_pages = kLivePoolPages;
    live_ = std::make_unique<LiveDatabase>(path_, options);
    if (!live_->valid()) Fail("open", path_);
    engine_ = std::make_unique<QueryEngine>(live_.get(), Engine(2));
    ids_.assign(stream_.size(), kNone);
    acked_.assign(stream_.size(), 0);
  }
  void TearDown() override {
    engine_.reset();
    live_.reset();
    db_.reset();
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".wal");
  }
  std::string ThreadSplit() const override {
    return "writers=1 clients=1 engine_workers=2";
  }
  std::string Storage() const override {
    return "live pool_pages=" + std::to_string(kLivePoolPages) +
           " fsync=group-commit(1 per batch) checkpoint_every=" +
           std::to_string(kCheckpointEvery) + " offered_batches_per_s=" +
           std::to_string(static_cast<int>(kIngestBatchesPerSecond)) +
           " batches=" + std::to_string(plan_.size()) +
           " points_per_batch<=" + std::to_string(opt_.scale.ingest_chunk);
  }
  uint64_t IngestFingerprint() const override { return Fingerprint(stream_); }
  /// One window: the writer's plan is what makes the run, and each set-up
  /// would start it over.
  size_t Rounds() const override { return 1; }
  /// One slice per checkpoint period, each with its checkpoint mid-slice,
  /// so every slice carries the same background work.
  size_t Slices() const override {
    return std::max<size_t>(1, plan_.size() / kCheckpointEvery);
  }
  static bool CheckpointAfter(size_t b) {
    return (b + 1) % kCheckpointEvery == kCheckpointEvery / 2;
  }
  size_t Clients() const override { return 1; }
  QueryEngine* engine() const override { return engine_.get(); }
  /// Ingested sequences may add matches; the check covers the base corpus.
  SearchResult Direct(const QueryOp& op) const override {
    return live_->Search(in_.queries[op.query].View(), op.epsilon);
  }
  const SequenceDatabase* Replica() const override { return db_.get(); }
  Counters Snapshot() const override {
    const mdseq::IngestStatus status = live_->Status();
    Counters c;
    c.hits = live_->pool().hits();
    c.misses = live_->pool().misses();
    c.evictions = live_->pool().evictions();
    c.reads = live_->file().reads();
    c.writes = live_->file().writes();
    c.wal_commits = status.wal_commits;
    c.wal_fsyncs = status.wal_fsyncs;
    c.wal_bytes = status.wal_bytes;
    c.file_pages = status.file_pages;
    c.checkpoints = status.checkpoints;
    return c;
  }

  /// The writer's whole plan beside one querying client; the window is the
  /// writer's run. Engine mode writes through `SubmitIngest`; paired mode
  /// writes with direct `LiveDatabase` calls (the ingest-layer spans).
  Tally Window(Mode mode, SpanRecorder* rec, double /*seconds*/,
               uint64_t /*first*/) override {
    std::atomic<bool> done{false};
    Tally writes;
    const uint64_t start = NowNs();
    std::thread writer([&] {
      for (size_t b = 0; b < plan_.size(); ++b) {
        const uint64_t due =
            start + static_cast<uint64_t>(1e9 * b / kIngestBatchesPerSecond);
        const uint64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        if (mode == Mode::kEngine) {
          IngestViaEngine(b, &writes, rec);
        } else {
          IngestDirect(b, &writes, rec);
        }
      }
      done.store(true);
    });
    Tally reads = RunClients(
        1, [&](uint64_t n, Tally* tally) { Op(n, mode, tally, rec); },
        [&] { return done.load(); });
    writer.join();
    reads.Merge(writes);
    reads.start_ns = start;
    reads.end_ns = NowNs();
    return reads;
  }
  /// Queries only: warming up must not grow the database.
  void Warm(Tally* all) override { Quiet(opt_.warmup_seconds, all); }
  void BeforeTimed(Tally* all) override {
    if (opt_.trace) quiet_before_ = Quiet(opt_.seconds / 4.0, all);
  }
  void AfterTimed(const Tally& timed, RunResult* result,
                  Tally* all) override {
    CheckReadBack(all);
    if (!opt_.trace) return;
    const double quiet_after = Quiet(opt_.seconds / 4.0, all);
    const double quiet = (quiet_before_ + quiet_after) / 2.0;
    const double busy = result->report.Get("query_p50_ms");
    result->report.Set(
        "ingest.read_tax", quiet > 0 ? busy / quiet : 0.0,
        timed.queries.size(),
        "query p50 with writer / mean of p50 paused before and after");
  }
  /// Each traced window starts from a fresh copy of the database, so all
  /// windows see the same growth.
  void Fresh(Tally* all) override {
    CheckReadBack(all);
    TearDown();
    SetUp();
    Warm(all);
  }
  void Finish(Tally* all) override { CheckReadBack(all); }

 private:
  void IngestViaEngine(size_t b, Tally* tally, SpanRecorder* rec) {
    const Chunk& c = plan_[b];
    IngestBatch batch;
    IngestOp op;
    op.sequence_id = ids_[c.sequence] == kNone ? IngestOp::kNewSequence
                                               : ids_[c.sequence];
    op.points = stream_[c.sequence].Slice(c.begin, c.end).Materialize();
    op.seal = c.last;
    batch.ops.push_back(std::move(op));
    batch.checkpoint = CheckpointAfter(b);
    IngestOutcome out;
    const uint64_t start = NowNs();
    {
      ScopedSpan span(rec, "engine.ingest", b);
      out = engine_->SubmitIngest(std::move(batch)).get();
    }
    const double ms = MsSince(start);
    ++tally->attempted;
    if (out.rejected || !out.ok ||
        (ids_[c.sequence] == kNone && out.sequence_ids.empty())) {
      ++tally->rejected;
      return;
    }
    if (ids_[c.sequence] == kNone) ids_[c.sequence] = out.sequence_ids[0];
    Acknowledge(b, tally, ms);
  }

  void IngestDirect(size_t b, Tally* tally, SpanRecorder* rec) {
    const Chunk& c = plan_[b];
    bool ok = true;
    const uint64_t start = NowNs();
    {
      ScopedSpan root(rec, "backend.ingest", b);
      if (ids_[c.sequence] == kNone) {
        ids_[c.sequence] = live_->BeginSequence();
      }
      const uint64_t id = ids_[c.sequence];
      {
        ScopedSpan s(rec, "ingest.append", b, root.id());
        ok = live_->AppendPoints(
            id, stream_[c.sequence].View().Slice(c.begin, c.end));
      }
      if (c.last) ok = live_->SealSequence(id) && ok;
      {
        ScopedSpan s(rec, "ingest.commit", b, root.id());
        ok = live_->Commit() && ok;
      }
      if (CheckpointAfter(b)) {
        ScopedSpan s(rec, "ingest.checkpoint", b, root.id());
        ok = live_->Checkpoint() && ok;
      }
    }
    const double ms = MsSince(start);
    ++tally->attempted;
    if (!ok) {
      ++tally->rejected;
      return;
    }
    Acknowledge(b, tally, ms);
  }

  void Acknowledge(size_t b, Tally* tally, double ms) {
    const Chunk& c = plan_[b];
    acked_[c.sequence] = c.end;
    tally->ingest_points += c.end - c.begin;
    tally->ingest.push_back({b, NowNs(), ms});
  }

  /// Every acknowledged prefix reads back bit-identical; a mismatch is a
  /// failed operation.
  void CheckReadBack(Tally* all) {
    for (size_t j = 0; j < stream_.size(); ++j) {
      if (acked_[j] == 0) continue;
      ++all->attempted;
      const std::optional<Sequence> got = live_->ReadSequence(ids_[j]);
      const size_t values = acked_[j] * stream_[j].dim();
      if (!got || got->size() != acked_[j] ||
          std::memcmp(got->data().data(), stream_[j].data().data(),
                      values * sizeof(double)) != 0) {
        ++all->wrong;
        ReportWrong("live read-back", j, 0.0);
      }
      acked_[j] = 0;
    }
  }

  /// Writer-paused queries for `seconds`; returns their p50.
  double Quiet(double seconds, Tally* all) {
    const Tally t = Workload::Window(Mode::kEngine, nullptr, seconds);
    all->Merge(t);
    const std::optional<SlicedStat> p50 =
        SlicedPercentile(t.queries, 0.5, Slices(), order_.size());
    return p50 ? p50->value : 0.0;
  }

  std::string path_;
  std::vector<Sequence> stream_;
  std::vector<Chunk> plan_;
  std::vector<uint64_t> ids_;
  std::vector<size_t> acked_;
  double quiet_before_ = 0.0;
  std::unique_ptr<SequenceDatabase> db_;
  std::unique_ptr<LiveDatabase> live_;
  std::unique_ptr<QueryEngine> engine_;
};

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  std::filesystem::create_directories(options.work_dir);
  RunResult result;
  if (options.workload == "mem_video_filter") {
    result = MemVideoFilter(options).Run();
  } else if (options.workload == "disk_synth_verified") {
    result = DiskSynthVerified(options).Run();
  } else if (options.workload == "shard4_synth_mixed") {
    result = Shard4SynthMixed(options).Run();
  } else {
    result = LiveSynthIngest(options).Run();
  }
  // Per-layer metrics a workload's layers do not reach read 0 ("n/a").
  if (options.trace) {
    for (const MetricSpec& spec : PerLayerMetrics()) {
      if (!result.report.Has(spec.name)) {
        result.report.Set(spec.name, 0.0, 0, "n/a");
      }
    }
  }
  return result;
}

}  // namespace perfbench
