#include "shard/message.h"

#include <cstring>

namespace mdseq {

namespace {

constexpr uint32_t kRequestMagic = 0x4d535251;   // "MSRQ"
constexpr uint32_t kResponseMagic = 0x4d535253;  // "MSRS"
// v2: trace context on requests, pruning-cascade stats fields and
// shard-recorded spans on responses. v3: prefilter-stage counters
// (abandons, survivors, ns) appended to the stats block. v4: approximate
// tier — skipped-candidate count and certified distance bound appended to
// the stats block, so the coordinator can report the weakest shard bound.
// Both ends ship in one binary, so the version is bumped cleanly rather
// than negotiated.
constexpr uint16_t kVersion = 4;

/// Sanity bound on decoded element counts: a count larger than the
/// remaining payload could even theoretically hold is rejected before any
/// allocation, so a corrupt length prefix cannot balloon memory.
constexpr uint64_t kMaxElements = 1ull << 32;

void PutU16(std::string* out, uint16_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutF64(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Bounds-checked sequential reader over an encoded message.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : data_(bytes) {}

  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U16(uint16_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }

  bool Bytes(std::string* out, size_t n) {
    if (data_.size() - pos_ < n) return false;
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  /// A count field that must leave at least `element_bytes * count` in the
  /// payload.
  bool Count(uint64_t* count, size_t element_bytes) {
    if (!U64(count)) return false;
    if (*count > kMaxElements) return false;
    return data_.size() - pos_ >= *count * element_bytes;
  }

  bool Doubles(std::vector<double>* out, size_t count) {
    if (data_.size() - pos_ < count * sizeof(double)) return false;
    out->resize(count);
    // An empty vector's data() may be null, which memcpy must not get.
    if (count == 0) return true;
    std::memcpy(out->data(), data_.data() + pos_, count * sizeof(double));
    pos_ += count * sizeof(double);
    return true;
  }

  bool done() const { return pos_ == data_.size(); }

 private:
  bool Raw(void* out, size_t n) {
    if (data_.size() - pos_ < n) return false;
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  const std::string& data_;
  size_t pos_ = 0;
};

void PutStats(std::string* out, const SearchStats& stats) {
  PutU64(out, stats.node_accesses);
  PutU64(out, stats.phase2_candidates);
  PutU64(out, stats.phase3_matches);
  PutU64(out, stats.filter_matches);
  PutU64(out, stats.dnorm_evaluations);
  PutU64(out, stats.query_mbrs);
  PutU64(out, stats.page_hits);
  PutU64(out, stats.page_misses);
  PutU64(out, stats.partition_ns);
  PutU64(out, stats.first_pruning_ns);
  PutU64(out, stats.second_pruning_ns);
  PutU64(out, stats.interval_assembly_ns);
  PutU64(out, stats.verify_ns);
  PutU64(out, stats.probe_abandons);
  PutU64(out, stats.verify_abandons);
  PutU64(out, stats.bytes_read);
  PutU64(out, stats.prefilter_abandons);
  PutU64(out, stats.prefilter_survivors);
  PutU64(out, stats.prefilter_ns);
  PutU64(out, stats.approx_candidates_skipped);
  PutF64(out, stats.approx_certified_epsilon);
}

bool ReadStats(Reader* in, SearchStats* stats) {
  uint64_t node_accesses = 0;
  uint64_t phase2_candidates = 0;
  uint64_t phase3_matches = 0;
  uint64_t filter_matches = 0;
  uint64_t dnorm_evaluations = 0;
  uint64_t query_mbrs = 0;
  if (!in->U64(&node_accesses) || !in->U64(&phase2_candidates) ||
      !in->U64(&phase3_matches) || !in->U64(&filter_matches) ||
      !in->U64(&dnorm_evaluations) || !in->U64(&query_mbrs) ||
      !in->U64(&stats->page_hits) || !in->U64(&stats->page_misses) ||
      !in->U64(&stats->partition_ns) || !in->U64(&stats->first_pruning_ns) ||
      !in->U64(&stats->second_pruning_ns) ||
      !in->U64(&stats->interval_assembly_ns) || !in->U64(&stats->verify_ns) ||
      !in->U64(&stats->probe_abandons) || !in->U64(&stats->verify_abandons) ||
      !in->U64(&stats->bytes_read) || !in->U64(&stats->prefilter_abandons) ||
      !in->U64(&stats->prefilter_survivors) ||
      !in->U64(&stats->prefilter_ns) ||
      !in->U64(&stats->approx_candidates_skipped) ||
      !in->F64(&stats->approx_certified_epsilon)) {
    return false;
  }
  stats->node_accesses = node_accesses;
  stats->phase2_candidates = static_cast<size_t>(phase2_candidates);
  stats->phase3_matches = static_cast<size_t>(phase3_matches);
  stats->filter_matches = static_cast<size_t>(filter_matches);
  stats->dnorm_evaluations = static_cast<size_t>(dnorm_evaluations);
  stats->query_mbrs = static_cast<size_t>(query_mbrs);
  return true;
}

}  // namespace

const char* ShardRpcName(ShardRpc rpc) {
  switch (rpc) {
    case ShardRpc::kSearch:
      return "search";
    case ShardRpc::kSearchVerified:
      return "search_verified";
    case ShardRpc::kVerify:
      return "verify";
    case ShardRpc::kFinalize:
      return "finalize";
    case ShardRpc::kStatus:
      return "status";
  }
  return "unknown";
}

std::string EncodeShardRequest(const ShardRequest& request) {
  std::string out;
  PutU32(&out, kRequestMagic);
  PutU16(&out, kVersion);
  out.push_back(static_cast<char>(request.rpc));
  out.push_back(0);  // reserved
  PutU64(&out, request.trace.trace_id);
  PutU64(&out, request.trace.parent_span_id);
  out.push_back(request.trace.sampled ? 1 : 0);
  PutU64(&out, request.deadline_us);
  PutF64(&out, request.epsilon);
  PutF64(&out, request.cutoff);
  PutU64(&out, request.query.dim());
  PutU64(&out, request.query.size());
  const std::vector<double>& data = request.query.data();
  out.append(reinterpret_cast<const char*>(data.data()),
             data.size() * sizeof(double));
  PutU64(&out, request.ids.size());
  for (uint64_t id : request.ids) PutU64(&out, id);
  return out;
}

bool DecodeShardRequest(const std::string& bytes, ShardRequest* request) {
  Reader in(bytes);
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t rpc_and_reserved = 0;
  if (!in.U32(&magic) || magic != kRequestMagic) return false;
  if (!in.U16(&version) || version != kVersion) return false;
  if (!in.U16(&rpc_and_reserved)) return false;
  const uint8_t rpc = static_cast<uint8_t>(rpc_and_reserved & 0xff);
  if (rpc > static_cast<uint8_t>(ShardRpc::kStatus)) return false;
  request->rpc = static_cast<ShardRpc>(rpc);
  if (!in.U64(&request->trace.trace_id)) return false;
  if (!in.U64(&request->trace.parent_span_id)) return false;
  uint8_t sampled = 0;
  if (!in.U8(&sampled) || sampled > 1) return false;
  request->trace.sampled = sampled != 0;
  if (!in.U64(&request->deadline_us)) return false;
  if (!in.F64(&request->epsilon)) return false;
  if (!in.F64(&request->cutoff)) return false;
  uint64_t dim = 0;
  uint64_t size = 0;
  if (!in.U64(&dim) || dim == 0 || dim > kMaxElements) return false;
  if (!in.U64(&size) || size > kMaxElements) return false;
  std::vector<double> data;
  if (!in.Doubles(&data, static_cast<size_t>(dim * size))) return false;
  Sequence query(static_cast<size_t>(dim));
  for (size_t i = 0; i < size; ++i) {
    query.Append(PointView(data.data() + i * dim, static_cast<size_t>(dim)));
  }
  request->query = std::move(query);
  uint64_t id_count = 0;
  if (!in.Count(&id_count, sizeof(uint64_t))) return false;
  request->ids.resize(static_cast<size_t>(id_count));
  for (uint64_t& id : request->ids) {
    if (!in.U64(&id)) return false;
  }
  return in.done();
}

std::string EncodeShardResponse(const ShardResponse& response) {
  std::string out;
  PutU32(&out, kResponseMagic);
  PutU16(&out, kVersion);
  out.push_back(static_cast<char>((response.ok ? 1 : 0) |
                                  (response.interrupted ? 2 : 0)));
  out.push_back(0);  // reserved
  PutU32(&out, static_cast<uint32_t>(response.error.size()));
  out.append(response.error);
  PutU64(&out, response.num_sequences);
  PutStats(&out, response.stats);
  PutU64(&out, response.candidates.size());
  for (uint64_t id : response.candidates) PutU64(&out, id);
  PutU64(&out, response.matches.size());
  for (const ShardMatch& match : response.matches) {
    PutU64(&out, match.local_id);
    PutF64(&out, match.min_dnorm);
    PutF64(&out, match.exact_distance);
    PutU64(&out, match.intervals.size());
    for (const Interval& interval : match.intervals) {
      PutU64(&out, interval.begin);
      PutU64(&out, interval.end);
    }
  }
  PutU64(&out, response.spans.size());
  for (const ShardSpan& span : response.spans) {
    PutU64(&out, span.name.size());
    out.append(span.name);
    PutU64(&out, span.start_ns);
    PutU64(&out, span.end_ns);
    PutU32(&out, span.depth);
    PutU64(&out, span.args.size());
    for (const auto& [key, value] : span.args) {
      PutU64(&out, key.size());
      out.append(key);
      PutU64(&out, value);
    }
  }
  return out;
}

bool DecodeShardResponse(const std::string& bytes, ShardResponse* response) {
  Reader in(bytes);
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t flags_and_reserved = 0;
  if (!in.U32(&magic) || magic != kResponseMagic) return false;
  if (!in.U16(&version) || version != kVersion) return false;
  if (!in.U16(&flags_and_reserved)) return false;
  response->ok = (flags_and_reserved & 1) != 0;
  response->interrupted = (flags_and_reserved & 2) != 0;
  uint32_t error_size = 0;
  if (!in.U32(&error_size)) return false;
  if (!in.Bytes(&response->error, error_size)) return false;
  if (!in.U64(&response->num_sequences)) return false;
  if (!ReadStats(&in, &response->stats)) return false;
  uint64_t candidate_count = 0;
  if (!in.Count(&candidate_count, sizeof(uint64_t))) return false;
  response->candidates.resize(static_cast<size_t>(candidate_count));
  for (uint64_t& id : response->candidates) {
    if (!in.U64(&id)) return false;
  }
  uint64_t match_count = 0;
  if (!in.Count(&match_count, 3 * sizeof(uint64_t))) return false;
  response->matches.clear();
  response->matches.reserve(static_cast<size_t>(match_count));
  for (uint64_t m = 0; m < match_count; ++m) {
    ShardMatch match;
    if (!in.U64(&match.local_id)) return false;
    if (!in.F64(&match.min_dnorm)) return false;
    if (!in.F64(&match.exact_distance)) return false;
    uint64_t interval_count = 0;
    if (!in.Count(&interval_count, 2 * sizeof(uint64_t))) return false;
    match.intervals.resize(static_cast<size_t>(interval_count));
    for (Interval& interval : match.intervals) {
      uint64_t begin = 0;
      uint64_t end = 0;
      if (!in.U64(&begin) || !in.U64(&end)) return false;
      interval.begin = static_cast<size_t>(begin);
      interval.end = static_cast<size_t>(end);
    }
    response->matches.push_back(std::move(match));
  }
  // Spans: name length + bytes, timestamps, depth, then args. The minimum
  // footprint of one span (empty name, no args) bounds the count check.
  uint64_t span_count = 0;
  if (!in.Count(&span_count, 3 * sizeof(uint64_t) + sizeof(uint32_t) +
                                sizeof(uint64_t))) {
    return false;
  }
  response->spans.clear();
  response->spans.reserve(static_cast<size_t>(span_count));
  for (uint64_t i = 0; i < span_count; ++i) {
    ShardSpan span;
    uint64_t name_size = 0;
    if (!in.Count(&name_size, 1)) return false;
    if (!in.Bytes(&span.name, static_cast<size_t>(name_size))) return false;
    if (!in.U64(&span.start_ns) || !in.U64(&span.end_ns)) return false;
    if (!in.U32(&span.depth)) return false;
    uint64_t arg_count = 0;
    if (!in.Count(&arg_count, 2 * sizeof(uint64_t))) return false;
    span.args.reserve(static_cast<size_t>(arg_count));
    for (uint64_t a = 0; a < arg_count; ++a) {
      uint64_t key_size = 0;
      std::string key;
      uint64_t value = 0;
      if (!in.Count(&key_size, 1)) return false;
      if (!in.Bytes(&key, static_cast<size_t>(key_size))) return false;
      if (!in.U64(&value)) return false;
      span.args.emplace_back(std::move(key), value);
    }
    response->spans.push_back(std::move(span));
  }
  return in.done();
}

}  // namespace mdseq
