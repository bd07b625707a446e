#include "report.h"

#include <cstdio>

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"query_p50_ms", "ms"},
      {"rss_peak_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"failed_share", "ratio"},
      {"query_qps", "1/s"},
      {"query_p90_ms", "ms"},
      {"query_p99_ms", "ms"},
      {"topk_p50_ms", "ms"},
      {"topk_p99_ms", "ms"},
      {"ingest_points_per_s", "points/s"},
      {"ingest_p50_ms", "ms"},
      {"ingest_p99_ms", "ms"},
      {"trace.overhead_ms", "ms"},
      {"engine.overhead_us", "us"},
      {"engine.failed", "count"},
      {"core.partition_us", "us"},
      {"index.descent_us", "us"},
      {"index.node_visits", "count"},
      {"index.hits", "count"},
      {"core.aggregate_us", "us"},
      {"core.phase3_us", "us"},
      {"core.dnorm_evals", "count"},
      {"core.match_ratio", "ratio"},
      {"core.prefilter_survivor_ratio", "ratio"},
      {"core.verify_compute_us", "us"},
      {"core.verify_abandon_ratio", "ratio"},
      {"storage.filter_us", "us"},
      {"storage.read_seq_us", "us"},
      {"storage.bytes_read_per_query", "bytes"},
      {"storage.page_miss_ratio", "ratio"},
      {"storage.page_reads_per_query", "count"},
      {"storage.evictions_per_query", "count"},
      {"ingest.append_us", "us"},
      {"ingest.commit_ms", "ms"},
      {"ingest.checkpoint_ms", "ms"},
      {"ingest.fsyncs_per_commit", "count"},
      {"ingest.write_amp", "ratio"},
      {"ingest.read_tax", "ratio"},
      {"shard.rpc_us", "us"},
      {"shard.rpcs_per_topk", "count"},
      {"shard.node_us", "us"},
      {"shard.straggler_ratio", "ratio"},
      {"shard.codec_us", "us"},
      {"shard.coord_overhead_us", "us"},
  };
  return kMetrics;
}

std::string UnitOf(const std::string& name) {
  for (const auto* set : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *set) {
      if (name == spec.name) return spec.unit;
    }
  }
  return "";
}

void Report::Set(const std::string& name, double value, uint64_t samples,
                 const std::string& note) {
  if (entries_.count(name) == 0) order_.push_back(name);
  entries_[name] = Entry{value, samples, note};
}

bool Report::Has(const std::string& name) const {
  return entries_.count(name) > 0;
}

double Report::Get(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0.0 : it->second.value;
}

void Report::PrintText() const {
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    std::printf("metric %-30s %.6g %s n=%llu%s%s\n", name.c_str(), e.value,
                UnitOf(name).c_str(),
                static_cast<unsigned long long>(e.samples),
                e.note.empty() ? "" : " ", e.note.c_str());
  }
}

bool Report::PrintJson(const std::vector<MetricSpec>& specs, bool correct,
                       uint64_t attempted, uint64_t failed) const {
  for (const MetricSpec& spec : specs) {
    if (!Has(spec.name)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name);
      return false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < specs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, Get(specs[i].name),
                specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench
