#include "storage/disk_database.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "obs/trace.h"
#include "storage/disk_format.h"
#include "storage/page_stream.h"
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

// The master page layout and the partition region byte format are shared
// with the live ingest path; see storage/disk_format.h.
using diskfmt::AppendPartition;
using diskfmt::MasterLayout;
using diskfmt::ReadPartition;

}  // namespace

bool DiskDatabase::Save(const SequenceDatabase& database,
                        const std::string& path) {
  PageFile file;
  if (!file.Create(path)) return false;
  const PageId master_page = file.Allocate();
  if (master_page == kInvalidPageId) return false;

  // Sequence store region.
  std::vector<Sequence> corpus;
  corpus.reserve(database.num_sequences());
  for (size_t id = 0; id < database.num_sequences(); ++id) {
    corpus.push_back(database.sequence(id));
  }
  const PageId store_meta = SequenceStore::WriteInto(corpus, &file);
  if (store_meta == kInvalidPageId) return false;

  // Partition region.
  PageStreamWriter partitions(&file);
  for (size_t id = 0; id < database.num_sequences(); ++id) {
    if (!AppendPartition(&partitions, database.partition(id),
                         database.dim())) {
      return false;
    }
  }
  if (!partitions.Finish()) return false;

  // Index region: every subsequence MBR, same payloads as the in-memory
  // index.
  std::vector<IndexEntry> entries;
  for (size_t id = 0; id < database.num_sequences(); ++id) {
    const Partition& partition = database.partition(id);
    for (size_t ordinal = 0; ordinal < partition.size(); ++ordinal) {
      entries.push_back(
          IndexEntry{partition[ordinal].mbr,
                     SequenceDatabase::PackEntry(id, ordinal)});
    }
  }
  const PageId index_root =
      PagedRTree::BuildInto(database.dim(), std::move(entries), &file);
  if (index_root == kInvalidPageId) return false;

  // Master meta page.
  Page master;
  std::memset(master.data, 0, kPageSize);
  MasterLayout layout;
  layout.dim = database.dim();
  layout.sequence_count = database.num_sequences();
  layout.store_meta_page = store_meta;
  layout.index_root_page = index_root;
  layout.partitions_first_page = partitions.first_page();
  layout.partitions_page_count = partitions.page_count();
  layout.side_growth = database.options().partitioning.side_growth;
  layout.max_points = database.options().partitioning.max_points;
  layout.cost_model =
      static_cast<uint8_t>(database.options().partitioning.cost_model);
  std::memcpy(master.data, &layout, sizeof(layout));
  if (!file.Write(master_page, master)) return false;
  return file.set_root_hint(master_page);
}

DiskDatabase::DiskDatabase(const std::string& path, size_t pool_pages,
                           const SearchOptions& options)
    : options_(options) {
  if (!file_.Open(path)) return;
  pool_ = std::make_unique<BufferPool>(&file_, pool_pages);

  const PageId master_page = file_.root_hint();
  if (master_page == kInvalidPageId) return;
  MasterLayout layout;
  {
    PageHandle master = pool_->Fetch(master_page);
    if (!master.valid()) return;
    std::memcpy(&layout, master.page().data, sizeof(layout));
  }
  dim_ = static_cast<size_t>(layout.dim);
  if (dim_ == 0) return;
  partitioning_.side_growth = layout.side_growth;
  partitioning_.max_points = static_cast<size_t>(layout.max_points);
  partitioning_.cost_model =
      static_cast<PartitioningOptions::CostModel>(layout.cost_model);

  store_ = std::make_unique<SequenceStore>(pool_.get(),
                                           layout.store_meta_page, dim_);
  if (!store_->valid() || store_->size() != layout.sequence_count) return;

  tree_ = std::make_unique<PagedRTree>(dim_, pool_.get(),
                                       layout.index_root_page);
  if (!tree_->valid()) return;

  // Partition catalog: read once, kept resident.
  partitions_.resize(layout.sequence_count);
  lengths_.resize(layout.sequence_count);
  PageStreamReader reader(pool_.get(), layout.partitions_first_page, 0);
  for (uint64_t id = 0; id < layout.sequence_count; ++id) {
    if (!ReadPartition(&reader, dim_, &partitions_[id])) return;
    lengths_[id] =
        partitions_[id].empty() ? 0 : partitions_[id].back().end;
  }
  valid_ = true;
}

SearchResult DiskDatabase::Search(SequenceView query, double epsilon) const {
  return Search(query, epsilon, SearchControl());
}

SearchResult DiskDatabase::Search(SequenceView query, double epsilon,
                                  const SearchControl& control) const {
  MDSEQ_CHECK(valid_);
  MDSEQ_CHECK(!query.empty());
  MDSEQ_CHECK(query.dim() == dim_);
  MDSEQ_CHECK(epsilon >= 0.0);

  SearchResult result;

  // Phase 1: query partitioning with the stored options.
  const Partition query_partition = internal::PartitionQuery(
      query, partitioning_, control, &result.stats);

  const internal::CandidateSet pruned = internal::PagedFirstPruning(
      *tree_, query_partition, epsilon, nullptr, control, &result);

  // Phase 3 on the resident partition catalog.
  internal::SecondPruning(
      query_partition, query.size(), epsilon, options_, pruned,
      [this](size_t id, size_t* length) {
        *length = lengths_[id];
        return &partitions_[id];
      },
      control, &result);
  return result;
}

namespace internal {

CandidateSet PagedFirstPruning(const PagedRTree& tree,
                               const Partition& query_partition,
                               double epsilon, const ExtraHits& extra,
                               const SearchControl& control,
                               SearchResult* result) {
  control.SetPhase(SearchPhase::kFirstPruning);
  SearchStats& stats = result->stats;
  obs::SpanScope span(control.trace, "first_pruning");
  const auto start = SteadyClock::now();
  std::vector<Mbr> queries;
  queries.reserve(query_partition.size());
  for (const SequenceMbr& piece : query_partition) {
    queries.push_back(piece.mbr);
  }
  std::vector<std::vector<SpatialIndex::BatchHit>> hits;
  {
    obs::SpanScope search_span(control.trace, "range_search");
    tree.RangeSearchBatch(queries, epsilon, &hits, &stats.node_accesses,
                          &stats.page_misses);
    search_span.Arg("probes", queries.size());
    search_span.Arg("node_visits", stats.node_accesses);
    search_span.Arg("pool_misses", stats.page_misses);
  }
  stats.page_hits = stats.node_accesses - stats.page_misses;
  if (extra) extra(queries, &hits.emplace_back());
  CandidateSet pruned = AggregateCandidates(hits);
  result->candidates = pruned.ids;
  stats.phase2_candidates = pruned.ids.size();
  if (control.progress != nullptr) {
    control.progress->phase2_candidates.store(pruned.ids.size(),
                                              std::memory_order_relaxed);
  }
  stats.first_pruning_ns += ElapsedNs(start);
  span.Arg("node_accesses", stats.node_accesses);
  span.Arg("pool_hits", stats.page_hits);
  span.Arg("pool_misses", stats.page_misses);
  span.Arg("candidates", pruned.ids.size());
  return pruned;
}

}  // namespace internal

SearchResult DiskDatabase::SearchVerified(SequenceView query,
                                          double epsilon) const {
  return SearchVerified(query, epsilon, SearchControl());
}

SearchResult DiskDatabase::SearchVerified(SequenceView query, double epsilon,
                                          const SearchControl& control) const {
  SearchResult result = Search(query, epsilon, control);
  internal::VerifyMatches(
      query, epsilon,
      [this](size_t id, std::optional<Sequence>* owned) {
        *owned = store_->Read(id);  // an I/O failure drops the match
        return owned->has_value() ? (*owned)->View() : SequenceView();
      },
      control, &result);
  return result;
}

std::optional<Sequence> DiskDatabase::ReadSequence(size_t id) const {
  MDSEQ_CHECK(valid_);
  MDSEQ_CHECK(id < store_->size());
  return store_->Read(id);
}

}  // namespace mdseq
