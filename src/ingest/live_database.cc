#include "ingest/live_database.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/database.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "storage/disk_database.h"
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

void PutU64(std::vector<uint8_t>* out, uint64_t value) {
  const size_t at = out->size();
  out->resize(at + sizeof(value));
  std::memcpy(out->data() + at, &value, sizeof(value));
}

// Cursor over a WAL record payload; `ok` latches false on short reads so
// a malformed record is skipped instead of crashing recovery.
struct PayloadReader {
  const std::vector<uint8_t>& bytes;
  size_t at = 0;
  bool ok = true;

  uint64_t U64() {
    uint64_t value = 0;
    if (at + sizeof(value) > bytes.size()) {
      ok = false;
      return 0;
    }
    std::memcpy(&value, bytes.data() + at, sizeof(value));
    at += sizeof(value);
    return value;
  }
  bool Doubles(double* out, size_t count) {
    const size_t want = count * sizeof(double);
    if (at + want > bytes.size()) {
      ok = false;
      return false;
    }
    std::memcpy(out, bytes.data() + at, want);
    at += want;
    return true;
  }
};

}  // namespace

bool LiveDatabase::Create(const std::string& path, size_t dim,
                          const PartitioningOptions& partitioning) {
  MDSEQ_CHECK(dim > 0);
  // A stale log from a previous database at this path must not be
  // replayed into the fresh one.
  std::remove((path + ".wal").c_str());

  PageFile file;
  if (!file.Create(path)) return false;
  const PageId master_page = file.Allocate();
  if (master_page == kInvalidPageId) return false;
  const PageId store_meta =
      SequenceStore::WriteInto(std::vector<Sequence>(), &file);
  if (store_meta == kInvalidPageId) return false;
  PageStreamWriter partitions(&file);
  if (!partitions.Finish()) return false;
  const PageId index_root =
      PagedRTree::BuildInto(dim, std::vector<IndexEntry>(), &file);
  if (index_root == kInvalidPageId) return false;

  Page master;
  std::memset(master.data, 0, kPageSize);
  diskfmt::MasterLayout layout;
  std::memset(&layout, 0, sizeof(layout));
  layout.dim = dim;
  layout.sequence_count = 0;
  layout.store_meta_page = store_meta;
  layout.index_root_page = index_root;
  layout.partitions_first_page = partitions.first_page();
  layout.partitions_page_count = partitions.page_count();
  layout.side_growth = partitioning.side_growth;
  layout.max_points = partitioning.max_points;
  layout.cost_model = static_cast<uint8_t>(partitioning.cost_model);
  std::memcpy(master.data, &layout, sizeof(layout));
  if (!file.Write(master_page, master)) return false;
  if (!file.set_root_hint(master_page)) return false;
  return file.Sync();
}

LiveDatabase::LiveDatabase(const std::string& path,
                           const LiveDatabaseOptions& options)
    : wal_path_(path + ".wal"), options_(options.search) {
  if (!file_.Open(path)) return;
  pool_ = std::make_unique<BufferPool>(&file_, options.pool_pages);

  const PageId master_page = file_.root_hint();
  if (master_page == kInvalidPageId) return;
  diskfmt::MasterLayout layout;
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

  auto base = std::make_shared<BaseState>();
  base->store =
      std::make_unique<SequenceStore>(pool_.get(), layout.store_meta_page,
                                      dim_);
  if (!base->store->valid() ||
      base->store->size() != layout.sequence_count) {
    return;
  }
  base->partitions.resize(layout.sequence_count);
  base->lengths.resize(layout.sequence_count);
  PageStreamReader reader(pool_.get(), layout.partitions_first_page, 0);
  for (uint64_t id = 0; id < layout.sequence_count; ++id) {
    if (!diskfmt::ReadPartition(&reader, dim_, &base->partitions[id])) {
      return;
    }
    base->lengths[id] =
        base->partitions[id].empty() ? 0 : base->partitions[id].back().end;
  }
  base_ = std::move(base);
  base_count_ = layout.sequence_count;
  next_id_ = base_count_;

  tree_ = std::make_unique<PagedRTree>(dim_, pool_.get(),
                                       layout.index_root_page);
  if (!tree_->valid()) return;

  // Replay the WAL tail over the checkpoint. A torn log *header* rejects
  // the open; a torn tail is the normal crash shape — everything before
  // the tear was acknowledged and is recovered, the tear itself never was.
  const WalScanResult scan = WalScan(wal_path_);
  if (!scan.ok) return;
  for (const WalRecord& record : scan.records) {
    PayloadReader in{record.payload};
    switch (record.type) {
      case WalRecordType::kBeginSequence: {
        const uint64_t id = in.U64();
        const uint64_t rdim = in.U64();
        if (!in.ok || id < base_count_) break;
        if (rdim != dim_) return;  // foreign log: refuse
        pending_.emplace(id, PendingSeq(dim_, partitioning_));
        next_id_ = std::max(next_id_, id + 1);
        break;
      }
      case WalRecordType::kAppendPoints: {
        const uint64_t id = in.U64();
        const uint64_t rdim = in.U64();
        const uint64_t count = in.U64();
        if (!in.ok || id < base_count_) break;
        if (rdim != dim_) return;
        auto it = pending_.find(id);
        if (it == pending_.end()) break;
        std::vector<double> point(dim_);
        for (uint64_t i = 0; i < count; ++i) {
          if (!in.Doubles(point.data(), dim_)) break;
          const PointView p(point.data(), dim_);
          it->second.data.Append(p);
          if (std::optional<SequenceMbr> piece =
                  it->second.partitioner.Add(p)) {
            it->second.sealed.push_back(*piece);
          }
        }
        break;
      }
      case WalRecordType::kSealSequence: {
        const uint64_t id = in.U64();
        if (!in.ok || id < base_count_) break;
        auto it = pending_.find(id);
        if (it == pending_.end()) break;
        if (std::optional<SequenceMbr> tail =
                it->second.partitioner.Finish()) {
          it->second.sealed.push_back(*tail);
        }
        it->second.sealed_done = true;
        break;
      }
      case WalRecordType::kIndexedPieces: {
        const uint64_t id = in.U64();
        const uint64_t pieces = in.U64();
        if (!in.ok || id < base_count_) break;
        auto it = pending_.find(id);
        if (it == pending_.end()) break;
        it->second.tree_pieces =
            std::min(static_cast<size_t>(pieces), it->second.sealed.size());
        break;
      }
    }
  }
  recovered_records_.store(scan.records.size(), std::memory_order_relaxed);
  uint64_t recovered_points = 0;
  for (auto& [id, seq] : pending_) {
    recovered_points += seq.data.size();
    // Pieces beyond the kIndexedPieces hint were sealed after the last
    // checkpoint; the persisted root predates them, so re-insert.
    if (!IndexSealedLocked(id, &seq)) return;
  }
  points_total_.store(recovered_points, std::memory_order_relaxed);

  // Re-found the log on the recovered state (also creates it on first
  // open) so replay work is not repeated next time.
  if (!RewriteWalLocked()) return;
  PublishLocked();
  valid_ = true;

  if (!scan.records.empty() || scan.truncated_tail) {
    obs::Logger::Global()
        .Info("wal_recovered")
        .U64("records", scan.records.size())
        .U64("pending_sequences", pending_.size())
        .U64("points", recovered_points)
        .Bool("truncated_tail", scan.truncated_tail);
  }
}

LiveDatabase::~LiveDatabase() {
  // Uncheckpointed state stays in the WAL; the next open replays it. Only
  // push dirty pages out so the file matches the last checkpoint barrier.
  if (pool_ != nullptr) pool_->Flush();
}

uint64_t LiveDatabase::BeginSequence() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  MDSEQ_CHECK(valid_);
  const uint64_t id = next_id_++;
  std::vector<uint8_t> payload;
  PutU64(&payload, id);
  PutU64(&payload, dim_);
  wal_.Append(WalRecordType::kBeginSequence, payload.data(), payload.size());
  wal_records_.fetch_add(1, std::memory_order_relaxed);
  pending_.emplace(id, PendingSeq(dim_, partitioning_));
  return id;
}

bool LiveDatabase::AppendPoints(uint64_t sequence_id, SequenceView span) {
  if (span.empty()) return true;
  if (span.dim() != dim_) return false;  // caller data, not an invariant
  std::lock_guard<std::mutex> lock(writer_mutex_);
  MDSEQ_CHECK(valid_);
  auto it = pending_.find(sequence_id);
  if (it == pending_.end() || it->second.sealed_done) return false;
  PendingSeq& seq = it->second;

  std::vector<uint8_t> payload;
  payload.reserve(24 + span.size() * dim_ * sizeof(double));
  PutU64(&payload, sequence_id);
  PutU64(&payload, dim_);
  PutU64(&payload, span.size());
  const size_t at = payload.size();
  payload.resize(at + span.size() * dim_ * sizeof(double));
  std::memcpy(payload.data() + at, &span[0][0],
              span.size() * dim_ * sizeof(double));
  if (!wal_.Append(WalRecordType::kAppendPoints, payload.data(),
                   payload.size())) {
    return false;
  }
  wal_records_.fetch_add(1, std::memory_order_relaxed);

  for (size_t i = 0; i < span.size(); ++i) {
    seq.data.Append(span[i]);
    if (std::optional<SequenceMbr> piece = seq.partitioner.Add(span[i])) {
      seq.sealed.push_back(*piece);
    }
  }
  seq.dirty = true;
  points_total_.fetch_add(span.size(), std::memory_order_relaxed);
  return IndexSealedLocked(sequence_id, &seq);
}

bool LiveDatabase::SealSequence(uint64_t sequence_id) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  MDSEQ_CHECK(valid_);
  auto it = pending_.find(sequence_id);
  if (it == pending_.end() || it->second.sealed_done) return false;
  PendingSeq& seq = it->second;

  std::vector<uint8_t> payload;
  PutU64(&payload, sequence_id);
  if (!wal_.Append(WalRecordType::kSealSequence, payload.data(),
                   payload.size())) {
    return false;
  }
  wal_records_.fetch_add(1, std::memory_order_relaxed);

  if (std::optional<SequenceMbr> tail = seq.partitioner.Finish()) {
    seq.sealed.push_back(*tail);
  }
  seq.sealed_done = true;
  seq.dirty = true;
  return IndexSealedLocked(sequence_id, &seq);
}

bool LiveDatabase::IndexSealedLocked(uint64_t id, PendingSeq* seq) {
  while (seq->tree_pieces < seq->sealed.size()) {
    const size_t ordinal = seq->tree_pieces;
    if (!tree_->InsertCow(seq->sealed[ordinal].mbr,
                          SequenceDatabase::PackEntry(
                              static_cast<size_t>(id), ordinal),
                          &file_, &retired_batch_, &free_pages_)) {
      return false;
    }
    ++seq->tree_pieces;
    tree_inserts_.fetch_add(1, std::memory_order_relaxed);
  }
  free_count_.store(free_pages_.size(), std::memory_order_relaxed);
  return true;
}

bool LiveDatabase::Commit() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  MDSEQ_CHECK(valid_);
  const uint64_t before = wal_.bytes_committed();
  if (!wal_.Commit()) return false;
  if (wal_.bytes_committed() > before) {
    wal_commits_.fetch_add(1, std::memory_order_relaxed);
    wal_fsyncs_.fetch_add(1, std::memory_order_relaxed);
    wal_bytes_.fetch_add(wal_.bytes_committed() - before,
                         std::memory_order_relaxed);
  }
  wal_pages_.store(wal_.pages(), std::memory_order_relaxed);
  PublishLocked();
  return true;
}

void LiveDatabase::PublishLocked() {
  std::shared_ptr<const Snapshot> prev = CurrentSnapshot();
  auto snap = std::make_shared<Snapshot>();
  snap->base = base_;
  snap->root = tree_->root();
  snap->sequence_count = next_id_;
  snap->pending.reserve(pending_.size());
  for (auto& [id, seq] : pending_) {
    if (!seq.dirty && prev != nullptr) {
      if (const PendingView* old = FindPending(*prev, id)) {
        snap->pending.push_back(*old);
        continue;
      }
    }
    PendingView view;
    view.id = id;
    if (!seq.data.empty()) {
      view.data = std::make_shared<const Sequence>(seq.data);
    }
    view.partition = seq.sealed;
    if (std::optional<SequenceMbr> partial = seq.partitioner.Partial()) {
      view.partition.push_back(*partial);
    }
    view.length = seq.data.size();
    view.sealed = seq.sealed_done;
    view.tree_pieces = seq.tree_pieces;
    snap->pending.push_back(std::move(view));
    seq.dirty = false;
  }
  epochs_.Retire(std::move(retired_batch_));
  retired_batch_.clear();
  snap->pin = epochs_.PinCurrent();
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = std::move(snap);
  }
  // Bump after the swap: a cache stamp is captured before its query
  // executes, so the stamp can never run ahead of the data it describes.
  snapshot_version_.fetch_add(1, std::memory_order_acq_rel);
}

bool LiveDatabase::RewriteWalLocked() {
  // Build the replacement log beside the live one and rename it into
  // place, so a crash mid-rewrite leaves the old (complete) log intact.
  const std::string fresh_path = wal_path_ + ".new";
  WalWriter fresh;
  if (!fresh.Create(fresh_path)) return false;
  for (const auto& [id, seq] : pending_) {
    std::vector<uint8_t> payload;
    PutU64(&payload, id);
    PutU64(&payload, dim_);
    if (!fresh.Append(WalRecordType::kBeginSequence, payload.data(),
                      payload.size())) {
      return false;
    }
    if (!seq.data.empty()) {
      payload.clear();
      PutU64(&payload, id);
      PutU64(&payload, dim_);
      PutU64(&payload, seq.data.size());
      const size_t at = payload.size();
      payload.resize(at + seq.data.data().size() * sizeof(double));
      std::memcpy(payload.data() + at, seq.data.data().data(),
                  seq.data.data().size() * sizeof(double));
      if (!fresh.Append(WalRecordType::kAppendPoints, payload.data(),
                        payload.size())) {
        return false;
      }
    }
    if (seq.sealed_done) {
      payload.clear();
      PutU64(&payload, id);
      if (!fresh.Append(WalRecordType::kSealSequence, payload.data(),
                        payload.size())) {
        return false;
      }
    }
    if (seq.tree_pieces > 0) {
      payload.clear();
      PutU64(&payload, id);
      PutU64(&payload, seq.tree_pieces);
      if (!fresh.Append(WalRecordType::kIndexedPieces, payload.data(),
                        payload.size())) {
        return false;
      }
    }
  }
  if (!fresh.Commit()) return false;
  fresh.Close();
  wal_.Close();
  if (std::rename(fresh_path.c_str(), wal_path_.c_str()) != 0) return false;
  if (!wal_.OpenExisting(wal_path_)) return false;
  wal_pages_.store(wal_.pages(), std::memory_order_relaxed);
  return true;
}

bool LiveDatabase::Checkpoint() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  MDSEQ_CHECK(valid_);
  const auto start = SteadyClock::now();

  // Make the tail durable first; the fold below must not outrun the log.
  const uint64_t before = wal_.bytes_committed();
  if (!wal_.Commit()) return false;
  if (wal_.bytes_committed() > before) {
    wal_commits_.fetch_add(1, std::memory_order_relaxed);
    wal_fsyncs_.fetch_add(1, std::memory_order_relaxed);
    wal_bytes_.fetch_add(wal_.bytes_committed() - before,
                         std::memory_order_relaxed);
  }

  // Fold the maximal sealed prefix so ids stay dense and stable: a sealed
  // sequence behind an unsealed gap waits for the gap to seal.
  uint64_t fold_end = base_count_;
  while (true) {
    auto it = pending_.find(fold_end);
    if (it == pending_.end() || !it->second.sealed_done) break;
    ++fold_end;
  }

  std::vector<Sequence> corpus;
  std::vector<Partition> partitions;
  corpus.reserve(fold_end);
  partitions.reserve(fold_end);
  for (uint64_t id = 0; id < base_count_; ++id) {
    std::optional<Sequence> seq = base_->store->Read(id);
    if (!seq.has_value()) return false;
    corpus.push_back(std::move(*seq));
    partitions.push_back(base_->partitions[id]);
  }
  for (uint64_t id = base_count_; id < fold_end; ++id) {
    const PendingSeq& seq = pending_.at(id);
    corpus.push_back(seq.data);
    partitions.push_back(seq.sealed);
  }

  // New store + partition segments (old regions become garbage; the file
  // is append-mostly and space is reclaimed by copying the database).
  const PageId store_meta = SequenceStore::WriteInto(corpus, &file_);
  if (store_meta == kInvalidPageId) return false;
  PageStreamWriter partition_stream(&file_);
  for (const Partition& partition : partitions) {
    if (!diskfmt::AppendPartition(&partition_stream, partition, dim_)) {
      return false;
    }
  }
  if (!partition_stream.Finish()) return false;

  // Durability barrier for every dirty index page and the new segments,
  // then the master flip — the checkpoint's single commit point.
  if (!pool_->Flush()) return false;
  if (!file_.Sync()) return false;
  const PageId master_page = file_.Allocate();
  if (master_page == kInvalidPageId) return false;
  Page master;
  std::memset(master.data, 0, kPageSize);
  diskfmt::MasterLayout layout;
  std::memset(&layout, 0, sizeof(layout));
  layout.dim = dim_;
  layout.sequence_count = fold_end;
  layout.store_meta_page = store_meta;
  layout.index_root_page = tree_->root();
  layout.partitions_first_page = partition_stream.first_page();
  layout.partitions_page_count = partition_stream.page_count();
  layout.side_growth = partitioning_.side_growth;
  layout.max_points = partitioning_.max_points;
  layout.cost_model = static_cast<uint8_t>(partitioning_.cost_model);
  std::memcpy(master.data, &layout, sizeof(layout));
  if (!file_.Write(master_page, master)) return false;
  if (!file_.Sync()) return false;
  if (!file_.set_root_hint(master_page)) return false;
  if (!file_.Sync()) return false;

  // Swap in the new base and drop the folded pending sequences.
  auto base = std::make_shared<BaseState>();
  base->store = std::make_unique<SequenceStore>(pool_.get(), store_meta, dim_);
  if (!base->store->valid()) return false;
  base->lengths.reserve(partitions.size());
  for (const Partition& partition : partitions) {
    base->lengths.push_back(partition.empty() ? 0 : partition.back().end);
  }
  base->partitions = std::move(partitions);
  base_ = std::move(base);
  base_count_ = fold_end;
  pending_.erase(pending_.begin(), pending_.lower_bound(fold_end));

  // Truncate the log to the surviving tail.
  if (!RewriteWalLocked()) return false;

  // Recycle copy-on-write pages that are both reader-drained and
  // superseded before this (now durable) checkpoint.
  std::vector<PageId> reclaimed = epochs_.DrainReclaimable();
  free_pages_.insert(free_pages_.end(), reclaimed.begin(), reclaimed.end());
  free_count_.store(free_pages_.size(), std::memory_order_relaxed);

  PublishLocked();
  const uint64_t elapsed_us = ElapsedNs(start) / 1000;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  last_checkpoint_us_.store(elapsed_us, std::memory_order_relaxed);
  obs::Logger::Global()
      .Info("checkpoint")
      .U64("folded_sequences", fold_end)
      .U64("pending_sequences", pending_.size())
      .U64("reclaimed_pages", reclaimed.size())
      .U64("elapsed_us", elapsed_us);
  return true;
}

std::shared_ptr<const LiveDatabase::Snapshot> LiveDatabase::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

const LiveDatabase::PendingView* LiveDatabase::FindPending(
    const Snapshot& snap, uint64_t id) const {
  auto it = std::lower_bound(
      snap.pending.begin(), snap.pending.end(), id,
      [](const PendingView& view, uint64_t key) { return view.id < key; });
  if (it == snap.pending.end() || it->id != id) return nullptr;
  return &*it;
}

SearchResult LiveDatabase::Search(SequenceView query, double epsilon,
                                  const SearchControl& control) const {
  const std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  MDSEQ_CHECK(snap != nullptr);
  return Search(*snap, query, epsilon, control);
}

SearchResult LiveDatabase::Search(const Snapshot& snap, SequenceView query,
                                  double epsilon,
                                  const SearchControl& control) const {
  MDSEQ_CHECK(valid_);
  MDSEQ_CHECK(!query.empty());
  MDSEQ_CHECK(query.dim() == dim_);
  MDSEQ_CHECK(epsilon >= 0.0);
  const BaseState& base = *snap.base;
  SearchResult result;

  // Phase 1: query partitioning with the stored options.
  const Partition query_partition = internal::PartitionQuery(
      query, partitioning_, control, &result.stats);

  // Phase 2: one batched index descent against the snapshot's root, plus
  // a linear probe of the overlay pieces the snapshot has not indexed
  // (the open partial piece of each pending sequence, and any sealed
  // piece whose insert was published after this snapshot).
  const PagedRTree tree(dim_, pool_.get(), snap.root);
  const internal::CandidateSet pruned = internal::PagedFirstPruning(
      tree, query_partition, epsilon,
      [&](const std::vector<Mbr>& queries,
          std::vector<SpatialIndex::BatchHit>* overlay) {
        const double eps2 = epsilon * epsilon;
        for (const PendingView& view : snap.pending) {
          for (size_t ordinal = view.tree_pieces;
               ordinal < view.partition.size(); ++ordinal) {
            const Mbr& box = view.partition[ordinal].mbr;
            for (const Mbr& probe : queries) {
              const double d2 = probe.MinDist2(box);
              if (d2 <= eps2) {
                overlay->push_back(SpatialIndex::BatchHit{
                    SequenceDatabase::PackEntry(view.id, ordinal), d2});
              }
            }
          }
        }
      },
      control, &result);

  // Phase 3 on the snapshot's partition catalogs.
  internal::SecondPruning(
      query_partition, query.size(), epsilon, options_, pruned,
      [&](size_t id, size_t* length) -> const Partition* {
        const Partition* partition = nullptr;
        if (id < base.partitions.size()) {
          partition = &base.partitions[id];
          *length = base.lengths[id];
        } else if (const PendingView* view = FindPending(snap, id)) {
          partition = &view->partition;
          *length = view->length;
        }
        return partition == nullptr || partition->empty() ? nullptr
                                                          : partition;
      },
      control, &result);
  return result;
}

SearchResult LiveDatabase::SearchVerified(SequenceView query, double epsilon,
                                          const SearchControl& control) const {
  // Verification must read the same snapshot the filter phases used, so
  // both run over one pinned snapshot.
  const std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  MDSEQ_CHECK(snap != nullptr);
  SearchResult result = Search(*snap, query, epsilon, control);
  internal::VerifyMatches(
      query, epsilon,
      [&](size_t id, std::optional<Sequence>* owned) {
        if (id < snap->base->partitions.size()) {
          *owned = snap->base->store->Read(id);  // I/O failure: dropped
          return owned->has_value() ? (*owned)->View() : SequenceView();
        }
        const PendingView* pending = FindPending(*snap, id);
        return pending == nullptr || pending->data == nullptr
                   ? SequenceView()
                   : pending->data->View();
      },
      control, &result);
  return result;
}

std::optional<Sequence> LiveDatabase::ReadSequence(uint64_t id) const {
  MDSEQ_CHECK(valid_);
  const std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  if (id < snap->base->partitions.size()) {
    return snap->base->store->Read(static_cast<size_t>(id));
  }
  if (const PendingView* view = FindPending(*snap, id)) {
    if (view->data == nullptr) return Sequence(dim_);
    return *view->data;
  }
  return std::nullopt;
}

std::optional<Partition> LiveDatabase::PartitionOf(uint64_t id) const {
  MDSEQ_CHECK(valid_);
  const std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  if (id < snap->base->partitions.size()) {
    return snap->base->partitions[static_cast<size_t>(id)];
  }
  if (const PendingView* view = FindPending(*snap, id)) {
    return view->partition;
  }
  return std::nullopt;
}

size_t LiveDatabase::num_sequences() const {
  const std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  return snap == nullptr ? 0 : snap->sequence_count;
}

IngestStatus LiveDatabase::Status() const {
  IngestStatus status;
  status.dim = dim_;
  const std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  if (snap != nullptr) {
    status.base_sequences = snap->base->partitions.size();
    status.pending_sequences = snap->pending.size();
    status.total_sequences = snap->sequence_count;
  }
  status.points_total = points_total_.load(std::memory_order_relaxed);
  status.wal_records = wal_records_.load(std::memory_order_relaxed);
  status.wal_commits = wal_commits_.load(std::memory_order_relaxed);
  status.wal_fsyncs = wal_fsyncs_.load(std::memory_order_relaxed);
  status.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
  status.wal_pages = wal_pages_.load(std::memory_order_relaxed);
  status.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  status.last_checkpoint_seconds =
      static_cast<double>(
          last_checkpoint_us_.load(std::memory_order_relaxed)) /
      1e6;
  status.epoch = epochs_.current();
  status.retired_pages = epochs_.retired_count();
  status.free_pages = free_count_.load(std::memory_order_relaxed);
  status.tree_inserts = tree_inserts_.load(std::memory_order_relaxed);
  status.file_pages = file_.page_count();
  status.recovered_records =
      recovered_records_.load(std::memory_order_relaxed);
  return status;
}

}  // namespace mdseq
