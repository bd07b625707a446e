#ifndef MDSEQ_INGEST_LIVE_DATABASE_H_
#define MDSEQ_INGEST_LIVE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/partitioning.h"
#include "core/search.h"
#include "ingest/epoch.h"
#include "ingest/wal.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/paged_rtree.h"
#include "storage/sequence_store.h"

namespace mdseq {

/// Point-in-time view of the ingest path for `/debug/ingest` and tests.
struct IngestStatus {
  uint64_t dim = 0;
  /// Sequences folded into the on-disk segments by the last checkpoint.
  uint64_t base_sequences = 0;
  /// Sequences whose tail still lives in the WAL + memory.
  uint64_t pending_sequences = 0;
  uint64_t total_sequences = 0;
  uint64_t points_total = 0;
  uint64_t wal_records = 0;
  uint64_t wal_commits = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_pages = 0;
  uint64_t checkpoints = 0;
  double last_checkpoint_seconds = 0.0;
  uint64_t epoch = 0;
  /// Superseded index pages awaiting reader drain + checkpoint.
  uint64_t retired_pages = 0;
  /// Reclaimed pages available for reuse by copy-on-write inserts.
  uint64_t free_pages = 0;
  uint64_t tree_inserts = 0;
  uint64_t file_pages = 0;
  /// WAL records replayed when this instance opened the database.
  uint64_t recovered_records = 0;
};

struct LiveDatabaseOptions {
  size_t pool_pages = 256;
  SearchOptions search;
};

/// A live (append-capable) similarity-search database over the same file
/// format as `DiskDatabase`: after `Checkpoint`, the file is a valid
/// `DiskDatabase`. Ingest runs the paper's marginal-cost partitioning
/// criterion incrementally per arriving point (`IncrementalPartitioner`),
/// so partitions are byte-identical to an offline `PartitionSequence` over
/// the final sequence — sealed prefixes are never re-partitioned.
///
/// Durability: every mutation is framed into the WAL first; `Commit`
/// group-commits (one fsync) and only then publishes the points to
/// readers — a point is acknowledged iff its commit returned. On open, the
/// WAL tail is replayed over the last checkpoint.
///
/// Isolation: readers never block on the writer. Queries run against an
/// immutable published snapshot (shared_ptr swap): index inserts are
/// copy-on-write (`PagedRTree::InsertCow`), snapshots pin an epoch, and
/// superseded pages are recycled only after the last reader of their
/// epoch drains *and* a later checkpoint commits (see `EpochManager`).
///
/// Writer methods (`BeginSequence`/`AppendPoints`/`SealSequence`/`Commit`/
/// `Checkpoint`) serialize on an internal mutex and may be called from any
/// thread; the read path is lock-free apart from the snapshot fetch and
/// the shared buffer-pool latch.
class LiveDatabase {
 public:
  /// Creates an empty live database file at `path` (truncating). Returns
  /// false on I/O failure.
  static bool Create(const std::string& path, size_t dim,
                     const PartitioningOptions& partitioning =
                         PartitioningOptions());

  /// Opens `path` (a `DiskDatabase`/`LiveDatabase` file), replaying the
  /// WAL at `path + ".wal"` if one exists. Check `valid()`; a torn
  /// checkpoint or a foreign WAL header is rejected cleanly (never a
  /// partial open).
  LiveDatabase(const std::string& path,
               const LiveDatabaseOptions& options = LiveDatabaseOptions());
  ~LiveDatabase();

  LiveDatabase(const LiveDatabase&) = delete;
  LiveDatabase& operator=(const LiveDatabase&) = delete;

  bool valid() const { return valid_; }
  size_t dim() const { return dim_; }

  // --- Write path -------------------------------------------------------

  /// Opens a new sequence and returns its id (ids are dense and stable).
  uint64_t BeginSequence();

  /// Appends `span` to an open sequence. The points are durable and
  /// visible to readers only after the next `Commit`.
  bool AppendPoints(uint64_t sequence_id, SequenceView span);

  /// Marks a sequence complete: its trailing partial piece is sealed and
  /// indexed, and the next checkpoint may fold it into the base segments.
  bool SealSequence(uint64_t sequence_id);

  /// Group commit: one WAL fsync for everything appended since the last
  /// commit, then a new reader snapshot is published. Returns false on
  /// I/O failure (nothing is acknowledged or published then).
  bool Commit();

  /// Folds the maximal sealed prefix of pending sequences into fresh
  /// `SequenceStore`/partition segments, persists the current index root
  /// in a new master page (the commit point), truncates + rewrites the
  /// WAL to the surviving tail, and recycles drained copy-on-write pages.
  /// Implies `Commit` for any uncommitted records.
  bool Checkpoint();

  // --- Read path (snapshot-isolated) ------------------------------------

  /// Same three-phase semantics as `DiskDatabase::Search`, over the last
  /// published snapshot: base + committed pending points, including
  /// not-yet-sealed partial pieces.
  SearchResult Search(SequenceView query, double epsilon,
                      const SearchControl& control = SearchControl()) const;
  SearchResult SearchVerified(
      SequenceView query, double epsilon,
      const SearchControl& control = SearchControl()) const;

  /// Reads one sequence as of the last published snapshot.
  std::optional<Sequence> ReadSequence(uint64_t id) const;

  /// The partition of sequence `id` as of the last published snapshot
  /// (sealed pieces plus the open partial piece). For tests.
  std::optional<Partition> PartitionOf(uint64_t id) const;

  /// Sequences visible in the last published snapshot.
  size_t num_sequences() const;

  IngestStatus Status() const;

  const BufferPool& pool() const { return *pool_; }
  BufferPool* mutable_pool() { return pool_.get(); }
  const PageFile& file() const { return file_; }

  /// Monotone snapshot epoch: bumped once per published snapshot (commit,
  /// checkpoint, recovery). Result-cache entries are stamped with the value
  /// read before their query executed, so an entry is fresh iff its stamp
  /// still matches.
  uint64_t snapshot_version() const {
    return snapshot_version_.load(std::memory_order_acquire);
  }

 private:
  // Immutable per-checkpoint state; snapshots share it.
  struct BaseState {
    std::unique_ptr<SequenceStore> store;
    std::vector<Partition> partitions;
    std::vector<size_t> lengths;
  };

  // Committed view of one pending (not yet folded) sequence.
  struct PendingView {
    uint64_t id = 0;
    std::shared_ptr<const Sequence> data;
    Partition partition;  // sealed pieces + trailing partial piece
    size_t length = 0;
    bool sealed = false;
    size_t tree_pieces = 0;  // prefix of pieces findable via the index
  };

  struct Snapshot {
    std::shared_ptr<const BaseState> base;
    PageId root = kInvalidPageId;
    std::vector<PendingView> pending;  // ascending id
    uint64_t sequence_count = 0;
    EpochManager::Pin pin;
  };

  // Writer-side state of one pending sequence.
  struct PendingSeq {
    Sequence data;
    Partition sealed;
    IncrementalPartitioner partitioner;
    bool sealed_done = false;
    size_t tree_pieces = 0;
    bool dirty = true;  // changed since the last published snapshot

    PendingSeq(size_t dim, const PartitioningOptions& options)
        : data(dim), partitioner(dim, options) {}
  };

  std::shared_ptr<const Snapshot> CurrentSnapshot() const;
  // The filter phases over one pinned snapshot, so `SearchVerified` can
  // verify against the very snapshot its filter read.
  SearchResult Search(const Snapshot& snap, SequenceView query,
                      double epsilon, const SearchControl& control) const;
  const PendingView* FindPending(const Snapshot& snap, uint64_t id) const;
  // Requires writer_mutex_. Publishes the current writer state as a new
  // snapshot, reusing unchanged pending views from the previous one.
  void PublishLocked();
  // Requires writer_mutex_. Inserts sealed-but-unindexed pieces of `seq`.
  bool IndexSealedLocked(uint64_t id, PendingSeq* seq);
  // Requires writer_mutex_. Rewrites a fresh WAL holding the pending tail.
  bool RewriteWalLocked();

  bool valid_ = false;
  size_t dim_ = 0;
  std::string wal_path_;
  PartitioningOptions partitioning_;
  SearchOptions options_;
  PageFile file_;
  std::unique_ptr<BufferPool> pool_;

  // Writer state, guarded by writer_mutex_.
  mutable std::mutex writer_mutex_;
  std::unique_ptr<PagedRTree> tree_;  // writer's (newest) root
  std::shared_ptr<const BaseState> base_;
  uint64_t base_count_ = 0;
  std::map<uint64_t, PendingSeq> pending_;
  uint64_t next_id_ = 0;
  WalWriter wal_;
  std::vector<PageId> retired_batch_;  // superseded since last publish
  std::vector<PageId> free_pages_;
  EpochManager epochs_;

  // Published snapshot, swapped under its own short lock.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_;

  // Monotonic stats, readable without the writer lock.
  std::atomic<uint64_t> snapshot_version_{0};
  std::atomic<uint64_t> points_total_{0};
  std::atomic<uint64_t> tree_inserts_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> recovered_records_{0};
  std::atomic<uint64_t> wal_records_{0};
  std::atomic<uint64_t> wal_commits_{0};
  std::atomic<uint64_t> wal_fsyncs_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> wal_pages_{0};
  std::atomic<uint64_t> free_count_{0};
  std::atomic<uint64_t> last_checkpoint_us_{0};
};

/// Scoped ingest batch over a `LiveDatabase`: appends are buffered by the
/// database as usual and group-committed when the session is committed or
/// destroyed, so one session == one WAL fsync in the common case.
class IngestSession {
 public:
  explicit IngestSession(LiveDatabase* database) : database_(database) {}
  ~IngestSession() {
    if (dirty_) database_->Commit();
  }
  IngestSession(const IngestSession&) = delete;
  IngestSession& operator=(const IngestSession&) = delete;

  uint64_t BeginSequence() {
    dirty_ = true;
    return database_->BeginSequence();
  }
  bool AppendPoints(uint64_t sequence_id, SequenceView span) {
    dirty_ = true;
    return database_->AppendPoints(sequence_id, span);
  }
  bool SealSequence(uint64_t sequence_id) {
    dirty_ = true;
    return database_->SealSequence(sequence_id);
  }
  bool Commit() {
    dirty_ = false;
    return database_->Commit();
  }

 private:
  LiveDatabase* database_;
  bool dirty_ = false;
};

}  // namespace mdseq

#endif  // MDSEQ_INGEST_LIVE_DATABASE_H_
