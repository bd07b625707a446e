#ifndef MDSEQ_STORAGE_BUFFER_POOL_H_
#define MDSEQ_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/page_file.h"

namespace mdseq {

class BufferPool;

/// Point-in-time occupancy + cumulative counters of a `BufferPool`, taken
/// under the pool latch so the occupancy numbers are mutually consistent.
/// This is the `/healthz` view of the pool.
struct BufferPoolHealth {
  size_t capacity = 0;
  /// Frames currently holding a page.
  size_t resident = 0;
  /// Frames with at least one pin (unevictable right now).
  size_t pinned = 0;
  /// Frames with unwritten modifications.
  size_t dirty = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

/// A pinned page in the buffer pool. While a handle is alive the frame is
/// not evictable; the destructor unpins. Mark modified pages dirty before
/// releasing.
class PageHandle {
 public:
  PageHandle() = default;
  ~PageHandle();
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  const Page& page() const;
  Page* mutable_page();

  /// Marks the frame dirty; it is written back on eviction or Flush.
  void MarkDirty();

  /// Unpins early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, PageId id, size_t frame)
      : pool_(pool), id_(id), frame_(frame) {}

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  size_t frame_ = 0;
};

/// Buffer pool over a `PageFile` — the database substrate that turns the
/// paper's "number of disk accesses" into a measurable quantity: index
/// traversals fetch pages through the pool, and the miss counter is the
/// real page-read count.
///
/// Two replacement policies are provided: exact LRU (default) and the
/// Clock approximation classic systems use (one reference bit per frame, a
/// sweeping hand, no list maintenance on hits). `bench/ablation_replacement`
/// compares their miss rates.
///
/// Thread-safe: pin/unpin/flush and the replacement bookkeeping are
/// serialized by one internal latch, and the statistics counters are
/// atomic. A miss reads its page from the file under the latch so no other
/// thread sees the frame half-loaded; the file itself needs no latch (its
/// I/O is positioned, with no shared offset). Reading the *contents* of a
/// pinned page through a `PageHandle` is lock-free; concurrent readers may
/// share a pinned frame. Writers (`MarkDirty` + mutation of the same page)
/// still need external coordination — the query engine only ever reads.
/// The pool must outlive all its handles.
class BufferPool {
 public:
  enum class Policy { kLru, kClock };

  /// `capacity` frames of kPageSize each. The file must outlive the pool.
  BufferPool(PageFile* file, size_t capacity, Policy policy = Policy::kLru);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from the file on a miss. Returns an
  /// invalid handle if the id is out of range, on I/O failure, or if every
  /// frame is pinned. When `was_miss` is non-null it reports whether this
  /// call read the page from the file — per-call attribution that stays
  /// exact when concurrent queries share the pool (the cumulative
  /// `hits()`/`misses()` counters cannot be differenced per query).
  PageHandle Fetch(PageId id, bool* was_miss = nullptr);

  /// Allocates a fresh page in the file and pins it (zeroed, dirty).
  PageHandle Allocate();

  /// Writes back every dirty frame. Returns false if any write fails.
  bool Flush();

  size_t capacity() const { return frames_.size(); }

  /// The file the pool caches.
  PageFile* file() const { return file_; }

  /// Consistent occupancy snapshot for health probes; takes the latch.
  BufferPoolHealth Health() const;

  /// Statistics: pool hits, misses (= real page reads through the pool),
  /// and evictions. Cumulative across all threads.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  void ResetStats() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class PageHandle;

  struct Frame {
    Page page;
    PageId id = kInvalidPageId;
    int pins = 0;
    bool dirty = false;
    bool referenced = false;  // Clock policy's second-chance bit
  };

  // Returns the frame index holding `id`, loading/evicting as needed, or
  // SIZE_MAX on failure. `was_miss` (optional) reports a file read.
  size_t Acquire(PageId id, bool load_from_file, bool* was_miss = nullptr);
  void Unpin(size_t frame);
  void Touch(size_t frame);
  bool EvictSomeFrame(size_t* frame_out);
  bool EvictLru(size_t* frame_out);
  bool EvictClock(size_t* frame_out);
  bool WriteBackAndRelease(size_t frame);

  PageFile* file_;
  Policy policy_;
  /// Serializes all pool state (frames' metadata, table, LRU/clock) and the
  /// loading of missed pages. Page *contents* of pinned frames are read
  /// outside the latch.
  mutable std::mutex mutex_;
  size_t clock_hand_ = 0;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> table_;
  /// Frame indices in LRU order (front = least recently used); only
  /// unpinned frames are eligible for eviction.
  std::list<size_t> lru_;
  std::unordered_map<size_t, std::list<size_t>::iterator> lru_position_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace mdseq

#endif  // MDSEQ_STORAGE_BUFFER_POOL_H_
