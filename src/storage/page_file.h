#ifndef MDSEQ_STORAGE_PAGE_FILE_H_
#define MDSEQ_STORAGE_PAGE_FILE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace mdseq {

/// Size of every page, matching the classic 4 KiB database page the
/// paper-era systems (and its FRM cost model) assume.
inline constexpr size_t kPageSize = 4096;

/// Identifier of a page within a file; pages are dense from 0.
using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xffffffffu;

/// A fixed-size page buffer.
struct Page {
  uint8_t data[kPageSize];
};

/// File-backed page store with a small self-describing header. Writes are
/// page-granular; reads are a page or a contiguous byte range of a page
/// region. Failures are reported through return values (no exceptions).
///
/// All I/O is positioned (`pread`/`pwrite` on one descriptor; POSIX only),
/// so there is no shared file offset: reads of allocated pages may run
/// concurrently with each other and with one thread that allocates and
/// writes other pages (a live checkpoint beside queries). Opening,
/// closing and `set_root_hint` are single-threaded. The lifetime I/O
/// counters may be read from any thread (they feed the /metrics gauges).
///
/// File layout: page 0 is the header (magic, version, page count, root
/// page hint for whatever structure lives in the file); data pages follow.
class PageFile {
 public:
  PageFile() = default;
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Creates (truncating) a new page file. Returns false on I/O failure.
  bool Create(const std::string& path);

  /// Opens an existing page file, validating the header.
  bool Open(const std::string& path);

  /// Flushes and closes; safe to call twice.
  void Close();

  bool is_open() const { return fd_ >= 0; }

  /// Allocates a fresh zeroed page at the end of the file; returns its id
  /// or kInvalidPageId on failure.
  PageId Allocate();

  /// Reads page `id` into `*page`. Returns false on I/O failure or
  /// out-of-range id.
  bool Read(PageId id, Page* page);

  /// Reads `count` bytes starting `offset` bytes into the page region
  /// that begins at `first_page`, with one positioned read. Returns false
  /// on I/O failure or when the range reaches past `page_count()`. Counts
  /// every page the range covers in `reads()`.
  bool ReadRange(PageId first_page, uint64_t offset, void* bytes,
                 size_t count);

  /// Writes `page` to page `id` (must have been allocated).
  bool Write(PageId id, const Page& page);

  /// Durability barrier: fsyncs the file so every completed Write() is on
  /// stable storage. Does NOT write the header — `set_root_hint` stays the
  /// single commit point for structural changes.
  bool Sync();

  /// Number of data pages allocated. Like the I/O counters, safe to read
  /// from any thread while another thread performs I/O.
  uint32_t page_count() const {
    return page_count_.load(std::memory_order_relaxed);
  }

  /// An application-defined root page id persisted in the header (e.g. the
  /// R-tree root). Defaults to kInvalidPageId.
  PageId root_hint() const { return root_hint_; }
  bool set_root_hint(PageId id);

  /// Lifetime I/O counters in pages read from / written to the file
  /// (`ReadRange` counts the pages its byte range covers). Safe to read
  /// from any thread while another thread performs I/O.
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }

  /// Lifetime fsync count (Sync() calls that reached the disk).
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

 private:
  bool WriteHeader();
  bool ReadHeader();

  int fd_ = -1;
  std::atomic<uint32_t> page_count_{0};
  PageId root_hint_ = kInvalidPageId;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace mdseq

#endif  // MDSEQ_STORAGE_PAGE_FILE_H_
