#ifndef MDSEQ_STORAGE_SEQUENCE_STORE_H_
#define MDSEQ_STORAGE_SEQUENCE_STORE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "geom/sequence.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace mdseq {

/// Disk-resident storage for the raw sequences themselves, read by the
/// refinement step (exact distances, solution-interval reporting). Records
/// are variable-length and span pages freely; a directory maps sequence ids
/// to byte offsets. The meta page and the directory are read through the
/// buffer pool at open; a record is one contiguous byte range, read with
/// one positioned `PageFile::ReadRange` that bypasses the pool (so payload
/// never evicts index pages) and is counted in `PageFile::reads()`.
///
/// File layout (ids are `PageFile` pages):
///   header (PageFile) | meta page | data pages ... | directory pages ...
/// The meta page id is stored in the file's root hint. Write once, then
/// read-only.
class SequenceStore {
 public:
  /// Writes the whole corpus into `file` (open and fresh) and stores the
  /// meta page in the file header. Returns false on I/O failure.
  static bool Write(const std::vector<Sequence>& corpus, PageFile* file);

  /// As `Write`, but returns the meta page instead of claiming the file
  /// header — for files shared with other structures (see DiskDatabase).
  /// Returns kInvalidPageId on failure.
  static PageId WriteInto(const std::vector<Sequence>& corpus,
                          PageFile* file);

  /// Attaches to a store of `dim`-dimensional sequences whose meta page is
  /// `meta_page`; loads the directory through `pool`. The pool (and file)
  /// must outlive the store. Check `valid()` afterwards: the file is
  /// untrusted, so a directory entry of another dim, or one whose record
  /// overflows or lies outside the data region, makes the store invalid.
  SequenceStore(BufferPool* pool, PageId meta_page, size_t dim);

  /// Convenience: attaches using the file's root hint.
  SequenceStore(BufferPool* pool, const PageFile& file, size_t dim)
      : SequenceStore(pool, file.root_hint(), dim) {}

  bool valid() const { return valid_; }

  /// Number of stored sequences.
  size_t size() const { return directory_.size(); }

  /// Reads sequence `id` with one positioned read of its record, off the
  /// buffer pool; nullopt on I/O failure. Safe to call from any number of
  /// threads.
  std::optional<Sequence> Read(size_t id) const;

 private:
  struct DirectoryEntry {
    uint64_t offset;  ///< byte offset within the data region
    uint64_t dim;
    uint64_t length;  ///< number of points
  };

  PageFile* file_ = nullptr;
  bool valid_ = false;
  PageId data_first_page_ = kInvalidPageId;
  std::vector<DirectoryEntry> directory_;
};

}  // namespace mdseq

#endif  // MDSEQ_STORAGE_SEQUENCE_STORE_H_
