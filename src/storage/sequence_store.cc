#include "storage/sequence_store.h"

#include <cstring>
#include <utility>

#include "storage/page_stream.h"
#include "util/check.h"

namespace mdseq {

namespace {

// Meta page layout.
struct MetaLayout {
  uint64_t count;
  uint32_t data_first_page;
  uint32_t data_page_count;
  uint32_t dir_first_page;
  uint32_t dir_page_count;
};
static_assert(sizeof(MetaLayout) <= kPageSize);

}  // namespace

PageId SequenceStore::WriteInto(const std::vector<Sequence>& corpus,
                                PageFile* file) {
  MDSEQ_CHECK(file != nullptr && file->is_open());

  const PageId meta_page = file->Allocate();
  if (meta_page == kInvalidPageId) return kInvalidPageId;

  // Data region: records back to back.
  std::vector<DirectoryEntry> directory;
  directory.reserve(corpus.size());
  PageStreamWriter data(file);
  for (const Sequence& seq : corpus) {
    directory.push_back(DirectoryEntry{data.total_bytes(),
                                       static_cast<uint64_t>(seq.dim()),
                                       static_cast<uint64_t>(seq.size())});
    if (!data.Append(seq.data().data(),
                     seq.data().size() * sizeof(double))) {
      return kInvalidPageId;
    }
  }
  if (!data.Finish()) return kInvalidPageId;

  // Directory region.
  PageStreamWriter dir(file);
  if (!directory.empty() &&
      !dir.Append(directory.data(),
                  directory.size() * sizeof(DirectoryEntry))) {
    return kInvalidPageId;
  }
  if (!dir.Finish()) return kInvalidPageId;

  // Meta page.
  Page meta;
  std::memset(meta.data, 0, kPageSize);
  MetaLayout layout;
  layout.count = corpus.size();
  layout.data_first_page = data.first_page();
  layout.data_page_count = data.page_count();
  layout.dir_first_page = dir.first_page();
  layout.dir_page_count = dir.page_count();
  std::memcpy(meta.data, &layout, sizeof(layout));
  if (!file->Write(meta_page, meta)) return kInvalidPageId;
  return meta_page;
}

bool SequenceStore::Write(const std::vector<Sequence>& corpus,
                          PageFile* file) {
  const PageId meta_page = WriteInto(corpus, file);
  return meta_page != kInvalidPageId && file->set_root_hint(meta_page);
}

SequenceStore::SequenceStore(BufferPool* pool, PageId meta_page, size_t dim) {
  MDSEQ_CHECK(pool != nullptr);
  MDSEQ_CHECK(dim > 0);
  file_ = pool->file();
  if (meta_page == kInvalidPageId) return;
  PageHandle meta = pool->Fetch(meta_page);
  if (!meta.valid()) return;
  MetaLayout layout;
  std::memcpy(&layout, meta.page().data, sizeof(layout));
  meta.Release();

  // The directory must fit its region, so a hostile count cannot size an
  // allocation beyond the directory pages.
  if (layout.count > uint64_t{layout.dir_page_count} * kPageSize /
                         sizeof(DirectoryEntry)) {
    return;
  }
  data_first_page_ = layout.data_first_page;
  directory_.resize(layout.count);
  if (layout.count > 0) {
    PageStreamReader reader(pool, layout.dir_first_page, 0);
    if (!reader.Read(directory_.data(),
                     directory_.size() * sizeof(DirectoryEntry))) {
      directory_.clear();
      return;
    }
  }
  // Every record must be `dim`-dimensional and lie inside the data region.
  const uint64_t data_bytes = uint64_t{layout.data_page_count} * kPageSize;
  const uint64_t max_points = data_bytes / sizeof(double) / dim;
  for (const DirectoryEntry& entry : directory_) {
    if (entry.dim != dim || entry.length > max_points ||
        entry.offset > data_bytes ||
        entry.length * dim * sizeof(double) > data_bytes - entry.offset) {
      directory_.clear();
      return;
    }
  }
  valid_ = true;
}

std::optional<Sequence> SequenceStore::Read(size_t id) const {
  MDSEQ_CHECK(valid_);
  MDSEQ_CHECK(id < directory_.size());
  const DirectoryEntry& entry = directory_[id];
  const size_t dim = static_cast<size_t>(entry.dim);
  std::vector<double> data(dim * static_cast<size_t>(entry.length));
  if (!file_->ReadRange(data_first_page_, entry.offset, data.data(),
                        data.size() * sizeof(double))) {
    return std::nullopt;
  }
  return Sequence(dim, std::move(data));
}

}  // namespace mdseq
