#include "storage/page_file.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include "util/check.h"

namespace mdseq {

namespace {

constexpr char kMagic[8] = {'M', 'D', 'S', 'Q', 'P', 'A', 'G', 'E'};
constexpr uint32_t kVersion = 1;

// Header page layout: magic[8] | version u32 | page_count u32 |
// root_hint u32. The rest of the page is reserved.
struct HeaderLayout {
  char magic[8];
  uint32_t version;
  uint32_t page_count;
  PageId root_hint;
};
static_assert(sizeof(HeaderLayout) <= kPageSize);

// Byte offset of data page `id` (page 0 of the file is the header).
off_t PageOffset(PageId id) {
  return static_cast<off_t>(id + uint64_t{1}) * static_cast<off_t>(kPageSize);
}

// Full-length pread/pwrite: retries short transfers and EINTR. A read that
// reaches end of file is a failure.
bool ReadFully(int fd, void* bytes, size_t count, off_t offset) {
  uint8_t* at = static_cast<uint8_t*>(bytes);
  while (count > 0) {
    const ssize_t n = ::pread(fd, at, count, offset);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    at += n;
    count -= static_cast<size_t>(n);
    offset += n;
  }
  return true;
}

bool WriteFully(int fd, const void* bytes, size_t count, off_t offset) {
  const uint8_t* at = static_cast<const uint8_t*>(bytes);
  while (count > 0) {
    const ssize_t n = ::pwrite(fd, at, count, offset);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    at += n;
    count -= static_cast<size_t>(n);
    offset += n;
  }
  return true;
}

}  // namespace

PageFile::~PageFile() { Close(); }

bool PageFile::Create(const std::string& path) {
  Close();
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) return false;
  page_count_.store(0, std::memory_order_relaxed);
  root_hint_ = kInvalidPageId;
  reads_.store(0, std::memory_order_relaxed);
  writes_.store(0, std::memory_order_relaxed);
  syncs_.store(0, std::memory_order_relaxed);
  return WriteHeader();
}

bool PageFile::Open(const std::string& path) {
  Close();
  fd_ = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) return false;
  if (!ReadHeader()) {
    Close();
    return false;
  }
  return true;
}

void PageFile::Close() {
  if (fd_ >= 0) {
    WriteHeader();
    ::close(fd_);
    fd_ = -1;
  }
}

bool PageFile::WriteHeader() {
  if (fd_ < 0) return false;
  Page header;
  std::memset(header.data, 0, kPageSize);
  HeaderLayout layout;
  std::memcpy(layout.magic, kMagic, sizeof(kMagic));
  layout.version = kVersion;
  layout.page_count = page_count_.load(std::memory_order_relaxed);
  layout.root_hint = root_hint_;
  std::memcpy(header.data, &layout, sizeof(layout));
  return WriteFully(fd_, header.data, kPageSize, 0);
}

bool PageFile::ReadHeader() {
  Page header;
  if (!ReadFully(fd_, header.data, kPageSize, 0)) return false;
  HeaderLayout layout;
  std::memcpy(&layout, header.data, sizeof(layout));
  if (std::memcmp(layout.magic, kMagic, sizeof(kMagic)) != 0) return false;
  if (layout.version != kVersion) return false;
  page_count_.store(layout.page_count, std::memory_order_relaxed);
  root_hint_ = layout.root_hint;
  return true;
}

PageId PageFile::Allocate() {
  if (fd_ < 0) return kInvalidPageId;
  const PageId id = page_count_.load(std::memory_order_relaxed);
  Page zero;
  std::memset(zero.data, 0, kPageSize);
  // Write() range-checks against the new count.
  page_count_.store(id + 1, std::memory_order_relaxed);
  if (!Write(id, zero)) {
    page_count_.store(id, std::memory_order_relaxed);
    return kInvalidPageId;
  }
  return id;
}

bool PageFile::Read(PageId id, Page* page) {
  MDSEQ_CHECK(page != nullptr);
  return ReadRange(id, 0, page->data, kPageSize);
}

bool PageFile::ReadRange(PageId first_page, uint64_t offset, void* bytes,
                         size_t count) {
  MDSEQ_CHECK(bytes != nullptr || count == 0);
  if (fd_ < 0) return false;
  if (count == 0) return true;
  // Every page the range touches must be allocated; the arithmetic stays
  // in 64 bits so a hostile offset cannot wrap into range.
  const uint64_t pages = page_count_.load(std::memory_order_relaxed);
  if (first_page >= pages) return false;
  const uint64_t limit = (pages - first_page) * kPageSize;
  if (offset > limit || count > limit - offset) return false;
  if (!ReadFully(fd_, bytes, count,
                 PageOffset(first_page) + static_cast<off_t>(offset))) {
    return false;
  }
  const uint64_t covered =
      (offset + count - 1) / kPageSize - offset / kPageSize + 1;
  reads_.fetch_add(covered, std::memory_order_relaxed);
  return true;
}

bool PageFile::Write(PageId id, const Page& page) {
  if (fd_ < 0 || id >= page_count_.load(std::memory_order_relaxed)) {
    return false;
  }
  if (!WriteFully(fd_, page.data, kPageSize, PageOffset(id))) return false;
  writes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PageFile::Sync() {
  if (fd_ < 0) return false;
  if (::fsync(fd_) != 0) return false;
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PageFile::set_root_hint(PageId id) {
  root_hint_ = id;
  return WriteHeader();
}

}  // namespace mdseq
