#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int64_t SpanRecorder::Open(const char* name, uint64_t op, int64_t parent) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = parent;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::Close(int64_t id) {
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= 0 && static_cast<size_t>(id) < spans_.size()) {
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || static_cast<size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const uint64_t begin = std::max(span.start_ns, parent.start_ns);
    const uint64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > begin) {
      children[static_cast<size_t>(span.parent)].emplace_back(begin, end);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<uint64_t, uint64_t>>& cover = children[i];
    std::sort(cover.begin(), cover.end());
    uint64_t covered = 0;
    uint64_t run_begin = 0;
    uint64_t run_end = 0;
    bool open = false;
    for (const auto& [begin, end] : cover) {
      if (open && begin <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = begin;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    const uint64_t duration = spans[i].duration_ns();
    self[i] = duration > covered ? duration - covered : 0;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans) {
  const std::vector<uint64_t> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].duration_ns();
    t.self_ns += self[i];
  }
  return totals;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 i, s.name, static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
