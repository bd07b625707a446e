#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
uint64_t NowNs();

/// One timed interval around a call into a library layer. Spans of one
/// benchmark operation share `op`; `parent` is the index of the enclosing
/// span in the recorder (-1 for a root).
struct Span {
  const char* name = "";
  uint64_t op = 0;
  int64_t parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  uint64_t duration_ns() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

/// Keeps spans in memory for the whole run; thread-safe. Names must be
/// string literals (only the pointer is stored).
class SpanRecorder {
 public:
  /// Opens a span now and returns its index.
  int64_t Open(const char* name, uint64_t op, int64_t parent);
  /// Closes span `id` now.
  void Close(int64_t id);
  /// Copy of every span recorded so far.
  std::vector<Span> Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t op,
             int64_t parent = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Open(name, op, parent) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap, e.g. RPCs
/// fanned out in parallel; coverage is clipped to the parent).
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-name totals over a span set.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;

  double MeanUs() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / 1e3 / count;
  }
};
std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans);

/// Writes spans as JSON lines (one object per span). False on I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
