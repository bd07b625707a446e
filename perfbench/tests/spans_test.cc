#include "spans.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace perfbench {
namespace {

Span Make(const char* name, int64_t parent, uint64_t start, uint64_t end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimesTest, LeafIsItsDuration) {
  const std::vector<Span> spans = {Make("a", -1, 10, 35)};
  EXPECT_EQ(SelfTimes(spans), std::vector<uint64_t>({25}));
}

TEST(SelfTimesTest, SequentialChildrenAreSubtracted) {
  const std::vector<Span> spans = {
      Make("root", -1, 0, 100), Make("a", 0, 10, 30), Make("b", 0, 40, 70)};
  EXPECT_EQ(SelfTimes(spans), std::vector<uint64_t>({50, 20, 30}));
}

TEST(SelfTimesTest, OverlappingChildrenCountedOnce) {
  // Parallel RPCs [10,60) and [20,80) cover [10,80) of the parent.
  const std::vector<Span> spans = {
      Make("root", -1, 0, 100), Make("a", 0, 10, 60), Make("b", 0, 20, 80)};
  EXPECT_EQ(SelfTimes(spans)[0], 30u);
}

TEST(SelfTimesTest, ChildCoverageIsClippedToParent) {
  const std::vector<Span> spans = {Make("root", -1, 10, 50),
                                   Make("a", 0, 0, 20), Make("b", 0, 45, 90)};
  EXPECT_EQ(SelfTimes(spans)[0], 25u);
}

TEST(SelfTimesTest, GrandchildrenOnlyReduceTheirParent) {
  const std::vector<Span> spans = {Make("root", -1, 0, 100),
                                   Make("child", 0, 0, 60),
                                   Make("grandchild", 1, 10, 50)};
  EXPECT_EQ(SelfTimes(spans), std::vector<uint64_t>({40, 20, 40}));
}

TEST(SelfTimesTest, ChildCoveringParentLeavesZero) {
  const std::vector<Span> spans = {Make("root", -1, 10, 20),
                                   Make("a", 0, 5, 25)};
  EXPECT_EQ(SelfTimes(spans)[0], 0u);
}

TEST(TotalsByNameTest, SumsSelfAndTotal) {
  const std::vector<Span> spans = {
      Make("op", -1, 0, 100), Make("rpc", 0, 0, 40), Make("rpc", 0, 50, 70),
      Make("op", -1, 200, 260)};
  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at("op").count, 2u);
  EXPECT_EQ(totals.at("op").total_ns, 160u);
  EXPECT_EQ(totals.at("op").self_ns, 100u);
  EXPECT_EQ(totals.at("rpc").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("rpc").MeanUs(), 0.03);
}

TEST(SpanRecorderTest, RecordsNestingAcrossThreads) {
  SpanRecorder recorder;
  {
    ScopedSpan root(&recorder, "root", 7);
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back([&] { ScopedSpan child(&recorder, "child", 7, root.id()); });
    }
    for (std::thread& t : threads) t.join();
  }
  const std::vector<Span> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_STREQ(spans[0].name, "root");
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].parent, 0);
    EXPECT_EQ(spans[i].op, 7u);
    EXPECT_GE(spans[i].start_ns, spans[0].start_ns);
    EXPECT_LE(spans[i].end_ns, spans[0].end_ns);
  }
}

TEST(SpanRecorderTest, NullRecorderIsNoOp) {
  ScopedSpan span(nullptr, "x", 1);
  EXPECT_EQ(span.id(), -1);
}

}  // namespace
}  // namespace perfbench
