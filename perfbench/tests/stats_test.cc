#include "stats.h"

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(RequiredSamplesTest, TenBeyondAndAtLeastHundred) {
  EXPECT_EQ(RequiredSamples(0.5), 100u);
  EXPECT_EQ(RequiredSamples(0.9), 100u);
  EXPECT_EQ(RequiredSamples(0.95), 200u);
  EXPECT_EQ(RequiredSamples(0.99), 1000u);
  EXPECT_EQ(RequiredSamples(0.999), 10000u);
}

TEST(PercentileTest, RefusesThinSamples) {
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
  EXPECT_FALSE(Percentile(Ramp(99), 0.5).has_value());
  EXPECT_TRUE(Percentile(Ramp(100), 0.5).has_value());
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  EXPECT_TRUE(Percentile(Ramp(1000), 0.99).has_value());
}

TEST(PercentileTest, NearestRank) {
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(100), 0.5), 50.0);
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(101), 0.5), 51.0);
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(1000), 0.99), 990.0);
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(1001), 0.99), 991.0);
}

TEST(PercentileTest, OrderInsensitiveAndDuplicates) {
  std::vector<double> v = Ramp(200);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(*Percentile(v, 0.5), 100.0);
  const std::vector<double> same(150, 2.5);
  EXPECT_DOUBLE_EQ(*Percentile(same, 0.5), 2.5);
}

TEST(PercentileTest, RejectsQuantilesOutsideUnitInterval) {
  EXPECT_FALSE(Percentile(Ramp(5000), 0.0).has_value());
  EXPECT_FALSE(Percentile(Ramp(5000), 1.5).has_value());
}

std::vector<Sample> Timed(const std::vector<double>& ms) {
  std::vector<Sample> samples;
  for (size_t i = 0; i < ms.size(); ++i) {
    samples.push_back({i, 1000 * (i + 1), ms[i]});
  }
  return samples;
}

TEST(SlicedPercentileTest, RefusesBelowOneSlice) {
  EXPECT_FALSE(SlicedPercentile(Timed(Ramp(99)), 0.5, 5).has_value());
  EXPECT_FALSE(SlicedPercentile(Timed(Ramp(999)), 0.99, 5).has_value());
}

TEST(SlicedPercentileTest, SliceCountFollowsSampleCount) {
  const auto p50 = SlicedPercentile(Timed(Ramp(250)), 0.5, 5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->slices.size(), 2u);
  EXPECT_EQ(p50->samples, 250u);
  const auto p99 = SlicedPercentile(Timed(Ramp(20000)), 0.99, 5);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->slices.size(), 5u);
}

TEST(SlicedPercentileTest, BurstInOneSliceDoesNotMoveTheMedian) {
  std::vector<double> ms(1000, 1.0);
  for (size_t i = 0; i < 200; ++i) ms[i] = 50.0;  // the first slice stalls
  const auto p50 = SlicedPercentile(Timed(ms), 0.5, 5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_DOUBLE_EQ(p50->value, 1.0);
}

TEST(SlicedPercentileTest, SlicesFollowSequenceOrder) {
  // Samples arrive out of order (merged from several clients); slicing is
  // by sequence position, so the slow samples fall into one slice.
  std::vector<Sample> samples;
  for (size_t i = 0; i < 500; ++i) {
    const uint64_t end = (i % 2 == 0 ? 0 : 1000000) + i;
    samples.push_back({end, end, i % 2 == 0 ? 1.0 : 9.0});
  }
  const auto p50 = SlicedPercentile(samples, 0.5, 2);
  ASSERT_TRUE(p50.has_value());
  EXPECT_DOUBLE_EQ(p50->value, 5.0);  // median of the slices 1.0 and 9.0
}

TEST(SlicedRateTest, MedianOfSliceRates) {
  // 100 operations per ms for 4 slices, one slice at half speed.
  std::vector<Sample> samples;
  uint64_t t = 0;
  for (size_t k = 0; k < 5; ++k) {
    const uint64_t step = k == 2 ? 20000 : 10000;  // ns per operation
    for (size_t i = 0; i < 100; ++i) samples.push_back({0, t += step, 1.0});
  }
  const auto rate = SlicedRate(samples, 0, 5);
  ASSERT_TRUE(rate.has_value());
  EXPECT_EQ(rate->slices.size(), 5u);
  EXPECT_NEAR(rate->value, 100000.0, 1e-6);
  EXPECT_FALSE(SlicedRate({}, 0, 5).has_value());
}

TEST(MedianOfRoundsTest, MiddleValueOrMeanOfMiddleTwo) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  // One slow round of five does not move the result.
  const auto rate = MedianOfRounds({500.0, 510.0, 90.0, 505.0, 495.0}, 7500);
  ASSERT_TRUE(rate.has_value());
  EXPECT_DOUBLE_EQ(rate->value, 500.0);
  EXPECT_EQ(rate->samples, 7500u);
  EXPECT_EQ(rate->Describe(), "median of 5 rounds: 500 510 90 505 495");
  EXPECT_FALSE(MedianOfRounds({}, 0).has_value());
}

TEST(SlicedPercentileTest, WholeCycleSlicesRunTheSameMix) {
  // Operations cycle through costs 1..10; slices of whole cycles all see
  // the same mix, so every slice has the same p50.
  std::vector<Sample> samples;
  for (uint64_t i = 0; i < 1000; ++i) {
    samples.push_back({i, i, static_cast<double>(i % 10 + 1)});
  }
  const auto p50 = SlicedPercentile(samples, 0.5, 5, 10);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->slices.size(), 5u);
  EXPECT_DOUBLE_EQ(p50->value, 5.0);
  // A cycle longer than a slice allows: fewer, longer slices.
  const auto fewer = SlicedPercentile(samples, 0.5, 5, 300);
  ASSERT_TRUE(fewer.has_value());
  EXPECT_EQ(fewer->slices.size(), 3u);
}

}  // namespace
}  // namespace perfbench
