#include "geom/sequence.h"

#include <vector>

#include <gtest/gtest.h>

#include "geom/point.h"

namespace mdseq {
namespace {

TEST(SequenceTest, EmptySequence) {
  Sequence s(3);
  EXPECT_EQ(s.dim(), 3u);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(SequenceTest, AppendAndAccess) {
  Sequence s(2);
  s.Append(Point{0.1, 0.2});
  s.Append(Point{0.3, 0.4});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0][0], 0.1);
  EXPECT_DOUBLE_EQ(s[0][1], 0.2);
  EXPECT_DOUBLE_EQ(s[1][0], 0.3);
  EXPECT_DOUBLE_EQ(s[1][1], 0.4);
}

TEST(SequenceTest, InitializerListConstruction) {
  const Sequence s(2, {Point{0.0, 0.0}, Point{1.0, 1.0}, Point{2.0, 2.0}});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[2][1], 2.0);
}

TEST(SequenceTest, FlatDataConstructionMatchesAppends) {
  const Sequence flat(2, std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6});
  Sequence appended(2);
  appended.Append(Point{0.1, 0.2});
  appended.Append(Point{0.3, 0.4});
  appended.Append(Point{0.5, 0.6});
  EXPECT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat.data(), appended.data());
  EXPECT_TRUE(Sequence(3, std::vector<double>()).empty());
}

TEST(SequenceTest, FromScalarsBuildsOneDimensional) {
  const Sequence s = Sequence::FromScalars({1.0, 2.0, 3.0});
  EXPECT_EQ(s.dim(), 1u);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[1][0], 2.0);
}

TEST(SequenceTest, SliceViewsTheRightPoints) {
  const Sequence s(1, {Point{0.0}, Point{1.0}, Point{2.0}, Point{3.0}});
  const SequenceView v = s.Slice(1, 3);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0][0], 1.0);
  EXPECT_DOUBLE_EQ(v[1][0], 2.0);
}

TEST(SequenceTest, SliceOfSliceComposes) {
  const Sequence s(1, {Point{0.0}, Point{1.0}, Point{2.0}, Point{3.0},
                       Point{4.0}});
  const SequenceView v = s.Slice(1, 5).Slice(1, 3);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0][0], 2.0);
  EXPECT_DOUBLE_EQ(v[1][0], 3.0);
}

TEST(SequenceTest, EmptySlice) {
  const Sequence s(1, {Point{0.0}, Point{1.0}});
  EXPECT_TRUE(s.Slice(1, 1).empty());
}

TEST(SequenceTest, ViewCoversWholeSequence) {
  const Sequence s(2, {Point{0.0, 0.0}, Point{1.0, 1.0}});
  const SequenceView v = s.View();
  EXPECT_EQ(v.size(), s.size());
  EXPECT_EQ(v.dim(), s.dim());
}

TEST(SequenceTest, BoundingBoxIsTight) {
  const Sequence s(2, {Point{0.2, 0.9}, Point{0.7, 0.1}, Point{0.5, 0.5}});
  const Mbr box = s.BoundingBox();
  EXPECT_EQ(box.low(), (Point{0.2, 0.1}));
  EXPECT_EQ(box.high(), (Point{0.7, 0.9}));
}

TEST(SequenceTest, ExtendAppendsAllPoints) {
  Sequence a(1, {Point{0.0}, Point{1.0}});
  const Sequence b(1, {Point{2.0}, Point{3.0}});
  a.Extend(b.View());
  ASSERT_EQ(a.size(), 4u);
  EXPECT_DOUBLE_EQ(a[3][0], 3.0);
}

TEST(SequenceTest, MaterializeCopiesView) {
  const Sequence s(2, {Point{0.0, 1.0}, Point{2.0, 3.0}, Point{4.0, 5.0}});
  const Sequence copy = s.Slice(1, 3).Materialize();
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_DOUBLE_EQ(copy[0][0], 2.0);
  EXPECT_DOUBLE_EQ(copy[1][1], 5.0);
}

TEST(SequenceTest, ClearKeepsDimension) {
  Sequence s(3);
  s.Append(Point{1.0, 2.0, 3.0});
  s.Clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.dim(), 3u);
}

TEST(PointTest, SquaredAndEuclideanDistance) {
  const Point a{0.0, 0.0, 0.0};
  const Point b{1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 9.0);
  EXPECT_DOUBLE_EQ(PointDistance(a, b), 3.0);
  EXPECT_DOUBLE_EQ(PointDistance(a, a), 0.0);
}

}  // namespace
}  // namespace mdseq
