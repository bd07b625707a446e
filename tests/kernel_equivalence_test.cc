// Differential tests proving the fast kernels compute the same answers as
// the retained reference implementations:
//   - prefix-sum Dnorm (DnormContext) vs the naive window re-accumulation,
//   - the distinct-window sweep vs the per-`j` window enumeration,
//   - the dense Phase-2 candidate aggregator vs a sort-based one,
//   - batched range search vs one RangeSearch per probe,
//   - threshold-aware window profile (abandon + window-sum bound) vs the
//     unbounded one,
//   - the dispatched SIMD kernels (src/util/simd.h) vs their retained
//     scalar references, across odd dimensionalities, odd lengths, and
//     tail remainders that do not fill a vector lane.
// The fast paths are only allowed to differ where the contract says so
// (~1 ulp reassociation in partially-counted Dnorm windows; +inf for
// provably-disqualified (skipped or abandoned) bounded-profile windows;
// bounded reassociation in the blocked SIMD point-sum).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/mbr_distance.h"
#include "core/partitioning.h"
#include "core/search.h"
#include "gen/fractal.h"
#include "index/linear_index.h"
#include "index/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/paged_rtree.h"
#include "util/random.h"
#include "util/simd.h"

namespace mdseq {
namespace {

// ---------------------------------------------------------------------------
// Dnorm: prefix-sum context vs naive reference.
// ---------------------------------------------------------------------------

void ExpectSameWindows(const std::vector<NormalizedDistanceResult>& fast,
                       const std::vector<NormalizedDistanceResult>& ref) {
  ASSERT_EQ(fast.size(), ref.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].point_begin, ref[i].point_begin) << "window " << i;
    EXPECT_EQ(fast[i].point_end, ref[i].point_end) << "window " << i;
    EXPECT_NEAR(fast[i].distance, ref[i].distance, 1e-12) << "window " << i;
  }
}

void CheckDnormAgreement(const Partition& target, const Mbr& probe,
                         size_t probe_count, double epsilon) {
  const std::vector<double> dmbr = ComputeMbrDistances(probe, target);
  DnormContext context;
  MakeDnormContext(target, dmbr, &context);
  for (size_t j = 0; j < target.size(); ++j) {
    const NormalizedDistanceResult ref =
        ReferenceNormalizedDistance(probe_count, target, j, dmbr);
    const NormalizedDistanceResult fast =
        NormalizedDistance(probe_count, context, j);
    EXPECT_NEAR(fast.distance, ref.distance, 1e-12) << "j=" << j;
    EXPECT_EQ(fast.point_begin, ref.point_begin) << "j=" << j;
    EXPECT_EQ(fast.point_end, ref.point_end) << "j=" << j;

    std::vector<NormalizedDistanceResult> fast_windows;
    std::vector<NormalizedDistanceResult> ref_windows;
    const double fast_min = QualifyingDnormWindows(probe_count, context, j,
                                                   epsilon, &fast_windows);
    const double ref_min = ReferenceQualifyingDnormWindows(
        probe_count, target, j, dmbr, epsilon, &ref_windows);
    EXPECT_NEAR(fast_min, ref_min, 1e-12) << "j=" << j;
    ExpectSameWindows(fast_windows, ref_windows);
  }
}

TEST(DnormEquivalenceTest, RandomPartitionsAgreeWithReference) {
  Rng rng(401);
  for (int trial = 0; trial < 30; ++trial) {
    const Sequence data =
        GenerateFractalSequence(40 + 8 * trial, FractalOptions(), &rng);
    PartitioningOptions part;
    part.max_points = static_cast<size_t>(rng.UniformInt(3, 20));
    const Partition target = PartitionSequence(data.View(), part);
    const Sequence probe_seq =
        GenerateFractalSequence(20, FractalOptions(), &rng);
    const Mbr probe = probe_seq.BoundingBox();
    const size_t probe_count = static_cast<size_t>(rng.UniformInt(1, 60));
    const double epsilon = rng.Uniform() * 0.6;
    CheckDnormAgreement(target, probe, probe_count, epsilon);
  }
}

TEST(DnormEquivalenceTest, SingleMbrTarget) {
  Rng rng(402);
  const Sequence data = GenerateFractalSequence(9, FractalOptions(), &rng);
  Partition target;  // whole sequence in one MBR
  target.push_back(SequenceMbr{data.BoundingBox(), 0, data.size()});
  const Mbr probe(Point{0.1, 0.1, 0.1}, Point{0.2, 0.2, 0.2});
  // Case 1 (count >= probe_count) and Case 3 (whole sequence shorter).
  CheckDnormAgreement(target, probe, 4, 0.3);
  CheckDnormAgreement(target, probe, 50, 0.3);
}

TEST(DnormEquivalenceTest, ProbeCountExceedsTotalPointsIsBitIdentical) {
  // Case 3 accumulates left to right in both paths, so it must match the
  // reference exactly, not just within reassociation error.
  Rng rng(403);
  for (int trial = 0; trial < 10; ++trial) {
    const Sequence data = GenerateFractalSequence(30, FractalOptions(), &rng);
    PartitioningOptions part;
    part.max_points = 4;
    const Partition target = PartitionSequence(data.View(), part);
    const Sequence probe_seq =
        GenerateFractalSequence(10, FractalOptions(), &rng);
    const Mbr probe = probe_seq.BoundingBox();
    const std::vector<double> dmbr = ComputeMbrDistances(probe, target);
    DnormContext context;
    MakeDnormContext(target, dmbr, &context);
    const size_t probe_count = data.size() + 17;  // more than total points
    for (size_t j = 0; j < target.size(); ++j) {
      const NormalizedDistanceResult ref =
          ReferenceNormalizedDistance(probe_count, target, j, dmbr);
      const NormalizedDistanceResult fast =
          NormalizedDistance(probe_count, context, j);
      EXPECT_DOUBLE_EQ(fast.distance, ref.distance);
      EXPECT_EQ(fast.point_begin, ref.point_begin);
      EXPECT_EQ(fast.point_end, ref.point_end);
    }
  }
}

TEST(DnormEquivalenceTest, ZeroEpsilonKeepsOnlyExactWindows) {
  Rng rng(404);
  const Sequence data = GenerateFractalSequence(60, FractalOptions(), &rng);
  PartitioningOptions part;
  part.max_points = 6;
  const Partition target = PartitionSequence(data.View(), part);
  // A probe overlapping the whole space: many zero-distance MBRs.
  const Mbr probe(Point{-1.0, -1.0, -1.0}, Point{2.0, 2.0, 2.0});
  CheckDnormAgreement(target, probe, 12, 0.0);
  const std::vector<double> dmbr = ComputeMbrDistances(probe, target);
  DnormContext context;
  MakeDnormContext(target, dmbr, &context);
  for (size_t j = 0; j < target.size(); ++j) {
    std::vector<NormalizedDistanceResult> windows;
    QualifyingDnormWindows(12, context, j, 0.0, &windows);
    for (const NormalizedDistanceResult& w : windows) {
      EXPECT_EQ(w.distance, 0.0);
    }
  }
}

TEST(DnormEquivalenceTest, ContextPrefixSumsMatchPartition) {
  Rng rng(405);
  const Sequence data = GenerateFractalSequence(80, FractalOptions(), &rng);
  PartitioningOptions part;
  part.max_points = 7;
  const Partition target = PartitionSequence(data.View(), part);
  const Mbr probe(Point{0.3, 0.3, 0.3}, Point{0.4, 0.4, 0.4});
  const std::vector<double> dmbr = ComputeMbrDistances(probe, target);
  DnormContext context;
  MakeDnormContext(target, dmbr, &context);
  ASSERT_EQ(context.prefix_count.size(), target.size() + 1);
  size_t points = 0;
  double min_dmbr = std::numeric_limits<double>::infinity();
  for (size_t t = 0; t < target.size(); ++t) {
    EXPECT_EQ(context.prefix_count[t], points);
    points += target[t].count();
    min_dmbr = std::min(min_dmbr, dmbr[t]);
  }
  EXPECT_EQ(context.prefix_count.back(), points);
  EXPECT_EQ(context.total_points, points);
  EXPECT_EQ(context.min_dmbr, min_dmbr);
}

// ---------------------------------------------------------------------------
// Distinct-window sweep vs the per-j enumeration.
// ---------------------------------------------------------------------------

bool WindowLess(const NormalizedDistanceResult& a,
                const NormalizedDistanceResult& b) {
  if (a.point_begin != b.point_begin) return a.point_begin < b.point_begin;
  if (a.point_end != b.point_end) return a.point_end < b.point_end;
  return a.distance < b.distance;
}

bool WindowEqual(const NormalizedDistanceResult& a,
                 const NormalizedDistanceResult& b) {
  return a.point_begin == b.point_begin && a.point_end == b.point_end &&
         a.distance == b.distance;
}

std::vector<NormalizedDistanceResult> UniqueWindows(
    std::vector<NormalizedDistanceResult> windows) {
  std::sort(windows.begin(), windows.end(), WindowLess);
  windows.erase(std::unique(windows.begin(), windows.end(), WindowEqual),
                windows.end());
  return windows;
}

std::vector<Interval> MergedSpans(
    const std::vector<NormalizedDistanceResult>& windows) {
  std::vector<Interval> spans;
  for (const NormalizedDistanceResult& w : windows) {
    spans.push_back(Interval{w.point_begin, w.point_end});
  }
  MergeIntervals(&spans);
  return spans;
}

// One probe against one target: the distinct sweep must return the per-j
// minimum bit-for-bit, produce the per-j window set (every value
// bit-identical), stay O(m), and yield the same qualifying span union.
void CheckDistinctAgainstPerJ(const Partition& target, const Mbr& probe,
                              size_t probe_count, double epsilon) {
  const std::vector<double> dmbr = ComputeMbrDistances(probe, target);
  DnormContext context;
  MakeDnormContext(target, dmbr, &context);
  const double inf = std::numeric_limits<double>::infinity();

  std::vector<NormalizedDistanceResult> per_j_all, per_j_qualifying;
  double per_j_min = inf;
  for (size_t j = 0; j < target.size(); ++j) {
    per_j_min = std::min(per_j_min, QualifyingDnormWindows(
                                        probe_count, context, j, inf,
                                        &per_j_all));
    QualifyingDnormWindows(probe_count, context, j, epsilon,
                           &per_j_qualifying);
  }
  std::vector<NormalizedDistanceResult> distinct_all, distinct_qualifying;
  const double distinct_min =
      DistinctQualifyingWindows(probe_count, context, inf, &distinct_all);
  EXPECT_EQ(DistinctQualifyingWindows(probe_count, context, epsilon,
                                      &distinct_qualifying),
            distinct_min);

  EXPECT_EQ(distinct_min, per_j_min);
  EXPECT_LE(distinct_all.size(), 3 * target.size());
  const auto per_j_set = UniqueWindows(per_j_all);
  const auto distinct_set = UniqueWindows(distinct_all);
  ASSERT_EQ(distinct_set.size(), per_j_set.size());
  for (size_t i = 0; i < per_j_set.size(); ++i) {
    EXPECT_TRUE(WindowEqual(distinct_set[i], per_j_set[i])) << "window " << i;
  }
  EXPECT_EQ(MergedSpans(distinct_qualifying), MergedSpans(per_j_qualifying));
}

TEST(DistinctWindowsTest, MatchesPerJAcrossCasesDimsAndOrientations) {
  Rng rng(406);
  for (int trial = 0; trial < 96; ++trial) {
    FractalOptions fractal;
    fractal.dim = 1 + static_cast<size_t>(trial % 8);
    const Sequence a = GenerateFractalSequence(
        static_cast<size_t>(rng.UniformInt(8, 160)), fractal, &rng);
    const Sequence b = GenerateFractalSequence(
        static_cast<size_t>(rng.UniformInt(8, 400)), fractal, &rng);
    PartitioningOptions part;
    part.max_points = static_cast<size_t>(rng.UniformInt(1, 24));
    const Partition pa = PartitionSequence(a.View(), part);
    part.max_points = static_cast<size_t>(rng.UniformInt(1, 24));
    const Partition pb = PartitionSequence(b.View(), part);
    const double epsilon = rng.Uniform() * 0.6;
    // Short side probing the long side, then the swapped (long-query)
    // orientation; each probe's own count exercises Cases 1/2, a random
    // count past the target's length exercises Case 3.
    for (const auto& [probes, target] :
         {std::pair{&pa, &pb}, std::pair{&pb, &pa}}) {
      const size_t total = target->back().end - target->front().begin;
      for (const SequenceMbr& probe : *probes) {
        CheckDistinctAgainstPerJ(*target, probe.mbr, probe.count(), epsilon);
        CheckDistinctAgainstPerJ(
            *target, probe.mbr,
            static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(total) + 20)),
            epsilon);
      }
    }
  }
}

TEST(DistinctWindowsTest, HandBuiltCases) {
  // Counts 3,1,3 with a 5-point probe: MBR 1 reaches a window only through
  // the LD start 0, and the full-MBR LD/RD windows over [0, 7) coincide.
  Partition target;
  size_t at = 0;
  for (size_t count : {3, 1, 3, 9, 2}) {
    const double lo = 0.1 * static_cast<double>(target.size());
    target.push_back(
        SequenceMbr{Mbr(Point{lo, 0.0}, Point{lo + 0.05, 1.0}), at,
                    at + count});
    at += count;
  }
  const Mbr probe(Point{0.0, 0.0}, Point{0.02, 1.0});
  for (size_t probe_count : {1, 2, 4, 5, 7, 9, 10, 17, 18, 19, 40}) {
    CheckDistinctAgainstPerJ(target, probe, probe_count, 0.15);
  }
}

// ---------------------------------------------------------------------------
// Dense candidate aggregation vs the sort-based reference.
// ---------------------------------------------------------------------------

internal::CandidateSet ReferenceAggregate(
    const std::vector<std::vector<SpatialIndex::BatchHit>>& hits) {
  std::vector<std::pair<size_t, double>> scored;
  for (const auto& per_query : hits) {
    for (const SpatialIndex::BatchHit& hit : per_query) {
      scored.emplace_back(SequenceDatabase::UnpackSequenceId(hit.value),
                          hit.dist2);
    }
  }
  std::sort(scored.begin(), scored.end());
  internal::CandidateSet result;
  for (const auto& [id, dist2] : scored) {
    if (!result.ids.empty() && result.ids.back() == id) {
      result.min_dist2.back() = std::min(result.min_dist2.back(), dist2);
    } else {
      result.ids.push_back(id);
      result.min_dist2.push_back(dist2);
    }
  }
  return result;
}

void ExpectSameCandidates(
    const std::vector<std::vector<SpatialIndex::BatchHit>>& hits) {
  const internal::CandidateSet dense = internal::AggregateCandidates(hits);
  const internal::CandidateSet ref = ReferenceAggregate(hits);
  EXPECT_EQ(dense.ids, ref.ids);
  ASSERT_EQ(dense.min_dist2.size(), ref.min_dist2.size());
  for (size_t i = 0; i < ref.min_dist2.size(); ++i) {
    EXPECT_EQ(dense.min_dist2[i], ref.min_dist2[i]) << "id " << ref.ids[i];
  }
}

TEST(CandidateAggregationTest, DenseMatchesSortReference) {
  Rng rng(407);
  ExpectSameCandidates({});
  ExpectSameCandidates({{}, {}});
  for (int trial = 0; trial < 60; ++trial) {
    // Dense, sparse (a few ids out of a wide range) and tie-heavy lists.
    const int64_t id_range = trial % 3 == 0 ? 20 : (trial % 3 == 1 ? 5000 : 300);
    std::vector<std::vector<SpatialIndex::BatchHit>> hits(
        static_cast<size_t>(rng.UniformInt(1, 12)));
    for (auto& per_query : hits) {
      const int64_t count = rng.UniformInt(0, 40);
      for (int64_t i = 0; i < count; ++i) {
        const size_t id = static_cast<size_t>(rng.UniformInt(0, id_range - 1));
        const size_t ordinal = static_cast<size_t>(rng.UniformInt(0, 30));
        // Quantized distances make equal minima across lists common.
        const double dist2 = static_cast<double>(rng.UniformInt(0, 8)) / 64.0;
        per_query.push_back(SpatialIndex::BatchHit{
            SequenceDatabase::PackEntry(id, ordinal), dist2});
      }
    }
    // Overlay hits: ids above the base count, appended as one more list,
    // some repeating an id the list already holds.
    if (trial % 2 == 0) {
      auto& overlay = hits.emplace_back();
      for (int i = 0; i < 6; ++i) {
        const size_t id = static_cast<size_t>(id_range + rng.UniformInt(0, 3));
        overlay.push_back(SpatialIndex::BatchHit{
            SequenceDatabase::PackEntry(id, static_cast<size_t>(i)),
            rng.Uniform()});
      }
    }
    ExpectSameCandidates(hits);
  }
}

TEST(CandidateAggregationTest, OrderIsByMinDistThenId) {
  std::vector<std::vector<SpatialIndex::BatchHit>> hits(2);
  hits[0] = {{SequenceDatabase::PackEntry(9, 0), 0.5},
             {SequenceDatabase::PackEntry(2, 1), 0.25},
             {SequenceDatabase::PackEntry(4, 0), 0.25}};
  hits[1] = {{SequenceDatabase::PackEntry(9, 3), 0.0},
             {SequenceDatabase::PackEntry(4, 2), 0.75}};
  const internal::CandidateSet set = internal::AggregateCandidates(hits);
  EXPECT_EQ(set.ids, (std::vector<size_t>{2, 4, 9}));
  EXPECT_EQ(set.min_dist2, (std::vector<double>{0.25, 0.25, 0.0}));
  EXPECT_EQ(internal::CandidateOrder(set), (std::vector<size_t>{2, 0, 1}));
}

// ---------------------------------------------------------------------------
// Batched range search vs per-probe reference.
// ---------------------------------------------------------------------------

std::vector<Mbr> MakeProbes(Rng* rng, size_t count) {
  std::vector<Mbr> probes;
  for (size_t i = 0; i < count; ++i) {
    Point low{rng->Uniform(), rng->Uniform(), rng->Uniform()};
    Point high = low;
    for (double& v : high) v += 0.1 * rng->Uniform();
    probes.emplace_back(low, high);
  }
  return probes;
}

std::vector<IndexEntry> MakeEntries(Rng* rng, size_t count) {
  std::vector<IndexEntry> entries;
  for (uint64_t i = 0; i < count; ++i) {
    Point low{rng->Uniform(), rng->Uniform(), rng->Uniform()};
    Point high = low;
    for (double& v : high) v += 0.05 * rng->Uniform();
    entries.push_back(IndexEntry{Mbr(low, high), i});
  }
  return entries;
}

// Batch results must equal one single-probe search per query: same payload
// sets, and each hit's dist2 must be the probe/entry MinDist2.
void CheckBatchAgainstSingles(const SpatialIndex& index,
                              const std::vector<IndexEntry>& entries,
                              const std::vector<Mbr>& probes, double epsilon) {
  std::vector<std::vector<SpatialIndex::BatchHit>> batch;
  const uint64_t batch_visits =
      index.RangeSearchBatch(probes, epsilon, &batch);
  ASSERT_EQ(batch.size(), probes.size());
  uint64_t single_visits = 0;
  for (size_t q = 0; q < probes.size(); ++q) {
    std::vector<uint64_t> expected;
    single_visits += index.RangeSearch(probes[q], epsilon, &expected);
    std::sort(expected.begin(), expected.end());
    std::vector<uint64_t> actual;
    for (const SpatialIndex::BatchHit& hit : batch[q]) {
      actual.push_back(hit.value);
      const double d2 = probes[q].MinDist2(entries[hit.value].mbr);
      EXPECT_DOUBLE_EQ(hit.dist2, d2) << "probe " << q;
    }
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "probe " << q;
  }
  // The batch descends once, so it can never touch more nodes than the
  // per-probe searches combined.
  EXPECT_LE(batch_visits, single_visits);
}

TEST(BatchRangeSearchTest, RStarTreeMatchesSingleProbeSearches) {
  Rng rng(406);
  auto entries = MakeEntries(&rng, 3000);
  const RStarTree tree = RStarTree::BulkLoad(3, entries);
  for (int trial = 0; trial < 10; ++trial) {
    const auto probes =
        MakeProbes(&rng, static_cast<size_t>(rng.UniformInt(1, 12)));
    CheckBatchAgainstSingles(tree, entries, probes, rng.Uniform() * 0.2);
  }
}

TEST(BatchRangeSearchTest, RStarTreeEmptyBatchAndEmptyTree) {
  const RStarTree empty(3);
  std::vector<std::vector<SpatialIndex::BatchHit>> out{{}};
  EXPECT_EQ(empty.RangeSearchBatch({}, 0.1, &out), 0u);
  EXPECT_TRUE(out.empty());
  Rng rng(407);
  const auto probes = MakeProbes(&rng, 3);
  empty.RangeSearchBatch(probes, 0.1, &out);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& hits : out) EXPECT_TRUE(hits.empty());
}

TEST(BatchRangeSearchTest, LinearIndexMatchesSingleProbeSearches) {
  Rng rng(408);
  auto entries = MakeEntries(&rng, 500);
  LinearIndex index(16);
  for (const IndexEntry& e : entries) index.Insert(e.mbr, e.value);
  for (int trial = 0; trial < 5; ++trial) {
    const auto probes = MakeProbes(&rng, 6);
    CheckBatchAgainstSingles(index, entries, probes, rng.Uniform() * 0.3);
  }
}

TEST(BatchRangeSearchTest, ZeroEpsilonBatchMatchesSingles) {
  Rng rng(409);
  auto entries = MakeEntries(&rng, 1000);
  const RStarTree tree = RStarTree::BulkLoad(3, entries);
  const auto probes = MakeProbes(&rng, 8);
  CheckBatchAgainstSingles(tree, entries, probes, 0.0);
}

class PagedBatchTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = testing::TempDir() + "/kernel_equiv_rtree.db";
};

TEST_F(PagedBatchTest, PagedRTreeBatchMatchesSinglesAndSavesPages) {
  Rng rng(410);
  auto entries = MakeEntries(&rng, 4000);
  {
    PageFile file;
    ASSERT_TRUE(file.Create(path_));
    ASSERT_TRUE(PagedRTree::Build(3, entries, &file));
  }
  PageFile file;
  ASSERT_TRUE(file.Open(path_));
  BufferPool pool(&file, 256);
  PagedRTree tree(3, &pool, file);
  ASSERT_TRUE(tree.valid());
  for (int trial = 0; trial < 8; ++trial) {
    const auto probes =
        MakeProbes(&rng, static_cast<size_t>(rng.UniformInt(1, 10)));
    const double epsilon = rng.Uniform() * 0.2;
    std::vector<std::vector<SpatialIndex::BatchHit>> batch;
    uint64_t batch_pages = 0;
    ASSERT_TRUE(tree.RangeSearchBatch(probes, epsilon, &batch, &batch_pages));
    ASSERT_EQ(batch.size(), probes.size());
    uint64_t single_pages = 0;
    for (size_t q = 0; q < probes.size(); ++q) {
      std::vector<uint64_t> expected;
      ASSERT_TRUE(
          tree.RangeSearch(probes[q], epsilon, &expected, &single_pages));
      std::sort(expected.begin(), expected.end());
      std::vector<uint64_t> actual;
      for (const SpatialIndex::BatchHit& hit : batch[q]) {
        actual.push_back(hit.value);
        EXPECT_DOUBLE_EQ(hit.dist2,
                         probes[q].MinDist2(entries[hit.value].mbr));
      }
      std::sort(actual.begin(), actual.end());
      EXPECT_EQ(actual, expected) << "probe " << q;
    }
    EXPECT_LE(batch_pages, single_pages);
  }
}

// ---------------------------------------------------------------------------
// Bounded window profile / bounded sequence distance vs reference.
// ---------------------------------------------------------------------------

TEST(BoundedProfileTest, CompletedWindowsAreBitIdentical) {
  Rng rng(411);
  for (int trial = 0; trial < 25; ++trial) {
    const Sequence data =
        GenerateFractalSequence(80 + trial, FractalOptions(), &rng);
    const Sequence query =
        GenerateFractalSequence(static_cast<size_t>(rng.UniformInt(1, 40)),
                                FractalOptions(), &rng);
    const double epsilon = rng.Uniform() * 0.5;
    const std::vector<double> ref =
        WindowDistanceProfile(query.View(), data.View());
    const std::vector<double> bounded =
        WindowDistanceProfileBounded(query.View(), data.View(), epsilon);
    ASSERT_EQ(bounded.size(), ref.size());
    for (size_t j = 0; j < ref.size(); ++j) {
      if (std::isinf(bounded[j])) {
        // Abandoned windows must be genuinely disqualified.
        EXPECT_GT(ref[j], epsilon) << "j=" << j;
      } else {
        // Completed windows reproduce the reference exactly.
        EXPECT_DOUBLE_EQ(bounded[j], ref[j]) << "j=" << j;
      }
      // The qualification decision is never changed by the bound.
      EXPECT_EQ(bounded[j] <= epsilon, ref[j] <= epsilon) << "j=" << j;
    }
  }
}

TEST(BoundedProfileTest, ZeroEpsilonKeepsExactAlignments) {
  Rng rng(412);
  Sequence data = GenerateFractalSequence(50, FractalOptions(), &rng);
  // Plant an exact copy of the query inside data.
  const size_t offset = 17;
  const size_t k = 9;
  const SequenceView query = data.Slice(offset, offset + k);
  const std::vector<double> bounded =
      WindowDistanceProfileBounded(query, data.View(), 0.0);
  EXPECT_EQ(bounded[offset], 0.0);
  EXPECT_EQ(SequenceDistanceBounded(query, data.View(), 0.0), 0.0);
}

TEST(BoundedSequenceDistanceTest, MatchesReferenceWithinThreshold) {
  Rng rng(413);
  for (int trial = 0; trial < 30; ++trial) {
    const Sequence a = GenerateFractalSequence(
        static_cast<size_t>(rng.UniformInt(1, 60)), FractalOptions(), &rng);
    const Sequence b = GenerateFractalSequence(
        static_cast<size_t>(rng.UniformInt(1, 60)), FractalOptions(), &rng);
    const double epsilon = rng.Uniform() * 0.6;
    const double ref = SequenceDistance(a.View(), b.View());
    const double bounded = SequenceDistanceBounded(a.View(), b.View(), epsilon);
    if (ref <= epsilon) {
      EXPECT_DOUBLE_EQ(bounded, ref);
    } else {
      EXPECT_TRUE(std::isinf(bounded)) << "ref=" << ref << " eps=" << epsilon;
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD kernels vs scalar references. Parameterized over forced-scalar
// (trivially scalar-vs-scalar, proving the override routes correctly) and
// the host's native dispatch level (the real differential). Shapes cover
// odd dims (1, 3, 5, 7), counts below one vector lane, and counts that
// leave every possible tail remainder.
// ---------------------------------------------------------------------------

constexpr size_t kSimdDims[] = {1, 2, 3, 4, 5, 7, 8};
constexpr size_t kSimdCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 31, 64, 65};

class SimdKernelTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::SetForceScalarForTesting(GetParam()); }
  void TearDown() override { simd::ReinitFromEnvForTesting(); }
};

TEST_P(SimdKernelTest, MinDist2BatchIsBitIdenticalToScalarAndMbr) {
  Rng rng(420);
  for (const size_t dim : kSimdDims) {
    for (const size_t n : kSimdCounts) {
      Point qlo(dim), qhi(dim);
      for (size_t k = 0; k < dim; ++k) {
        qlo[k] = rng.Uniform();
        qhi[k] = qlo[k] + 0.3 * rng.Uniform();
      }
      const Mbr probe(qlo, qhi);
      std::vector<double> lo(dim * n), hi(dim * n);
      std::vector<Mbr> rects;
      for (size_t i = 0; i < n; ++i) {
        Point low(dim), high(dim);
        for (size_t k = 0; k < dim; ++k) {
          low[k] = 2.0 * rng.Uniform() - 0.5;
          high[k] = low[k] + 0.2 * rng.Uniform();
          lo[k * n + i] = low[k];
          hi[k * n + i] = high[k];
        }
        rects.emplace_back(low, high);
      }
      std::vector<double> fast(n), ref(n);
      simd::MinDist2Batch(qlo.data(), qhi.data(), lo.data(), hi.data(), n,
                          dim, fast.data());
      simd::MinDist2BatchScalar(qlo.data(), qhi.data(), lo.data(), hi.data(),
                                n, dim, ref.data());
      for (size_t i = 0; i < n; ++i) {
        // Bit-identical to the scalar kernel *and* to the geometry the
        // scalar kernel mirrors.
        EXPECT_DOUBLE_EQ(fast[i], ref[i])
            << "dim=" << dim << " n=" << n << " i=" << i;
        EXPECT_DOUBLE_EQ(fast[i], probe.MinDist2(rects[i]))
            << "dim=" << dim << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST_P(SimdKernelTest, SquaredDistBatchIsBitIdenticalToScalar) {
  Rng rng(421);
  for (const size_t dim : kSimdDims) {
    for (const size_t n : kSimdCounts) {
      std::vector<double> point(dim);
      for (double& v : point) v = rng.Uniform();
      std::vector<double> points(dim * n);
      for (double& v : points) v = 2.0 * rng.Uniform() - 0.5;
      std::vector<double> fast(n), ref(n);
      simd::SquaredDistBatch(point.data(), points.data(), n, dim,
                             fast.data());
      simd::SquaredDistBatchScalar(point.data(), points.data(), n, dim,
                                   ref.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(fast[i], ref[i])
            << "dim=" << dim << " n=" << n << " i=" << i;
        // Independent accumulation in dimension order.
        double want = 0.0;
        for (size_t k = 0; k < dim; ++k) {
          const double diff = point[k] - points[k * n + i];
          want += diff * diff;
        }
        EXPECT_DOUBLE_EQ(fast[i], want)
            << "dim=" << dim << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST_P(SimdKernelTest, PointSumBoundedMatchesScalarWithinReassociation) {
  Rng rng(422);
  const double inf = std::numeric_limits<double>::infinity();
  for (const size_t dim : kSimdDims) {
    for (const size_t n : kSimdCounts) {
      std::vector<double> a(n * dim), b(n * dim);
      for (double& v : a) v = rng.Uniform();
      for (double& v : b) v = rng.Uniform();
      bool fast_abandoned = true;
      const double fast = simd::PointSumBounded(a.data(), b.data(), n, dim,
                                                inf, &fast_abandoned);
      bool ref_abandoned = true;
      const double ref = simd::PointSumBoundedScalar(
          a.data(), b.data(), n, dim, inf, &ref_abandoned);
      EXPECT_FALSE(fast_abandoned);
      EXPECT_FALSE(ref_abandoned);
      // The blocked kernel reassociates the per-point additions; the error
      // is a few ulps of an O(n)-sized sum.
      EXPECT_NEAR(fast, ref, 1e-9 * (1.0 + ref))
          << "dim=" << dim << " n=" << n;
    }
  }
}

TEST_P(SimdKernelTest, PointSumBoundedAbandonDecisionsAgree) {
  Rng rng(423);
  const double inf = std::numeric_limits<double>::infinity();
  for (const size_t dim : kSimdDims) {
    for (const size_t n : kSimdCounts) {
      std::vector<double> a(n * dim), b(n * dim);
      for (double& v : a) v = rng.Uniform();
      for (double& v : b) v = rng.Uniform();
      const double total = simd::PointSumBoundedScalar(a.data(), b.data(), n,
                                                       dim, inf, nullptr);
      // Bounds well inside / outside the total: both kernels check partial
      // sums that increase monotonically to the (reassociation-equal)
      // total, so the flag must agree whenever the bound is not within
      // rounding error of it.
      for (const double bound : {0.5 * total, 2.0 * total + 1.0}) {
        bool fast_abandoned = false;
        const double fast = simd::PointSumBounded(a.data(), b.data(), n, dim,
                                                  bound, &fast_abandoned);
        bool ref_abandoned = false;
        const double ref = simd::PointSumBoundedScalar(
            a.data(), b.data(), n, dim, bound, &ref_abandoned);
        EXPECT_EQ(fast_abandoned, ref_abandoned)
            << "dim=" << dim << " n=" << n << " bound=" << bound;
        EXPECT_EQ(fast_abandoned, total > bound)
            << "dim=" << dim << " n=" << n << " bound=" << bound;
        if (fast_abandoned) {
          // Early exits may stop at different points, but both must have
          // genuinely exceeded the bound.
          EXPECT_GT(fast, bound);
          EXPECT_GT(ref, bound);
        } else {
          EXPECT_NEAR(fast, ref, 1e-9 * (1.0 + ref));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NativeAndForcedScalar, SimdKernelTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ForcedScalar" : "Native";
                         });

// ---------------------------------------------------------------------------
// Window-sum bound soundness. The oracle is the unbounded
// `WindowDistanceProfile`, which shares no bound code: every window whose
// unbounded mean is within epsilon must complete with the bit-identical
// value, and every other window reports either +inf or that same value.
// The cases aim at the bound's failure modes: windows exactly at epsilon,
// windows whose difference vectors are parallel (the triangle inequality
// is then tight, so rounding alone decides), and coordinate offsets where
// the prefix sums cancel. Run under native and forced-scalar dispatch.
// ---------------------------------------------------------------------------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectBoundedSound(SequenceView query, SequenceView data, double epsilon,
                        const std::string& context) {
  const std::vector<double> ref = WindowDistanceProfile(query, data);
  const std::vector<double> bounded =
      WindowDistanceProfileBounded(query, data, epsilon);
  ASSERT_EQ(bounded.size(), ref.size()) << context;
  for (size_t j = 0; j < ref.size(); ++j) {
    if (ref[j] <= epsilon) {
      EXPECT_EQ(Bits(bounded[j]), Bits(ref[j]))
          << context << " j=" << j << " ref=" << ref[j]
          << " bounded=" << bounded[j] << " eps=" << epsilon;
    } else if (!std::isinf(bounded[j])) {
      EXPECT_EQ(Bits(bounded[j]), Bits(ref[j])) << context << " j=" << j;
    }
  }
}

// `length` points of `dim` coordinates, uniform in [offset, offset + 1).
Sequence UniformSequence(size_t length, size_t dim, double offset, Rng* rng) {
  Sequence out(dim);
  Point p(dim);
  for (size_t i = 0; i < length; ++i) {
    for (size_t c = 0; c < dim; ++c) p[c] = offset + rng->Uniform();
    out.Append(p);
  }
  return out;
}

// `data[begin, begin + k)` moved by `delta_i * direction` with delta_i > 0:
// every difference vector of that window is parallel, so the window-sum
// bound equals the window's exact point sum.
Sequence ParallelShiftedCut(const Sequence& data, size_t begin, size_t k,
                            Rng* rng) {
  const size_t dim = data.dim();
  Point direction(dim);
  double norm2 = 0.0;
  for (size_t c = 0; c < dim; ++c) {
    direction[c] = rng->Uniform() - 0.5;
    norm2 += direction[c] * direction[c];
  }
  if (norm2 == 0.0) direction[0] = 1.0;
  Sequence out(dim);
  Point p(dim);
  for (size_t i = 0; i < k; ++i) {
    const double delta = 0.01 + 0.05 * rng->Uniform();
    for (size_t c = 0; c < dim; ++c) {
      p[c] = data[begin + i][c] + delta * direction[c];
    }
    out.Append(p);
  }
  return out;
}

class WindowSumBoundTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::SetForceScalarForTesting(GetParam()); }
  void TearDown() override { simd::ReinitFromEnvForTesting(); }
};

TEST_P(WindowSumBoundTest, SoundAcrossDimsOffsetsAndBoundaryThresholds) {
  Rng rng(431);
  for (size_t dim = 1; dim <= 8; ++dim) {
    for (const double offset : {0.0, 1e3, 1e8}) {
      for (int trial = 0; trial < 12; ++trial) {
        const size_t n = static_cast<size_t>(rng.UniformInt(20, 160));
        const size_t k = static_cast<size_t>(
            rng.UniformInt(1, static_cast<int64_t>(n)));
        const Sequence data = UniformSequence(n, dim, offset, &rng);
        const size_t planted = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n - k)));
        const Sequence query = ParallelShiftedCut(data, planted, k, &rng);
        const std::vector<double> ref =
            WindowDistanceProfile(query.View(), data.View());
        const std::string context = "dim=" + std::to_string(dim) +
                                    " offset=" + std::to_string(offset) +
                                    " n=" + std::to_string(n) +
                                    " k=" + std::to_string(k);
        // Thresholds exactly at the planted (tight-bound) window's mean,
        // one ulp either side of it, at zero, and at profile quantiles.
        std::vector<double> sorted = ref;
        std::sort(sorted.begin(), sorted.end());
        const double at = ref[planted];
        for (const double epsilon :
             {at, std::nextafter(at, 0.0), std::nextafter(at, 1e300), 0.0,
              sorted[sorted.size() / 4], sorted[sorted.size() / 2]}) {
          ExpectBoundedSound(query.View(), data.View(), epsilon, context);
        }
      }
    }
  }
}

TEST_P(WindowSumBoundTest, ExactCopiesSurviveZeroEpsilon) {
  // 1e307 overflows the prefix sums (and the magnitudes, so nothing skips).
  Rng rng(432);
  for (size_t dim = 1; dim <= 8; ++dim) {
    for (const double offset : {0.0, 1e3, 1e8, 1e307}) {
      const Sequence data = UniformSequence(90, dim, offset, &rng);
      for (const size_t k : {1, 7, 40, 90}) {
        const size_t begin = 90 - k;
        const SequenceView query = data.Slice(begin, begin + k);
        const std::vector<double> bounded =
            WindowDistanceProfileBounded(query, data.View(), 0.0);
        EXPECT_EQ(bounded[begin], 0.0)
            << "dim=" << dim << " offset=" << offset << " k=" << k;
        ExpectBoundedSound(query, data.View(), 0.0, "copy");
      }
    }
  }
}

TEST_P(WindowSumBoundTest, MeanExactlyAtEpsilon) {
  // Constant 0.5 data against a zero query: every window's mean is exactly
  // 0.5 * sqrt(dim) (exact for dim 1 and 4), and its window-sum bound
  // equals its point sum.
  for (const size_t dim : {1, 4}) {
    Sequence data(dim);
    Sequence query(dim);
    for (size_t i = 0; i < 64; ++i) data.Append(Point(dim, 0.5));
    for (size_t i = 0; i < 16; ++i) query.Append(Point(dim, 0.0));
    const double epsilon = 0.5 * std::sqrt(static_cast<double>(dim));
    const std::vector<double> bounded =
        WindowDistanceProfileBounded(query.View(), data.View(), epsilon);
    for (size_t j = 0; j < bounded.size(); ++j) {
      EXPECT_EQ(bounded[j], epsilon) << "dim=" << dim << " j=" << j;
    }
    ExpectBoundedSound(query.View(), data.View(), epsilon, "constant");
    ExpectBoundedSound(query.View(), data.View(),
                       std::nextafter(epsilon, 0.0), "constant-below");
  }
}

TEST_P(WindowSumBoundTest, LongQueriesKeepDistanceAndIntervals) {
  // Both orientations through the fused verify: it must equal the answer
  // assembled from the unbounded profile, sliding the shorter side.
  Rng rng(433);
  for (size_t dim = 1; dim <= 8; ++dim) {
    for (const double offset : {0.0, 1e3, 1e8}) {
      const size_t long_length = static_cast<size_t>(rng.UniformInt(30, 120));
      const size_t short_length = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(long_length)));
      const Sequence longer = UniformSequence(long_length, dim, offset, &rng);
      const size_t planted = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(long_length - short_length)));
      const Sequence shorter =
          ParallelShiftedCut(longer, planted, short_length, &rng);
      const std::vector<double> ref =
          WindowDistanceProfile(shorter.View(), longer.View());
      const double best = *std::min_element(ref.begin(), ref.end());
      for (const bool long_query : {false, true}) {
        const SequenceView query = long_query ? longer.View() : shorter.View();
        const SequenceView data = long_query ? shorter.View() : longer.View();
        for (const double epsilon :
             {best, std::nextafter(best, 0.0), ref[planted], 0.0}) {
          std::vector<Interval> want;
          if (long_query) {
            if (best <= epsilon) want.push_back(Interval{0, data.size()});
          } else {
            for (size_t j = 0; j < ref.size(); ++j) {
              if (ref[j] <= epsilon) {
                want.push_back(Interval{j, j + short_length});
              }
            }
            MergeIntervals(&want);
          }
          double exact = 0.0;
          std::vector<Interval> got;
          const bool qualifies =
              internal::VerifySequence(query, data, epsilon, &exact, &got);
          const std::string context =
              "dim=" + std::to_string(dim) +
              " long_query=" + std::to_string(long_query) +
              " eps=" + std::to_string(epsilon);
          EXPECT_EQ(qualifies, best <= epsilon) << context;
          if (best <= epsilon) {
            EXPECT_EQ(Bits(exact), Bits(best)) << context;
            EXPECT_EQ(Bits(SequenceDistanceBounded(query, data, epsilon)),
                      Bits(best))
                << context;
          } else {
            EXPECT_TRUE(std::isinf(exact)) << context;
          }
          EXPECT_EQ(got, want) << context;
          EXPECT_EQ(ExactSolutionInterval(query, data, epsilon), want)
              << context;
        }
      }
    }
  }
}

// The kernel as it was before the window-sum bound: abandon-only, same
// abandon threshold. Non-finite inputs must take exactly this path.
std::vector<double> AbandonOnlyProfile(SequenceView query, SequenceView data,
                                       double epsilon) {
  const size_t k = query.size();
  const size_t dim = query.dim();
  const double points = static_cast<double>(k);
  const double bound = epsilon * points * (1.0 + 1e-12) + 1e-280;
  std::vector<double> profile(data.size() - k + 1,
                              std::numeric_limits<double>::infinity());
  for (size_t j = 0; j < profile.size(); ++j) {
    bool abandoned = false;
    const double sum = simd::PointSumBounded(
        query[0].data(), data[0].data() + j * dim, k, dim, bound, &abandoned);
    if (!abandoned) profile[j] = sum / points;
  }
  return profile;
}

TEST_P(WindowSumBoundTest, NonFiniteCoordinatesNeverSkip) {
  Rng rng(434);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const size_t dim : {1, 3, 4}) {
    for (const double bad : {nan, inf, -inf}) {
      for (const bool in_query : {false, true}) {
        Sequence data = UniformSequence(60, dim, 0.0, &rng);
        Sequence query = UniformSequence(12, dim, 3.0, &rng);
        // One poisoned coordinate, far from most windows it would skip.
        Sequence& target = in_query ? query : data;
        std::vector<double> raw = target.data();
        raw[(in_query ? 5 : 41) * dim + dim - 1] = bad;
        Sequence poisoned(dim);
        for (size_t i = 0; i < target.size(); ++i) {
          poisoned.Append(PointView(raw.data() + i * dim, dim));
        }
        target = std::move(poisoned);
        for (const double epsilon : {0.0, 0.1, 1.0, 10.0}) {
          const std::vector<double> want =
              AbandonOnlyProfile(query.View(), data.View(), epsilon);
          const std::vector<double> got =
              WindowDistanceProfileBounded(query.View(), data.View(), epsilon);
          ASSERT_EQ(got.size(), want.size());
          for (size_t j = 0; j < got.size(); ++j) {
            EXPECT_EQ(Bits(got[j]), Bits(want[j]))
                << "dim=" << dim << " bad=" << bad << " in_query=" << in_query
                << " eps=" << epsilon << " j=" << j;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NativeAndForcedScalar, WindowSumBoundTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ForcedScalar" : "Native";
                         });

}  // namespace
}  // namespace mdseq
