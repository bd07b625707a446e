// Microbenchmarks of the MBR distance metrics (Dmbr, Dnorm) and the full
// three-phase search. Supports `--json` (see json_main.h); the
// Reference/PrefixSum and PerJWindows/DistinctWindows pairs feed
// tools/run_benchmarks.sh.

#include <benchmark/benchmark.h>

#include "core/database.h"
#include "core/mbr_distance.h"
#include "core/search.h"
#include "gen/fractal.h"
#include "gen/query_workload.h"
#include "json_main.h"
#include "util/random.h"
#include "util/simd.h"

namespace {

using namespace mdseq;

struct Fixture {
  SequenceDatabase database{3};
  std::vector<Sequence> corpus;
  Sequence query{3};

  explicit Fixture(size_t sequences) {
    Rng rng(1);
    for (size_t i = 0; i < sequences; ++i) {
      corpus.push_back(GenerateFractalSequence(256, FractalOptions(), &rng));
      database.Add(corpus.back());
    }
    query = DrawQuery(corpus, QueryWorkloadOptions(), &rng);
  }
};

void BM_MbrDistance(benchmark::State& state) {
  const Fixture fixture(2);
  const Mbr& a = fixture.database.partition(0)[0].mbr;
  const Mbr& b = fixture.database.partition(1)[0].mbr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MbrDistance(a, b));
  }
}
BENCHMARK(BM_MbrDistance);

void BM_NormalizedDistanceAllPairs(benchmark::State& state) {
  const Fixture fixture(2);
  const Partition& query_partition =
      PartitionSequence(fixture.query.View(),
                        fixture.database.options().partitioning);
  const Partition& target = fixture.database.partition(0);
  for (auto _ : state) {
    double best = 1e18;
    for (const SequenceMbr& probe : query_partition) {
      const std::vector<double> dmbr =
          ComputeMbrDistances(probe.mbr, target);
      for (size_t j = 0; j < target.size(); ++j) {
        best = std::min(best, NormalizedDistance(probe.count(), target, j,
                                                 dmbr)
                                  .distance);
      }
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_NormalizedDistanceAllPairs);

// The many-MBR worst case of Definition 5: a finely partitioned target
// (state.range(0) MBRs of 4 points each) and a probe covering 128 points,
// so almost every j needs a long window walk. The naive reference
// re-accumulates each window; the prefix-sum context answers each in O(1).
struct ManyMbrFixture {
  Partition target;
  Mbr probe{Point{0.0, 0.0, 0.0}, Point{0.1, 1.0, 1.0}};
  std::vector<double> dmbr;
  size_t probe_count = 128;

  explicit ManyMbrFixture(size_t mbrs) {
    Rng rng(11);
    size_t at = 0;
    for (size_t i = 0; i < mbrs; ++i) {
      const double lo = rng.Uniform();
      const Mbr box(Point{lo, 0.0, 0.0}, Point{lo + 0.01, 1.0, 1.0});
      target.push_back(SequenceMbr{box, at, at + 4});
      at += 4;
    }
    dmbr = ComputeMbrDistances(probe, target);
  }
};

void BM_DnormManyMbrs_Reference(benchmark::State& state) {
  const ManyMbrFixture fixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    double best = 1e18;
    for (size_t j = 0; j < fixture.target.size(); ++j) {
      best = std::min(best,
                      ReferenceNormalizedDistance(fixture.probe_count,
                                                  fixture.target, j,
                                                  fixture.dmbr)
                          .distance);
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_DnormManyMbrs_Reference)->Arg(64)->Arg(256);

void BM_DnormManyMbrs_PrefixSum(benchmark::State& state) {
  const ManyMbrFixture fixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    DnormContext context;
    MakeDnormContext(fixture.target, fixture.dmbr, &context);
    double best = 1e18;
    for (size_t j = 0; j < fixture.target.size(); ++j) {
      best = std::min(
          best,
          NormalizedDistance(fixture.probe_count, context, j).distance);
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_DnormManyMbrs_PrefixSum)->Arg(64)->Arg(256);

// Per-j vs distinct-window enumeration of every qualifying window of one
// probe (what Phase 3 needs per probe): the per-j form visits a window once
// for every j it fully counts, the distinct sweep once in total. Both
// include building the prefix-sum context.
constexpr double kManyMbrEpsilon = 0.3;

void BM_DnormManyMbrs_PerJWindows(benchmark::State& state) {
  const ManyMbrFixture fixture(static_cast<size_t>(state.range(0)));
  DnormContext context;
  std::vector<NormalizedDistanceResult> windows;
  for (auto _ : state) {
    MakeDnormContext(fixture.target, fixture.dmbr, &context);
    windows.clear();
    double best = 1e18;
    for (size_t j = 0; j < fixture.target.size(); ++j) {
      best = std::min(best, QualifyingDnormWindows(fixture.probe_count,
                                                   context, j,
                                                   kManyMbrEpsilon, &windows));
    }
    benchmark::DoNotOptimize(best);
    benchmark::DoNotOptimize(windows.data());
  }
}
BENCHMARK(BM_DnormManyMbrs_PerJWindows)->Arg(64)->Arg(256);

void BM_DnormManyMbrs_DistinctWindows(benchmark::State& state) {
  const ManyMbrFixture fixture(static_cast<size_t>(state.range(0)));
  DnormContext context;
  std::vector<NormalizedDistanceResult> windows;
  for (auto _ : state) {
    MakeDnormContext(fixture.target, fixture.dmbr, &context);
    windows.clear();
    benchmark::DoNotOptimize(DistinctQualifyingWindows(
        fixture.probe_count, context, kManyMbrEpsilon, &windows));
    benchmark::DoNotOptimize(windows.data());
  }
}
BENCHMARK(BM_DnormManyMbrs_DistinctWindows)->Arg(64)->Arg(256);

// Scalar vs dispatched prefilter kernel (batched centroid squared
// distances over a dim-major SoA layout, as PrefilterProbe issues it):
// one probe centroid against state.range(0) 4-d target centroids. The
// `simd_level` counter on the dispatched run records which implementation
// actually ran (0 scalar, 1 avx2, 2 neon).
struct PrefilterFixture {
  size_t n;
  size_t dim = 4;
  std::vector<double> center, centers, out;

  explicit PrefilterFixture(size_t count)
      : n(count), center(dim), centers(dim * n), out(n) {
    Rng rng(41);
    for (double& v : center) v = rng.Uniform();
    for (double& v : centers) v = rng.Uniform();
  }
};

void BM_PrefilterKernel_Scalar(benchmark::State& state) {
  PrefilterFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    simd::SquaredDistBatchScalar(f.center.data(), f.centers.data(), f.n,
                                 f.dim, f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.n));
}
BENCHMARK(BM_PrefilterKernel_Scalar)->Arg(256)->Arg(1024);

void BM_PrefilterKernel_Simd(benchmark::State& state) {
  PrefilterFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    simd::SquaredDistBatch(f.center.data(), f.centers.data(), f.n, f.dim,
                           f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.n));
  state.counters["simd_level"] =
      static_cast<double>(static_cast<int>(simd::ActiveLevel()));
}
BENCHMARK(BM_PrefilterKernel_Simd)->Arg(256)->Arg(1024);

void BM_FullSearch(benchmark::State& state) {
  const Fixture fixture(static_cast<size_t>(state.range(0)));
  const SimilaritySearch engine(&fixture.database);
  const double epsilon = 0.15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Search(fixture.query.View(), epsilon));
  }
}
BENCHMARK(BM_FullSearch)->Arg(100)->Arg(400);

// Full search with per-phase timings (from SearchStats) surfaced as
// counters, so BENCH_kernels.json records where the time goes.
void BM_FullSearchPhases(benchmark::State& state) {
  const Fixture fixture(200);
  const SimilaritySearch engine(&fixture.database);
  const double epsilon = 0.15;
  uint64_t partition_ns = 0, first_ns = 0, second_ns = 0, nodes = 0;
  uint64_t iterations = 0;
  for (auto _ : state) {
    const SearchResult result = engine.Search(fixture.query.View(), epsilon);
    benchmark::DoNotOptimize(result.matches.size());
    partition_ns += result.stats.partition_ns;
    first_ns += result.stats.first_pruning_ns;
    second_ns += result.stats.second_pruning_ns;
    nodes += result.stats.node_accesses;
    ++iterations;
  }
  const double n = static_cast<double>(iterations ? iterations : 1);
  state.counters["partition_ns"] = static_cast<double>(partition_ns) / n;
  state.counters["first_pruning_ns"] = static_cast<double>(first_ns) / n;
  state.counters["second_pruning_ns"] = static_cast<double>(second_ns) / n;
  state.counters["node_accesses"] = static_cast<double>(nodes) / n;
}
BENCHMARK(BM_FullSearchPhases);

void BM_Phase2Only(benchmark::State& state) {
  const Fixture fixture(400);
  const SimilaritySearch engine(&fixture.database);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.SearchCandidates(fixture.query.View(), 0.15));
  }
}
BENCHMARK(BM_Phase2Only);

}  // namespace
