// Microbenchmarks of the distance kernels (point distance, Dmean, window
// profiles, verification, full sequence distance). Supports `--json` (see
// json_main.h); the bounded/unbounded profile and verify pairs feed
// tools/run_benchmarks.sh.

#include <algorithm>
#include <limits>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/distance.h"
#include "core/search.h"
#include "gen/fractal.h"
#include "json_main.h"
#include "util/random.h"
#include "util/simd.h"

namespace {

using namespace mdseq;

Sequence MakeSequence(size_t length, uint64_t seed) {
  Rng rng(seed);
  return GenerateFractalSequence(length, FractalOptions(), &rng);
}

void BM_PointDistance(benchmark::State& state) {
  const Sequence s = MakeSequence(2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PointDistance(s[0], s[1]));
  }
}
BENCHMARK(BM_PointDistance);

void BM_MeanDistance(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Sequence a = MakeSequence(n, 2);
  const Sequence b = MakeSequence(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeanDistance(a.View(), b.View()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MeanDistance)->Arg(16)->Arg(64)->Arg(256);

void BM_WindowDistanceProfile(benchmark::State& state) {
  const size_t query_length = static_cast<size_t>(state.range(0));
  const Sequence query = MakeSequence(query_length, 4);
  const Sequence data = MakeSequence(512, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WindowDistanceProfile(query.View(),
                                                   data.View()));
  }
}
BENCHMARK(BM_WindowDistanceProfile)->Arg(16)->Arg(64)->Arg(256);

// The bounded profile against the unbounded one, on a query shifted far
// from the data so every alignment is abandoned after a handful of points
// (the verification common case: most candidates don't qualify).
Sequence MakeShiftedQuery(size_t length, uint64_t seed, double shift) {
  const Sequence raw = MakeSequence(length, seed);
  Sequence query(raw.dim());
  for (size_t i = 0; i < raw.size(); ++i) {
    Point p(raw.dim());
    for (size_t t = 0; t < raw.dim(); ++t) p[t] = raw[i][t] + shift;
    query.Append(p);
  }
  return query;
}

void BM_WindowProfile_Unbounded(benchmark::State& state) {
  const Sequence query =
      MakeShiftedQuery(static_cast<size_t>(state.range(0)), 4, 5.0);
  const Sequence data = MakeSequence(512, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WindowDistanceProfile(query.View(),
                                                   data.View()));
  }
}
BENCHMARK(BM_WindowProfile_Unbounded)->Arg(64)->Arg(256);

void BM_WindowProfile_Bounded(benchmark::State& state) {
  const Sequence query =
      MakeShiftedQuery(static_cast<size_t>(state.range(0)), 4, 5.0);
  const Sequence data = MakeSequence(512, 5);
  const double epsilon = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        WindowDistanceProfileBounded(query.View(), data.View(), epsilon));
  }
}
BENCHMARK(BM_WindowProfile_Bounded)->Arg(64)->Arg(256);

// Verification on a realistic population: queries cut from one synthetic
// sequence (lengths 24-64, as the figure harnesses draw them), each checked
// against every other sequence of a small Table-2-style corpus (56-512
// points) at eps 0.1, where most pairs fail as most filter matches do.
// `_Unbounded` derives distance and intervals from one unbounded
// `WindowDistanceProfile` (the sequential-scan oracle's cost); `_Fused` is
// `internal::VerifySequence`, the bounded single-pass verify behind every
// backend's SearchVerified. tools/run_benchmarks.sh reports the ratio as
// `verify_speedup`.
struct VerifyPopulation {
  std::vector<Sequence> corpus;
  std::vector<Sequence> queries;
  static constexpr double kEpsilon = 0.1;

  VerifyPopulation() {
    Rng rng(33);
    for (size_t i = 0; i < 32; ++i) {
      corpus.push_back(GenerateFractalSequence(
          static_cast<size_t>(rng.UniformInt(56, 512)), FractalOptions(),
          &rng));
    }
    const Sequence& source = corpus[0];
    for (size_t q = 0; q < 8; ++q) {
      const size_t length = 24 + (7 * q) % 41;
      const size_t begin = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(source.size() - length)));
      Sequence query(source.dim());
      query.Extend(source.View().Slice(begin, begin + length));
      queries.push_back(std::move(query));
    }
  }

  int64_t pairs() const {
    return static_cast<int64_t>(queries.size() * (corpus.size() - 1));
  }
};

void BM_VerifyPopulation_Unbounded(benchmark::State& state) {
  const VerifyPopulation population;
  const double epsilon = VerifyPopulation::kEpsilon;
  std::vector<Interval> intervals;
  for (auto _ : state) {
    for (const Sequence& query : population.queries) {
      for (size_t id = 1; id < population.corpus.size(); ++id) {
        const SequenceView data = population.corpus[id].View();
        const std::vector<double> profile =
            WindowDistanceProfile(query.View(), data);
        const double best = *std::min_element(profile.begin(), profile.end());
        intervals.clear();
        if (best <= epsilon) {
          for (size_t j = 0; j < profile.size(); ++j) {
            if (profile[j] <= epsilon) {
              intervals.push_back(Interval{j, j + query.size()});
            }
          }
          MergeIntervals(&intervals);
        }
        benchmark::DoNotOptimize(best);
        benchmark::DoNotOptimize(intervals.data());
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          population.pairs());
}
BENCHMARK(BM_VerifyPopulation_Unbounded);

void BM_VerifyPopulation_Fused(benchmark::State& state) {
  const VerifyPopulation population;
  std::vector<Interval> intervals;
  for (auto _ : state) {
    for (const Sequence& query : population.queries) {
      for (size_t id = 1; id < population.corpus.size(); ++id) {
        double exact = 0.0;
        benchmark::DoNotOptimize(internal::VerifySequence(
            query.View(), population.corpus[id].View(),
            VerifyPopulation::kEpsilon, &exact, &intervals));
        benchmark::DoNotOptimize(exact);
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          population.pairs());
}
BENCHMARK(BM_VerifyPopulation_Fused);

// Scalar vs dispatched point-sum kernel — the inner loop of every window
// profile / mean distance evaluation — on one window of state.range(0)
// 4-d points. The `simd_level` counter on the dispatched run records which
// implementation actually ran (0 scalar, 1 avx2, 2 neon), so the
// simd_speedup_* summary in BENCH_kernels.json can gate its acceptance bar
// on SIMD being available.
struct PointSumFixture {
  std::vector<double> a, b;

  PointSumFixture(size_t points, size_t dim) : a(points * dim), b(points * dim) {
    Rng rng(21);
    for (double& v : a) v = rng.Uniform();
    for (double& v : b) v = rng.Uniform();
  }
};

void BM_PointSumKernel_Scalar(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const PointSumFixture fixture(points, 4);
  const double inf = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::PointSumBoundedScalar(
        fixture.a.data(), fixture.b.data(), points, 4, inf, nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points));
}
BENCHMARK(BM_PointSumKernel_Scalar)->Arg(64)->Arg(256);

void BM_PointSumKernel_Simd(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const PointSumFixture fixture(points, 4);
  const double inf = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::PointSumBounded(
        fixture.a.data(), fixture.b.data(), points, 4, inf, nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points));
  state.counters["simd_level"] =
      static_cast<double>(static_cast<int>(simd::ActiveLevel()));
}
BENCHMARK(BM_PointSumKernel_Simd)->Arg(64)->Arg(256);

void BM_SequenceDistance(benchmark::State& state) {
  const Sequence query = MakeSequence(static_cast<size_t>(state.range(0)),
                                      6);
  const Sequence data = MakeSequence(512, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SequenceDistance(query.View(), data.View()));
  }
}
BENCHMARK(BM_SequenceDistance)->Arg(32)->Arg(128);

}  // namespace
