// Microbenchmarks of the storage substrate: page file I/O, buffer pool
// fetches (hit vs miss), the paged R-tree against the in-memory tree, and
// paged sequence reads.

#include <cstdio>
#include <string>

#include <benchmark/benchmark.h>

#include "gen/fractal.h"
#include "index/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/paged_rtree.h"
#include "storage/sequence_store.h"
#include "util/random.h"

namespace {

using namespace mdseq;

std::string TempPath(const char* name) {
  return std::string("/tmp/mdseq_micro_") + name;
}

std::vector<IndexEntry> MakeEntries(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<IndexEntry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Point low{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    Point high = low;
    for (double& v : high) v += 0.03 * rng.Uniform();
    entries.push_back(IndexEntry{Mbr(low, high), i});
  }
  return entries;
}

void BM_PageFileWrite(benchmark::State& state) {
  const std::string path = TempPath("write.db");
  PageFile file;
  file.Create(path);
  Page page;
  std::fill(std::begin(page.data), std::end(page.data), uint8_t{42});
  const PageId id = file.Allocate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(file.Write(id, page));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
  file.Close();
  std::remove(path.c_str());
}
BENCHMARK(BM_PageFileWrite);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  const std::string path = TempPath("hit.db");
  PageFile file;
  file.Create(path);
  BufferPool pool(&file, 8);
  const PageId id = pool.Allocate().id();
  for (auto _ : state) {
    PageHandle handle = pool.Fetch(id);
    benchmark::DoNotOptimize(handle.page().data[0]);
  }
  file.Close();
  std::remove(path.c_str());
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_BufferPoolFetchMiss(benchmark::State& state) {
  const std::string path = TempPath("miss.db");
  PageFile file;
  file.Create(path);
  BufferPool pool(&file, 1);
  const PageId a = pool.Allocate().id();
  const PageId b = pool.Allocate().id();
  // Alternating fetches in a 1-frame pool miss every time.
  bool flip = false;
  for (auto _ : state) {
    PageHandle handle = pool.Fetch(flip ? a : b);
    flip = !flip;
    benchmark::DoNotOptimize(handle.page().data[0]);
  }
  file.Close();
  std::remove(path.c_str());
}
BENCHMARK(BM_BufferPoolFetchMiss);

void BM_PagedRTreeRangeSearch(benchmark::State& state) {
  const std::string path = TempPath("ptree.db");
  {
    PageFile file;
    file.Create(path);
    PagedRTree::Build(3, MakeEntries(20000, 1), &file);
  }
  PageFile file;
  file.Open(path);
  BufferPool pool(&file, static_cast<size_t>(state.range(0)));
  PagedRTree tree(3, &pool, file);
  Rng rng(2);
  std::vector<uint64_t> out;
  for (auto _ : state) {
    out.clear();
    const Mbr query = Mbr::FromPoint(
        Point{rng.Uniform(), rng.Uniform(), rng.Uniform()});
    tree.RangeSearch(query, 0.05, &out);
    benchmark::DoNotOptimize(out.size());
  }
  file.Close();
  std::remove(path.c_str());
}
BENCHMARK(BM_PagedRTreeRangeSearch)->Arg(4)->Arg(512);

void BM_InMemoryRTreeRangeSearch(benchmark::State& state) {
  RStarTree tree = RStarTree::BulkLoad(3, MakeEntries(20000, 1));
  Rng rng(2);
  std::vector<uint64_t> out;
  for (auto _ : state) {
    out.clear();
    const Mbr query = Mbr::FromPoint(
        Point{rng.Uniform(), rng.Uniform(), rng.Uniform()});
    tree.RangeSearch(query, 0.05, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_InMemoryRTreeRangeSearch);

void BM_SequenceStoreRead(benchmark::State& state) {
  const std::string path = TempPath("store.db");
  {
    Rng rng(3);
    std::vector<Sequence> corpus;
    for (int i = 0; i < 100; ++i) {
      corpus.push_back(GenerateFractalSequence(256, FractalOptions(),
                                               &rng));
    }
    PageFile file;
    file.Create(path);
    SequenceStore::Write(corpus, &file);
  }
  PageFile file;
  file.Open(path);
  BufferPool pool(&file, static_cast<size_t>(state.range(0)));
  SequenceStore store(&pool, file, 3);
  Rng rng(4);
  for (auto _ : state) {
    const size_t id = static_cast<size_t>(rng.UniformInt(0, 99));
    benchmark::DoNotOptimize(store.Read(id));
  }
  file.Close();
  std::remove(path.c_str());
}
BENCHMARK(BM_SequenceStoreRead)->Arg(4)->Arg(256);

}  // namespace
