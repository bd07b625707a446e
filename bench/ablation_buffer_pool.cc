// Ablation (substrate): disk-resident index pages through an LRU buffer
// pool. The paper's cost model counts disk accesses per MBR; this harness
// makes that cost concrete by storing the subsequence MBRs of a real
// workload in a paged, bulk-loaded R-tree and measuring actual page misses
// per Phase-2 query as the pool grows.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "core/partitioning.h"
#include "eval/experiment.h"
#include "eval/table.h"
#include "figure_common.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/disk_database.h"
#include "storage/paged_rtree.h"

int main(int argc, char** argv) {
  using namespace mdseq;
  const bench::Flags flags(argc, argv);
  bench::PrintPaperBanner(
      "Ablation: paged index + LRU buffer pool",
      "the disk-access cost the paper's MCOST estimates; misses shrink "
      "toward the tree height as the pool grows");

  WorkloadConfig config =
      bench::ConfigFromFlags(flags, DataKind::kVideo, 1408);
  config.num_queries = flags.GetSize("queries", 20);
  const Workload workload = BuildWorkload(config);
  const SequenceDatabase& db = *workload.database;

  // Collect every subsequence MBR the database indexed.
  std::vector<IndexEntry> entries;
  for (size_t id = 0; id < db.num_sequences(); ++id) {
    const Partition& partition = db.partition(id);
    for (size_t ordinal = 0; ordinal < partition.size(); ++ordinal) {
      entries.push_back(IndexEntry{partition[ordinal].mbr,
                                   SequenceDatabase::PackEntry(id, ordinal)});
    }
  }

  const std::string path = flags.GetString("file", "/tmp/mdseq_paged.db");
  {
    PageFile file;
    if (!file.Create(path) || !PagedRTree::Build(3, entries, &file)) {
      std::fprintf(stderr, "failed to build paged index at %s\n",
                   path.c_str());
      return 1;
    }
  }
  PageFile file;
  if (!file.Open(path)) {
    std::fprintf(stderr, "failed to reopen %s\n", path.c_str());
    return 1;
  }
  std::printf("paged index: %zu MBRs in %u pages of %zu bytes "
              "(fanout %zu)\n\n",
              entries.size(), file.page_count(), kPageSize,
              PagedRTree::PageCapacity(3));

  // Phase-2 style queries: every query MBR probes the index at eps.
  const double epsilon = flags.GetDouble("eps", 0.10);
  std::vector<Mbr> probes;
  for (const Sequence& query : workload.queries) {
    for (const SequenceMbr& piece :
         PartitionSequence(query.View(), db.options().partitioning)) {
      probes.push_back(piece.mbr);
    }
  }

  TextTable table({"pool pages", "pool KiB", "hit rate", "misses/query",
                   "file reads"});
  for (size_t pool_pages : {4u, 16u, 64u, 256u, 1024u, 4096u}) {
    const uint64_t reads_before = file.reads();
    BufferPool pool(&file, pool_pages);
    PagedRTree tree(3, &pool, file);
    pool.ResetStats();
    std::vector<uint64_t> out;
    for (const Mbr& probe : probes) {
      out.clear();
      tree.RangeSearch(probe, epsilon, &out);
    }
    const double total = static_cast<double>(pool.hits() + pool.misses());
    char pages[16], kib[16], rate[16], mpq[16], reads[24];
    std::snprintf(pages, sizeof(pages), "%zu", pool_pages);
    std::snprintf(kib, sizeof(kib), "%zu", pool_pages * kPageSize / 1024);
    std::snprintf(rate, sizeof(rate), "%.3f",
                  total > 0 ? pool.hits() / total : 0.0);
    std::snprintf(mpq, sizeof(mpq), "%.1f",
                  static_cast<double>(pool.misses()) / probes.size());
    std::snprintf(reads, sizeof(reads), "%llu",
                  static_cast<unsigned long long>(file.reads() -
                                                  reads_before));
    table.AddRow({pages, kib, rate, mpq, reads});
  }
  std::printf("at eps = %.2f, %zu probe MBRs from %zu queries:\n", epsilon,
              probes.size(), workload.queries.size());
  table.Print();
  std::remove(path.c_str());

  // Part 2: the fully disk-resident database (index + partitions +
  // sequences in one file), running complete verified queries. The
  // refinement step reads each matching sequence with one positioned read
  // off the pool, so its pages are counted apart from the index misses.
  const std::string db_path =
      flags.GetString("dbfile", "/tmp/mdseq_disk.db");
  if (!DiskDatabase::Save(db, db_path)) {
    std::fprintf(stderr, "failed to save disk database to %s\n",
                 db_path.c_str());
    return 1;
  }
  std::printf("\ndisk database: full verified queries (filter + refine):\n");
  TextTable full({"pool pages", "hit rate", "misses/query",
                  "seq pages/query", "matches/query"});
  for (size_t pool_pages : {16u, 64u, 256u, 1024u, 4096u}) {
    DiskDatabase disk(db_path, pool_pages);
    if (!disk.valid()) {
      std::fprintf(stderr, "failed to open %s\n", db_path.c_str());
      return 1;
    }
    disk.mutable_pool()->ResetStats();
    const uint64_t reads_before = disk.file().reads();
    size_t matches = 0;
    for (const Sequence& query : workload.queries) {
      matches += disk.SearchVerified(query.View(), epsilon).matches.size();
    }
    const BufferPool& pool = disk.pool();
    const double total = static_cast<double>(pool.hits() + pool.misses());
    const double queries = static_cast<double>(workload.queries.size());
    char pages[16], rate[16], mpq[16], spq[16], mq[16];
    std::snprintf(pages, sizeof(pages), "%zu", pool_pages);
    std::snprintf(rate, sizeof(rate), "%.3f",
                  total > 0 ? pool.hits() / total : 0.0);
    std::snprintf(mpq, sizeof(mpq), "%.1f",
                  static_cast<double>(pool.misses()) / queries);
    std::snprintf(spq, sizeof(spq), "%.1f",
                  static_cast<double>(disk.file().reads() - reads_before -
                                      pool.misses()) /
                      queries);
    std::snprintf(mq, sizeof(mq), "%.1f",
                  static_cast<double>(matches) / queries);
    full.AddRow({pages, rate, mpq, spq, mq});
  }
  full.Print();
  std::remove(db_path.c_str());
  return 0;
}
