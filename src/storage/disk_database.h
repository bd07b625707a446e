#ifndef MDSEQ_STORAGE_DISK_DATABASE_H_
#define MDSEQ_STORAGE_DISK_DATABASE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/search.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/paged_rtree.h"
#include "storage/sequence_store.h"

namespace mdseq {

/// A disk-resident similarity-search database: one page file holding the
/// raw sequences (SequenceStore), the subsequence MBR index (PagedRTree),
/// the per-sequence partitions, and the partitioning options. Queries run
/// the same three-phase algorithm as `SimilaritySearch` but every index
/// node is fetched through an LRU buffer pool — so the filter's cost is
/// observable in page misses, the unit the paper's cost model (and its
/// 1999 hardware) was about. Verification reads each matching sequence
/// with one positioned read off the pool (`SequenceStore::Read`), counted
/// in the file's page reads and in `SearchStats::bytes_read`.
///
/// Partitions and their MBRs are small metadata (a few bytes per
/// subsequence) and are cached in memory at open, mirroring real systems
/// that keep catalogs resident while index pages are demand-paged.
class DiskDatabase {
 public:
  /// Serializes an in-memory database to `path`. Returns false on I/O
  /// failure.
  static bool Save(const SequenceDatabase& database, const std::string& path);

  /// Opens a saved database with a pool of `pool_pages` frames. Check
  /// `valid()` before use.
  DiskDatabase(const std::string& path, size_t pool_pages,
               const SearchOptions& options = SearchOptions());

  bool valid() const { return valid_; }
  size_t dim() const { return dim_; }
  size_t num_sequences() const { return partitions_.size(); }

  /// The paper's filter phases against the paged index (no sequence
  /// reads). Same semantics as `SimilaritySearch::Search`.
  /// `stats.node_accesses` counts the index pages this query visited
  /// (through the pool), so it is exact even with concurrent readers.
  ///
  /// The query path is const; any number of threads may search one open
  /// DiskDatabase concurrently (page fetches serialize on the pool latch).
  /// The `control` overloads poll for cancellation/deadline between
  /// phases; see `SearchControl`.
  SearchResult Search(SequenceView query, double epsilon) const;
  SearchResult Search(SequenceView query, double epsilon,
                      const SearchControl& control) const;

  /// Filter plus refinement: matches are verified against the stored
  /// sequences, one positioned read each. Same semantics as
  /// `SimilaritySearch::SearchVerified`.
  SearchResult SearchVerified(SequenceView query, double epsilon) const;
  SearchResult SearchVerified(SequenceView query, double epsilon,
                              const SearchControl& control) const;

  /// Reads one sequence from disk (one positioned read, off the pool).
  std::optional<Sequence> ReadSequence(size_t id) const;

  /// Buffer pool statistics (index, master and catalog pages).
  const BufferPool& pool() const { return *pool_; }
  BufferPool* mutable_pool() { return pool_.get(); }

  /// The underlying page file; its lifetime I/O counters feed the
  /// `mdseq_page_file_*` gauges.
  const PageFile& file() const { return file_; }

 private:
  bool valid_ = false;
  size_t dim_ = 0;
  PartitioningOptions partitioning_;
  SearchOptions options_;
  PageFile file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<SequenceStore> store_;
  std::unique_ptr<PagedRTree> tree_;
  std::vector<Partition> partitions_;
  std::vector<size_t> lengths_;
};

namespace internal {

/// Hits a paged backend holds outside its tree (the live overlay), appended
/// for the given query MBRs.
using ExtraHits = std::function<void(const std::vector<Mbr>& queries,
                                     std::vector<SpatialIndex::BatchHit>*)>;

/// Phase 2 of the paged backends (disk and live): one batched descent of
/// `tree` for all query MBRs, so each node page is fetched once per query
/// instead of once per query MBR, plus `extra` (optional) as one more hit
/// list. Node accesses and pool misses are counted per call (pages this
/// query visited / read), not as a pool counter delta, so the numbers are
/// deterministic and exact when other threads share the pool. Fills
/// `result->candidates` and the Phase-2 counters.
CandidateSet PagedFirstPruning(const PagedRTree& tree,
                               const Partition& query_partition,
                               double epsilon, const ExtraHits& extra,
                               const SearchControl& control,
                               SearchResult* result);

}  // namespace internal

}  // namespace mdseq

#endif  // MDSEQ_STORAGE_DISK_DATABASE_H_
