#include "storage/disk_database.h"

#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/sequential_scan.h"
#include "gen/fractal.h"
#include "gen/query_workload.h"
#include "gen/video.h"
#include "util/random.h"

namespace mdseq {
namespace {

class DiskDatabaseTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  // Builds an in-memory database + corpus, saves it to disk.
  void BuildAndSave(size_t count, uint64_t seed, bool video = false) {
    Rng rng(seed);
    memory_ = std::make_unique<SequenceDatabase>(3);
    for (size_t i = 0; i < count; ++i) {
      const size_t length = static_cast<size_t>(rng.UniformInt(56, 300));
      corpus_.push_back(
          video ? GenerateVideoSequence(length, VideoOptions(), &rng)
                : GenerateFractalSequence(length, FractalOptions(), &rng));
      memory_->Add(corpus_.back());
    }
    ASSERT_TRUE(DiskDatabase::Save(*memory_, path_));
  }

  std::string path_ = testing::TempDir() + "/disk_database_test.db";
  std::vector<Sequence> corpus_;
  std::unique_ptr<SequenceDatabase> memory_;
};

TEST_F(DiskDatabaseTest, OpensWithCorrectCatalog) {
  BuildAndSave(25, 1);
  DiskDatabase disk(path_, /*pool_pages=*/64);
  ASSERT_TRUE(disk.valid());
  EXPECT_EQ(disk.dim(), 3u);
  EXPECT_EQ(disk.num_sequences(), 25u);
}

TEST_F(DiskDatabaseTest, ReadSequenceRoundTrips) {
  BuildAndSave(10, 2);
  DiskDatabase disk(path_, 64);
  ASSERT_TRUE(disk.valid());
  for (size_t id = 0; id < corpus_.size(); ++id) {
    const auto loaded = disk.ReadSequence(id);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->data(), corpus_[id].data());
  }
}

TEST_F(DiskDatabaseTest, SearchMatchesInMemoryEngineExactly) {
  BuildAndSave(40, 3);
  DiskDatabase disk(path_, 128);
  ASSERT_TRUE(disk.valid());
  SimilaritySearch memory_engine(memory_.get());

  Rng rng(30);
  QueryWorkloadOptions query_options;
  query_options.noise = 0.03;
  for (int trial = 0; trial < 5; ++trial) {
    const Sequence query = DrawQuery(corpus_, query_options, &rng);
    for (double epsilon : {0.05, 0.2}) {
      const SearchResult mem = memory_engine.Search(query.View(), epsilon);
      const SearchResult dsk = disk.Search(query.View(), epsilon);
      EXPECT_EQ(dsk.candidates, mem.candidates);
      ASSERT_EQ(dsk.matches.size(), mem.matches.size());
      for (size_t i = 0; i < mem.matches.size(); ++i) {
        EXPECT_EQ(dsk.matches[i].sequence_id, mem.matches[i].sequence_id);
        EXPECT_DOUBLE_EQ(dsk.matches[i].min_dnorm,
                         mem.matches[i].min_dnorm);
        EXPECT_EQ(dsk.matches[i].solution_interval,
                  mem.matches[i].solution_interval);
      }
    }
  }
}

TEST_F(DiskDatabaseTest, SearchVerifiedMatchesScanGroundTruth) {
  BuildAndSave(30, 4, /*video=*/true);
  DiskDatabase disk(path_, 128);
  ASSERT_TRUE(disk.valid());
  SequentialScan scan(memory_.get());

  Rng rng(31);
  QueryWorkloadOptions query_options;
  query_options.noise = 0.02;
  const Sequence query = DrawQuery(corpus_, query_options, &rng);
  const double epsilon = 0.1;
  const SearchResult verified = disk.SearchVerified(query.View(), epsilon);
  const std::vector<ScanMatch> truth = scan.Search(query.View(), epsilon);
  ASSERT_EQ(verified.matches.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(verified.matches[i].sequence_id, truth[i].sequence_id);
    EXPECT_DOUBLE_EQ(verified.matches[i].exact_distance, truth[i].distance);
    EXPECT_EQ(verified.matches[i].solution_interval,
              truth[i].solution_interval);
  }
}

TEST_F(DiskDatabaseTest, QueriesCostPageMisses) {
  BuildAndSave(40, 5);
  DiskDatabase disk(path_, 16);  // small pool: re-reads miss
  ASSERT_TRUE(disk.valid());
  Rng rng(32);
  const Sequence query = DrawQuery(corpus_, QueryWorkloadOptions(), &rng);
  disk.mutable_pool()->ResetStats();
  const SearchResult result = disk.SearchVerified(query.View(), 0.15);
  EXPECT_GT(disk.pool().misses(), 0u);
  EXPECT_GT(result.stats.node_accesses, 0u);
}

TEST_F(DiskDatabaseTest, OpeningGarbageFileIsInvalid) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage", f);
    std::fclose(f);
  }
  DiskDatabase disk(path_, 8);
  EXPECT_FALSE(disk.valid());
}

// The sequence-store directory is untrusted input: an entry with the wrong
// dim, a length whose byte size overflows, or a record outside the data
// region must make the database invalid at open, not abort or allocate
// `dim * length` doubles at the first read. The file is patched in place:
// data page 1 (file offset 2 * kPageSize) is the store's meta page.
TEST_F(DiskDatabaseTest, CorruptStoreDirectoryOpensInvalid) {
  BuildAndSave(6, 7);
  const auto read_at = [&](uint64_t offset, void* bytes, size_t count) {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fread(bytes, 1, count, f), count);
    std::fclose(f);
  };
  const auto write_at = [&](uint64_t offset, const void* bytes,
                            size_t count) {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes, 1, count, f), count);
    std::fclose(f);
  };
  // Store meta page: u64 count | u32 data_first | u32 data_pages |
  // u32 dir_first | u32 dir_pages. Directory entry: u64 offset, dim, length.
  uint32_t meta[6];
  read_at(2 * kPageSize, meta, sizeof(meta));
  const uint64_t data_bytes = uint64_t{meta[3]} * kPageSize;
  const uint64_t directory = (uint64_t{meta[4]} + 1) * kPageSize;
  std::vector<uint8_t> original(6 * 3 * sizeof(uint64_t));
  read_at(directory, original.data(), original.size());
  {
    DiskDatabase intact(path_, 64);
    ASSERT_TRUE(intact.valid());
  }

  struct Corruption {
    const char* what;
    size_t entry;
    size_t field;  // 0 offset, 1 dim, 2 length
    uint64_t value;
  };
  const Corruption corruptions[] = {
      {"dim 4 in a 3-d database", 2, 1, 4},
      {"dim 0", 0, 1, 0},
      {"length*dim*8 overflows", 3, 2, uint64_t{1} << 62},
      {"length past the data region", 1, 2, uint64_t{1} << 28},
      {"offset past the data region", 5, 0, data_bytes + 8},
      {"record ends past the data region", 5, 0, data_bytes - 8},
      {"offset + bytes wraps", 4, 0, ~uint64_t{0} - 16},
  };
  for (const Corruption& c : corruptions) {
    write_at(directory, original.data(), original.size());
    write_at(directory + (c.entry * 3 + c.field) * sizeof(uint64_t),
             &c.value, sizeof(c.value));
    DiskDatabase disk(path_, 64);
    EXPECT_FALSE(disk.valid()) << c.what;
  }
  // Flipping every bit of each entry's high byte: huge offsets, dims and
  // lengths.
  for (size_t byte = 7; byte < original.size(); byte += 8) {
    write_at(directory, original.data(), original.size());
    const uint8_t flipped = static_cast<uint8_t>(original[byte] ^ 0xff);
    write_at(directory + byte, &flipped, 1);
    DiskDatabase disk(path_, 64);
    EXPECT_FALSE(disk.valid()) << "byte " << byte;
  }
}

TEST_F(DiskDatabaseTest, CompositeOptionAppliesOnDiskToo) {
  BuildAndSave(40, 6);
  SearchOptions composite;
  composite.composite_bound = true;
  DiskDatabase strict(path_, 128, composite);
  DiskDatabase loose(path_, 128);
  ASSERT_TRUE(strict.valid() && loose.valid());
  Rng rng(33);
  const Sequence query = DrawQuery(corpus_, QueryWorkloadOptions(), &rng);
  const SearchResult a = strict.Search(query.View(), 0.3);
  const SearchResult b = loose.Search(query.View(), 0.3);
  EXPECT_LE(a.matches.size(), b.matches.size());
}

}  // namespace
}  // namespace mdseq
