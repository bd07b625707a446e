// Crash-recovery torture tests for the ingest WAL and the live database:
// the log is truncated at every byte offset (a simulated torn write) and
// the scan must recover exactly the fully committed prefix; the database
// copies taken mid-ingest must reopen with every acknowledged point — or
// refuse to open at all when the damage is in a header.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/fractal.h"
#include "ingest/live_database.h"
#include "ingest/wal.h"
#include "storage/disk_database.h"
#include "storage/page_file.h"
#include "util/random.h"

namespace mdseq {
namespace {

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

uint64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.is_open() ? static_cast<uint64_t>(in.tellg()) : 0;
}

class WalRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(wal_path_.c_str());
    std::remove(copy_path_.c_str());
  }

  std::string wal_path_ = testing::TempDir() + "/wal_recovery_test.wal";
  std::string copy_path_ = testing::TempDir() + "/wal_recovery_copy.wal";
};

TEST_F(WalRecoveryTest, Crc32KnownValue) {
  // The standard reflected CRC-32 check value.
  EXPECT_EQ(WalCrc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(WalCrc32("", 0), 0u);
}

TEST_F(WalRecoveryTest, RoundTripsRecordsAcrossCommits) {
  WalWriter writer;
  ASSERT_TRUE(writer.Create(wal_path_));
  std::vector<std::vector<uint8_t>> payloads;
  for (int commit = 0; commit < 4; ++commit) {
    for (int r = 0; r < 3; ++r) {
      std::vector<uint8_t> payload(
          static_cast<size_t>(commit * 13 + r * 5 + 1));
      for (size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<uint8_t>(commit * 31 + r * 7 + i);
      }
      ASSERT_TRUE(writer.Append(WalRecordType::kAppendPoints, payload.data(),
                                payload.size()));
      payloads.push_back(std::move(payload));
    }
    ASSERT_TRUE(writer.Commit());
  }
  EXPECT_EQ(writer.commits(), 4u);
  EXPECT_EQ(writer.records(), payloads.size());
  writer.Close();

  const WalScanResult scan = WalScan(wal_path_);
  ASSERT_TRUE(scan.ok);
  EXPECT_FALSE(scan.truncated_tail);
  ASSERT_EQ(scan.records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(scan.records[i].type, WalRecordType::kAppendPoints);
    EXPECT_EQ(scan.records[i].payload, payloads[i]);
  }
}

TEST_F(WalRecoveryTest, MissingFileIsAnEmptyLog) {
  const WalScanResult scan = WalScan(wal_path_);
  EXPECT_TRUE(scan.ok);
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_TRUE(scan.records.empty());
}

// The torture core: truncate the log at EVERY byte offset and check that
// the scan recovers exactly the records of commits that were fully on disk
// before the cut — never a record of the torn commit, never a lost record
// of an earlier one.
TEST_F(WalRecoveryTest, TruncationAtEveryByteRecoversCommittedPrefix) {
  WalWriter writer;
  ASSERT_TRUE(writer.Create(wal_path_));
  // Record counts and the file length after each commit. Payload sizes mix
  // sub-page and page-spanning records so frames straddle page boundaries.
  std::vector<uint64_t> commit_end;      // file length after commit i
  std::vector<size_t> records_after;     // total records after commit i
  size_t total_records = 0;
  const size_t payload_sizes[] = {9, 100, 5000, 1, 700};
  for (int commit = 0; commit < 3; ++commit) {
    for (int r = 0; r < 2; ++r) {
      const size_t size = payload_sizes[(commit * 2 + r) % 5];
      std::vector<uint8_t> payload(size);
      for (size_t i = 0; i < size; ++i) {
        payload[i] = static_cast<uint8_t>(i ^ (commit * 2 + r));
      }
      ASSERT_TRUE(writer.Append(WalRecordType::kAppendPoints, payload.data(),
                                payload.size()));
      ++total_records;
    }
    ASSERT_TRUE(writer.Commit());
    commit_end.push_back(FileSize(wal_path_));
    records_after.push_back(total_records);
  }
  writer.Close();

  const std::vector<uint8_t> full = ReadFileBytes(wal_path_);
  ASSERT_EQ(full.size(), commit_end.back());
  const WalScanResult reference = WalScan(wal_path_);
  ASSERT_TRUE(reference.ok);
  ASSERT_EQ(reference.records.size(), total_records);

  // Stride 1 near the start (header damage) would make this loop large;
  // the header is all-or-nothing anyway, so sample it and walk every byte
  // of the data region.
  for (uint64_t cut = 0; cut <= full.size();
       cut += (cut < kPageSize ? 512 : 1)) {
    std::vector<uint8_t> torn(full.begin(), full.begin() + cut);
    WriteFileBytes(copy_path_, torn);
    const WalScanResult scan = WalScan(copy_path_);
    if (cut < kPageSize) {
      // Not even a whole header: either rejected or (cut == 0) an empty
      // file, which is indistinguishable from a missing log.
      if (scan.ok) {
        EXPECT_TRUE(scan.records.empty()) << "cut=" << cut;
      }
      continue;
    }
    ASSERT_TRUE(scan.ok) << "cut=" << cut;
    // Durability floor: every record of a commit whose bytes lie entirely
    // before the cut was acknowledged and MUST be recovered. Complete
    // frames of the torn (unacknowledged) commit may also survive — that
    // is harmless, recovery is record-granular — but never a torn frame
    // and never out of order: whatever is recovered must be an exact
    // prefix of the full log.
    size_t floor = 0;
    for (size_t i = 0; i < commit_end.size(); ++i) {
      if (commit_end[i] <= cut) floor = records_after[i];
    }
    ASSERT_GE(scan.records.size(), floor) << "cut=" << cut;
    ASSERT_LE(scan.records.size(), total_records) << "cut=" << cut;
    for (size_t i = 0; i < scan.records.size(); ++i) {
      EXPECT_EQ(scan.records[i].payload, reference.records[i].payload)
          << "cut=" << cut << " record=" << i;
    }
  }
}

// A flipped byte inside a committed frame must stop the scan at that frame
// (CRC mismatch reported as a torn tail), still yielding the clean prefix.
TEST_F(WalRecoveryTest, CorruptedFrameStopsScanAtPriorRecords) {
  WalWriter writer;
  ASSERT_TRUE(writer.Create(wal_path_));
  std::vector<uint8_t> payload(300, 0xAB);
  for (int commit = 0; commit < 3; ++commit) {
    ASSERT_TRUE(writer.Append(WalRecordType::kAppendPoints, payload.data(),
                              payload.size()));
    ASSERT_TRUE(writer.Commit());
  }
  const uint64_t second_commit_page = kPageSize * 2;  // header + commit 0
  writer.Close();

  std::vector<uint8_t> bytes = ReadFileBytes(wal_path_);
  bytes[second_commit_page + 64] ^= 0xFF;  // inside commit 1's frame
  WriteFileBytes(copy_path_, bytes);

  const WalScanResult scan = WalScan(copy_path_);
  ASSERT_TRUE(scan.ok);
  EXPECT_TRUE(scan.truncated_tail);
  EXPECT_EQ(scan.records.size(), 1u);  // only commit 0 survives
}

// --- PageFile durability regression (satellite: Sync at checkpoints) ----

class PageFileSyncTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(copy_.c_str());
  }
  std::string path_ = testing::TempDir() + "/page_file_sync_test.db";
  std::string copy_ = testing::TempDir() + "/page_file_sync_copy.db";
};

TEST_F(PageFileSyncTest, SyncFlushesWithoutTouchingHeader) {
  PageFile file;
  ASSERT_TRUE(file.Create(path_));
  const uint64_t syncs_before = file.syncs();
  Page page{};
  page.data[0] = 42;
  const PageId id = file.Allocate();
  ASSERT_TRUE(file.Write(id, page));
  ASSERT_TRUE(file.Sync());
  EXPECT_EQ(file.syncs(), syncs_before + 1);
  // The data must be on disk now even though the header (and its page
  // count) has not been republished: a copy of the raw file carries it.
  std::vector<uint8_t> bytes = ReadFileBytes(path_);
  ASSERT_GE(bytes.size(), (id + 2) * kPageSize);
  EXPECT_EQ(bytes[(id + 1) * kPageSize], 42);
  // set_root_hint stays the single commit point for structural changes.
  ASSERT_TRUE(file.set_root_hint(id));
  file.Close();
  PageFile reopened;
  ASSERT_TRUE(reopened.Open(path_));
  EXPECT_EQ(reopened.root_hint(), id);
  Page back{};
  ASSERT_TRUE(reopened.Read(id, &back));
  EXPECT_EQ(back.data[0], 42);
}

// --- LiveDatabase crash recovery ----------------------------------------

class LiveCrashTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p :
         {live_, live_ + ".wal", live_ + ".wal.new", crash_,
          crash_ + ".wal", crash_ + ".wal.new"}) {
      std::remove(p.c_str());
    }
  }

  // Copies the database + WAL as they are on disk right now — exactly the
  // state a crash at this instant would leave behind.
  void SnapshotCrashCopy() {
    WriteFileBytes(crash_, ReadFileBytes(live_));
    if (FileSize(live_ + ".wal") > 0) {
      WriteFileBytes(crash_ + ".wal", ReadFileBytes(live_ + ".wal"));
    } else {
      std::remove((crash_ + ".wal").c_str());
    }
  }

  std::string live_ = testing::TempDir() + "/live_crash_test.db";
  std::string crash_ = testing::TempDir() + "/live_crash_copy.db";
};

// Every acknowledged (committed) point must survive a crash at any commit
// boundary; points appended but not yet committed must simply be absent —
// never corrupt the reopen.
TEST_F(LiveCrashTest, AcknowledgedPointsSurviveEveryCommitBoundary) {
  Rng rng(4242);
  std::vector<Sequence> corpus;
  for (int i = 0; i < 8; ++i) {
    corpus.push_back(GenerateFractalSequence(
        static_cast<size_t>(rng.UniformInt(30, 90)), FractalOptions(),
        &rng));
  }
  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());

  std::vector<std::vector<double>> acknowledged;  // flat points per id
  for (size_t s = 0; s < corpus.size(); ++s) {
    const uint64_t id = live.BeginSequence();
    ASSERT_EQ(id, s);
    acknowledged.emplace_back();
    const Sequence& seq = corpus[s];
    size_t offset = 0;
    while (offset < seq.size()) {
      const size_t chunk = std::min<size_t>(
          static_cast<size_t>(rng.UniformInt(1, 25)), seq.size() - offset);
      ASSERT_TRUE(live.AppendPoints(
          id, seq.View().Slice(offset, offset + chunk)));
      offset += chunk;
    }
    ASSERT_TRUE(live.SealSequence(id));
    ASSERT_TRUE(live.Commit());
    acknowledged.back().assign(seq.data().begin(), seq.data().end());
    if (s == 3) {
      ASSERT_TRUE(live.Checkpoint());  // mid-stream checkpoint
    }

    // Crash now: everything committed so far must reopen intact.
    SnapshotCrashCopy();
    LiveDatabase recovered(crash_);
    ASSERT_TRUE(recovered.valid()) << "after sequence " << s;
    ASSERT_EQ(recovered.num_sequences(), s + 1);
    for (size_t id2 = 0; id2 <= s; ++id2) {
      const auto loaded = recovered.ReadSequence(id2);
      ASSERT_TRUE(loaded.has_value()) << "seq " << id2;
      EXPECT_EQ(loaded->data(), acknowledged[id2]) << "seq " << id2;
    }
  }
}

// Points appended after the last commit are not acknowledged; a crash must
// lose exactly them and nothing else.
TEST_F(LiveCrashTest, UncommittedTailIsDroppedCleanly) {
  Rng rng(77);
  const Sequence seq =
      GenerateFractalSequence(80, FractalOptions(), &rng);
  ASSERT_TRUE(LiveDatabase::Create(live_, seq.dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());
  const uint64_t id = live.BeginSequence();
  ASSERT_TRUE(live.AppendPoints(id, seq.View().Slice(0, 50)));
  ASSERT_TRUE(live.Commit());
  // These 30 points are never committed — never acknowledged.
  ASSERT_TRUE(live.AppendPoints(id, seq.View().Slice(50, 80)));

  SnapshotCrashCopy();
  LiveDatabase recovered(crash_);
  ASSERT_TRUE(recovered.valid());
  ASSERT_EQ(recovered.num_sequences(), 1u);
  const auto loaded = recovered.ReadSequence(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 50u);
  // The recovered database keeps accepting appends on the open sequence.
  ASSERT_TRUE(recovered.AppendPoints(0, seq.View().Slice(50, 80)));
  ASSERT_TRUE(recovered.SealSequence(0));
  ASSERT_TRUE(recovered.Commit());
  const auto full = recovered.ReadSequence(0);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->data(), seq.data());
}

// Torn WAL tails at arbitrary byte offsets: recovery must never see a
// record of the in-flight commit, and the database must always reopen.
TEST_F(LiveCrashTest, TornWalTailRecoversAcknowledgedPrefix) {
  Rng rng(99);
  const Sequence seq =
      GenerateFractalSequence(120, FractalOptions(), &rng);
  ASSERT_TRUE(LiveDatabase::Create(live_, seq.dim()));
  {
    LiveDatabase live(live_);
    ASSERT_TRUE(live.valid());
    const uint64_t id = live.BeginSequence();
    ASSERT_TRUE(live.AppendPoints(id, seq.View().Slice(0, 60)));
    ASSERT_TRUE(live.Commit());
    ASSERT_TRUE(live.AppendPoints(id, seq.View().Slice(60, 120)));
    ASSERT_TRUE(live.SealSequence(id));
    ASSERT_TRUE(live.Commit());
  }
  const std::vector<uint8_t> wal = ReadFileBytes(live_ + ".wal");
  ASSERT_GT(wal.size(), kPageSize * 2);
  // Cut the WAL anywhere after the first commit's pages: the first 60
  // points were acknowledged before the cut region, so they must survive.
  for (uint64_t cut = kPageSize * 2; cut <= wal.size(); cut += 97) {
    WriteFileBytes(crash_, ReadFileBytes(live_));
    WriteFileBytes(crash_ + ".wal",
                   std::vector<uint8_t>(wal.begin(), wal.begin() + cut));
    LiveDatabase recovered(crash_);
    ASSERT_TRUE(recovered.valid()) << "cut=" << cut;
    const auto loaded = recovered.ReadSequence(0);
    ASSERT_TRUE(loaded.has_value()) << "cut=" << cut;
    ASSERT_GE(loaded->size(), 60u) << "cut=" << cut;
    EXPECT_TRUE(std::equal(loaded->data().begin(),
                           loaded->data().begin() + 60 * seq.dim(),
                           seq.data().begin()))
        << "cut=" << cut;
  }
}

// Damage to the WAL header is not a crash shape the commit protocol can
// produce — it means the file is foreign or the disk lied. Refuse to open.
TEST_F(LiveCrashTest, ForeignWalHeaderRejectsOpen) {
  ASSERT_TRUE(LiveDatabase::Create(live_, 2));
  {
    LiveDatabase live(live_);
    ASSERT_TRUE(live.valid());
    const uint64_t id = live.BeginSequence();
    Sequence s(2);
    s.Append(Point{1.0, 2.0});
    ASSERT_TRUE(live.AppendPoints(id, s.View()));
    ASSERT_TRUE(live.Commit());
  }
  std::vector<uint8_t> wal = ReadFileBytes(live_ + ".wal");
  ASSERT_GE(wal.size(), kPageSize);
  wal[3] ^= 0xFF;  // corrupt the magic
  SnapshotCrashCopy();
  WriteFileBytes(crash_ + ".wal", wal);
  LiveDatabase recovered(crash_);
  EXPECT_FALSE(recovered.valid());
}

TEST_F(LiveCrashTest, TornDatabaseHeaderRejectsOpen) {
  ASSERT_TRUE(LiveDatabase::Create(live_, 2));
  std::vector<uint8_t> bytes = ReadFileBytes(live_);
  ASSERT_GE(bytes.size(), kPageSize);
  bytes.resize(kPageSize / 2);  // torn mid-header
  WriteFileBytes(crash_, bytes);
  LiveDatabase recovered(crash_);
  EXPECT_FALSE(recovered.valid());
}

}  // namespace
}  // namespace mdseq
