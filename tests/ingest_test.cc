// Live ingestion subsystem: differential proofs that online partitioning,
// snapshot search, and checkpointing agree exactly with the offline
// (`PartitionSequence` / `DiskDatabase::Save`) pipeline on the same data,
// plus the engine-level ingest admission path.

#include "ingest/live_database.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/sequential_scan.h"
#include "core/partitioning.h"
#include "engine/introspection.h"
#include "engine/query_engine.h"
#include "gen/fractal.h"
#include "storage/disk_database.h"
#include "util/random.h"

namespace mdseq {
namespace {

void ExpectPartitionsEqual(const Partition& got, const Partition& want,
                           const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].begin, want[i].begin) << context << " piece " << i;
    EXPECT_EQ(got[i].end, want[i].end) << context << " piece " << i;
    EXPECT_EQ(got[i].mbr.low(), want[i].mbr.low())
        << context << " piece " << i;
    EXPECT_EQ(got[i].mbr.high(), want[i].mbr.high())
        << context << " piece " << i;
  }
}

void ExpectResultsEqual(const SearchResult& live, const SearchResult& disk,
                        const std::string& context) {
  EXPECT_EQ(live.candidates, disk.candidates) << context;
  ASSERT_EQ(live.matches.size(), disk.matches.size()) << context;
  for (size_t i = 0; i < live.matches.size(); ++i) {
    EXPECT_EQ(live.matches[i].sequence_id, disk.matches[i].sequence_id)
        << context << " match " << i;
    EXPECT_DOUBLE_EQ(live.matches[i].min_dnorm, disk.matches[i].min_dnorm)
        << context << " match " << i;
    EXPECT_DOUBLE_EQ(live.matches[i].exact_distance,
                     disk.matches[i].exact_distance)
        << context << " match " << i;
    ASSERT_EQ(live.matches[i].solution_interval.size(),
              disk.matches[i].solution_interval.size())
        << context << " match " << i;
    for (size_t k = 0; k < live.matches[i].solution_interval.size(); ++k) {
      EXPECT_EQ(live.matches[i].solution_interval[k].begin,
                disk.matches[i].solution_interval[k].begin)
          << context << " match " << i << " interval " << k;
      EXPECT_EQ(live.matches[i].solution_interval[k].end,
                disk.matches[i].solution_interval[k].end)
          << context << " match " << i << " interval " << k;
    }
  }
}

class LiveDatabaseTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p :
         {live_, live_ + ".wal", live_ + ".wal.new", disk_}) {
      std::remove(p.c_str());
    }
  }

  std::vector<Sequence> MakeCorpus(size_t count, uint64_t seed,
                                   size_t min_len = 30,
                                   size_t max_len = 120) {
    Rng rng(seed);
    std::vector<Sequence> corpus;
    for (size_t i = 0; i < count; ++i) {
      corpus.push_back(GenerateFractalSequence(
          static_cast<size_t>(
              rng.UniformInt(static_cast<int64_t>(min_len),
                             static_cast<int64_t>(max_len))),
          FractalOptions(), &rng));
    }
    return corpus;
  }

  // Appends `seq` to `db` under `id` in random chunks; optionally seals.
  void AppendChunked(LiveDatabase* db, uint64_t id, const Sequence& seq,
                     Rng* rng, bool seal) {
    size_t offset = 0;
    while (offset < seq.size()) {
      const size_t chunk = std::min<size_t>(
          static_cast<size_t>(rng->UniformInt(1, 20)), seq.size() - offset);
      ASSERT_TRUE(db->AppendPoints(id, seq.View().Slice(offset,
                                                        offset + chunk)));
      offset += chunk;
    }
    if (seal) {
      ASSERT_TRUE(db->SealSequence(id));
    }
  }

  std::string live_ = testing::TempDir() + "/ingest_test_live.db";
  std::string disk_ = testing::TempDir() + "/ingest_test_disk.db";
};

TEST_F(LiveDatabaseTest, CreatesAndReopensEmpty) {
  ASSERT_TRUE(LiveDatabase::Create(live_, 3));
  LiveDatabase db(live_);
  ASSERT_TRUE(db.valid());
  EXPECT_EQ(db.dim(), 3u);
  EXPECT_EQ(db.num_sequences(), 0u);
  const SearchResult r = db.Search(MakeCorpus(1, 5)[0].View(), 1.0);
  EXPECT_TRUE(r.candidates.empty());
  EXPECT_TRUE(r.matches.empty());
}

// The tentpole differential: any interleaving of AppendPoints across
// concurrently open sequences, with commits sprinkled anywhere, yields
// partitions byte-identical to the offline PARTITIONING_SEQUENCE run on
// each final sequence. Sealed prefixes are never re-partitioned, so this
// holds mid-stream too: the committed view of an open sequence equals the
// offline partition of exactly the committed prefix.
TEST_F(LiveDatabaseTest, OnlinePartitionsMatchOfflineForAnyInterleaving) {
  Rng rng(1234);
  const std::vector<Sequence> corpus = MakeCorpus(6, 17);
  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  LiveDatabase db(live_);
  ASSERT_TRUE(db.valid());

  // Open all sequences at once and feed them in random round-robin order.
  std::vector<uint64_t> ids;
  std::vector<size_t> sent(corpus.size(), 0);
  for (size_t i = 0; i < corpus.size(); ++i) ids.push_back(db.BeginSequence());
  size_t open = corpus.size();
  while (open > 0) {
    const size_t s = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corpus.size() - 1)));
    if (sent[s] >= corpus[s].size()) continue;
    const size_t chunk = std::min<size_t>(
        static_cast<size_t>(rng.UniformInt(1, 15)),
        corpus[s].size() - sent[s]);
    ASSERT_TRUE(db.AppendPoints(
        ids[s], corpus[s].View().Slice(sent[s], sent[s] + chunk)));
    sent[s] += chunk;
    if (sent[s] == corpus[s].size()) {
      ASSERT_TRUE(db.SealSequence(ids[s]));
      --open;
    }
    if (rng.Uniform() < 0.25) {
      ASSERT_TRUE(db.Commit());
      // Mid-stream check on a random committed prefix.
      const size_t probe = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(corpus.size() - 1)));
      if (sent[probe] > 0) {
        const auto partition = db.PartitionOf(ids[probe]);
        ASSERT_TRUE(partition.has_value());
        ExpectPartitionsEqual(
            *partition,
            PartitionSequence(corpus[probe].View().Prefix(sent[probe]),
                              PartitioningOptions()),
            "mid-stream seq " + std::to_string(probe));
      }
    }
  }
  ASSERT_TRUE(db.Commit());
  for (size_t s = 0; s < corpus.size(); ++s) {
    const auto partition = db.PartitionOf(ids[s]);
    ASSERT_TRUE(partition.has_value());
    ExpectPartitionsEqual(
        *partition,
        PartitionSequence(corpus[s].View(), PartitioningOptions()),
        "final seq " + std::to_string(s));
  }
}

// Search over the live database — base segments, indexed pending pieces,
// AND unindexed partial tails — must agree exactly with a DiskDatabase
// freshly saved from the same corpus.
TEST_F(LiveDatabaseTest, SearchVerifiedMatchesFreshDiskDatabase) {
  Rng rng(555);
  const std::vector<Sequence> corpus = MakeCorpus(24, 31);
  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());
  for (size_t s = 0; s < corpus.size(); ++s) {
    const uint64_t id = live.BeginSequence();
    // Leave the last few sequences unsealed: their trailing partial piece
    // exercises the overlay (non-indexed) search path.
    AppendChunked(&live, id, corpus[s], &rng, /*seal=*/s < 20);
    if (s % 5 == 4) {
      ASSERT_TRUE(live.Commit());
    }
    if (s == 11) {
      ASSERT_TRUE(live.Checkpoint());
    }
  }
  ASSERT_TRUE(live.Commit());

  SequenceDatabase memory(corpus[0].dim());
  for (const Sequence& s : corpus) memory.Add(s);
  ASSERT_TRUE(DiskDatabase::Save(memory, disk_));
  DiskDatabase disk(disk_, /*pool_pages=*/128);
  ASSERT_TRUE(disk.valid());

  for (int q = 0; q < 12; ++q) {
    const Sequence probe = GenerateFractalSequence(
        static_cast<size_t>(rng.UniformInt(20, 60)), FractalOptions(), &rng);
    for (double epsilon : {0.4, 1.0, 2.5}) {
      ExpectResultsEqual(live.Search(probe.View(), epsilon),
                         disk.Search(probe.View(), epsilon),
                         "search q" + std::to_string(q));
      ExpectResultsEqual(live.SearchVerified(probe.View(), epsilon),
                         disk.SearchVerified(probe.View(), epsilon),
                         "verified q" + std::to_string(q));
    }
  }
}

// The one verify stage behind every backend: memory, disk and live
// SearchVerified agree bit for bit on exact distances and intervals, and
// their ids and distances are SequentialScan's (the unbounded oracle).
TEST_F(LiveDatabaseTest, VerifiedAgreesAcrossBackendsAndScan) {
  Rng rng(557);
  const std::vector<Sequence> corpus = MakeCorpus(40, 33, 20, 160);
  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());
  for (size_t s = 0; s < corpus.size(); ++s) {
    const uint64_t id = live.BeginSequence();
    AppendChunked(&live, id, corpus[s], &rng, /*seal=*/s < 34);
    if (s == 19) {
      ASSERT_TRUE(live.Checkpoint());
    }
  }
  ASSERT_TRUE(live.Commit());

  SequenceDatabase memory(corpus[0].dim());
  for (const Sequence& s : corpus) memory.Add(s);
  ASSERT_TRUE(DiskDatabase::Save(memory, disk_));
  DiskDatabase disk(disk_, /*pool_pages=*/64);
  ASSERT_TRUE(disk.valid());
  const SimilaritySearch search(&memory);
  const SequentialScan scan(&memory);

  size_t compared = 0;
  for (int q = 0; q < 16; ++q) {
    // Cuts of stored sequences (so some verify) and long queries (longer
    // than most stored sequences, so Definition 3 slides the data side).
    const Sequence& source = corpus[static_cast<size_t>(q) % corpus.size()];
    const bool long_query = q % 4 == 3;
    Sequence query = long_query
                         ? GenerateFractalSequence(200, FractalOptions(), &rng)
                         : Sequence(source.dim());
    if (!long_query) {
      const size_t length = std::min<size_t>(source.size(), 12 + q);
      query.Extend(source.View().Slice(0, length));
    }
    for (double epsilon : {0.05, 0.2, 0.6}) {
      const std::string context =
          "q" + std::to_string(q) + " eps=" + std::to_string(epsilon);
      const SearchResult mem = search.SearchVerified(query.View(), epsilon);
      for (const auto& [name, other] :
           {std::pair{"disk ", disk.SearchVerified(query.View(), epsilon)},
            std::pair{"live ", live.SearchVerified(query.View(), epsilon)}}) {
        ExpectResultsEqual(other, mem, name + context);
        for (size_t i = 0;
             i < std::min(other.matches.size(), mem.matches.size()); ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(other.matches[i].exact_distance),
                    std::bit_cast<uint64_t>(mem.matches[i].exact_distance))
              << name << context;
        }
      }
      const std::vector<ScanMatch> truth = scan.Search(query.View(), epsilon);
      ASSERT_EQ(mem.matches.size(), truth.size()) << context;
      for (size_t i = 0; i < truth.size(); ++i) {
        EXPECT_EQ(mem.matches[i].sequence_id, truth[i].sequence_id)
            << context;
        EXPECT_EQ(std::bit_cast<uint64_t>(mem.matches[i].exact_distance),
                  std::bit_cast<uint64_t>(truth[i].distance))
            << context;
        EXPECT_EQ(mem.matches[i].solution_interval,
                  truth[i].solution_interval)
            << context;
      }
      compared += truth.size();
    }
  }
  EXPECT_GT(compared, 0u);
}

// After Checkpoint folds everything, the file IS a DiskDatabase.
TEST_F(LiveDatabaseTest, CheckpointedFileOpensAsDiskDatabase) {
  Rng rng(808);
  const std::vector<Sequence> corpus = MakeCorpus(10, 47);
  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  {
    LiveDatabase live(live_);
    ASSERT_TRUE(live.valid());
    for (const Sequence& s : corpus) {
      const uint64_t id = live.BeginSequence();
      AppendChunked(&live, id, s, &rng, /*seal=*/true);
    }
    ASSERT_TRUE(live.Checkpoint());
    const IngestStatus status = live.Status();
    EXPECT_EQ(status.base_sequences, corpus.size());
    EXPECT_EQ(status.pending_sequences, 0u);
  }
  DiskDatabase disk(live_, 128);
  ASSERT_TRUE(disk.valid());
  ASSERT_EQ(disk.num_sequences(), corpus.size());
  for (size_t id = 0; id < corpus.size(); ++id) {
    const auto loaded = disk.ReadSequence(id);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->data(), corpus[id].data());
  }
  const Sequence probe = GenerateFractalSequence(40, FractalOptions(), &rng);
  SequenceDatabase memory(corpus[0].dim());
  for (const Sequence& s : corpus) memory.Add(s);
  ASSERT_TRUE(DiskDatabase::Save(memory, disk_));
  DiskDatabase reference(disk_, 128);
  ASSERT_TRUE(reference.valid());
  ExpectResultsEqual(disk.SearchVerified(probe.View(), 1.5),
                     reference.SearchVerified(probe.View(), 1.5),
                     "checkpointed file");
}

// A checkpoint must fold only the maximal *sealed prefix* — a still-open
// sequence with a lower id pins later sealed ones in the pending tail so
// ids stay dense and stable.
TEST_F(LiveDatabaseTest, CheckpointFoldsOnlySealedPrefix) {
  Rng rng(272);
  const std::vector<Sequence> corpus = MakeCorpus(4, 53);
  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());
  const uint64_t a = live.BeginSequence();  // sealed
  const uint64_t b = live.BeginSequence();  // stays open
  const uint64_t c = live.BeginSequence();  // sealed, behind b
  AppendChunked(&live, a, corpus[0], &rng, /*seal=*/true);
  AppendChunked(&live, b, corpus[1], &rng, /*seal=*/false);
  AppendChunked(&live, c, corpus[2], &rng, /*seal=*/true);
  ASSERT_TRUE(live.Checkpoint());
  IngestStatus status = live.Status();
  EXPECT_EQ(status.base_sequences, 1u);  // only `a` precedes the open seq
  EXPECT_EQ(status.pending_sequences, 2u);
  EXPECT_EQ(status.total_sequences, 3u);
  // Sealing b unblocks the rest on the next checkpoint.
  ASSERT_TRUE(live.SealSequence(b));
  ASSERT_TRUE(live.Checkpoint());
  status = live.Status();
  EXPECT_EQ(status.base_sequences, 3u);
  EXPECT_EQ(status.pending_sequences, 0u);
  for (uint64_t id : {a, b, c}) {
    const auto loaded = live.ReadSequence(id);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->data(), corpus[id].data());
  }
}

// Clean close with a committed pending tail, then reopen: the WAL replay
// must reconstruct the pending state exactly (data, partitions, and the
// already-indexed piece count — no duplicate index inserts).
TEST_F(LiveDatabaseTest, ReopenReplaysCommittedPendingTail) {
  Rng rng(31337);
  const std::vector<Sequence> corpus = MakeCorpus(5, 61);
  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  {
    LiveDatabase live(live_);
    ASSERT_TRUE(live.valid());
    for (size_t s = 0; s < corpus.size(); ++s) {
      const uint64_t id = live.BeginSequence();
      AppendChunked(&live, id, corpus[s], &rng, /*seal=*/s < 3);
    }
    ASSERT_TRUE(live.Commit());
  }
  LiveDatabase reopened(live_);
  ASSERT_TRUE(reopened.valid());
  EXPECT_GT(reopened.Status().recovered_records, 0u);
  ASSERT_EQ(reopened.num_sequences(), corpus.size());
  for (size_t s = 0; s < corpus.size(); ++s) {
    const auto loaded = reopened.ReadSequence(s);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->data(), corpus[s].data());
    const auto partition = reopened.PartitionOf(s);
    ASSERT_TRUE(partition.has_value());
    ExpectPartitionsEqual(
        *partition, PartitionSequence(corpus[s].View(), PartitioningOptions()),
        "reopened seq " + std::to_string(s));
  }
  // And the index still agrees with a fresh offline build.
  SequenceDatabase memory(corpus[0].dim());
  for (const Sequence& s : corpus) memory.Add(s);
  ASSERT_TRUE(DiskDatabase::Save(memory, disk_));
  DiskDatabase reference(disk_, 128);
  ASSERT_TRUE(reference.valid());
  const Sequence probe = GenerateFractalSequence(35, FractalOptions(), &rng);
  ExpectResultsEqual(reopened.SearchVerified(probe.View(), 1.2),
                     reference.SearchVerified(probe.View(), 1.2), "reopened");
}

// Snapshot isolation: a snapshot taken before an ingest burst must not see
// it, even while later commits and checkpoints land.
TEST_F(LiveDatabaseTest, SnapshotsAreIsolatedFromLaterCommits) {
  Rng rng(404);
  const std::vector<Sequence> corpus = MakeCorpus(8, 71);
  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());
  for (size_t s = 0; s < 4; ++s) {
    const uint64_t id = live.BeginSequence();
    AppendChunked(&live, id, corpus[s], &rng, /*seal=*/true);
  }
  ASSERT_TRUE(live.Commit());
  const size_t before = live.num_sequences();
  EXPECT_EQ(before, 4u);
  // Readers observing sequence counts across a commit see either the old
  // or the new snapshot, never a partial one; after the commit, exactly 8.
  for (size_t s = 4; s < 8; ++s) {
    const uint64_t id = live.BeginSequence();
    AppendChunked(&live, id, corpus[s], &rng, /*seal=*/true);
    EXPECT_EQ(live.num_sequences(), 4u) << "uncommitted ingest visible";
  }
  ASSERT_TRUE(live.Commit());
  EXPECT_EQ(live.num_sequences(), 8u);
  ASSERT_TRUE(live.Checkpoint());
  EXPECT_EQ(live.num_sequences(), 8u);
}

TEST_F(LiveDatabaseTest, IngestSessionCommitsOnDestruction) {
  Rng rng(606);
  const Sequence seq = MakeCorpus(1, 81)[0];
  ASSERT_TRUE(LiveDatabase::Create(live_, seq.dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());
  {
    IngestSession session(&live);
    const uint64_t id = session.BeginSequence();
    ASSERT_TRUE(session.AppendPoints(id, seq.View()));
    ASSERT_TRUE(session.SealSequence(id));
    EXPECT_EQ(live.num_sequences(), 0u);  // nothing published yet
  }
  EXPECT_EQ(live.num_sequences(), 1u);  // destructor group-committed
  EXPECT_EQ(live.Status().wal_commits, 1u);
}

TEST_F(LiveDatabaseTest, RejectsMismatchedDimensionAndUnknownIds) {
  ASSERT_TRUE(LiveDatabase::Create(live_, 3));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());
  Sequence wrong(2);
  wrong.Append(Point{1.0, 2.0});
  const uint64_t id = live.BeginSequence();
  EXPECT_FALSE(live.AppendPoints(id, wrong.View()));
  EXPECT_FALSE(live.AppendPoints(id + 7, wrong.View()));
  EXPECT_FALSE(live.SealSequence(id + 7));
  ASSERT_TRUE(live.SealSequence(id));
  EXPECT_FALSE(live.SealSequence(id));  // double seal
}

// --- Engine integration --------------------------------------------------

class EngineIngestTest : public LiveDatabaseTest {};

TEST_F(EngineIngestTest, SubmitIngestAppliesBatchAndServesQueries) {
  Rng rng(909);
  const std::vector<Sequence> corpus = MakeCorpus(6, 97);
  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());
  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(&live, options);

  IngestBatch batch;
  for (const Sequence& s : corpus) {
    IngestOp op;
    op.points = s;
    op.seal = true;
    batch.ops.push_back(std::move(op));
  }
  batch.checkpoint = true;
  const IngestOutcome outcome = engine.SubmitIngest(std::move(batch)).get();
  EXPECT_FALSE(outcome.rejected);
  EXPECT_TRUE(outcome.ok);
  ASSERT_EQ(outcome.sequence_ids.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(outcome.sequence_ids[i], i);
  }
  EXPECT_EQ(live.num_sequences(), corpus.size());
  EXPECT_EQ(live.Status().checkpoints, 1u);

  // Queries through the engine see the ingested data.
  QueryOptions qopts;
  qopts.epsilon = 2.0;
  qopts.verified = true;
  const QueryOutcome q =
      engine.Submit(corpus[0], qopts).get();
  EXPECT_EQ(q.status, QueryStatus::kOk);
  const SearchResult direct = live.SearchVerified(corpus[0].View(), 2.0);
  EXPECT_EQ(q.result.matches.size(), direct.matches.size());

  // Appending to an existing (open) id through the engine.
  IngestBatch more;
  IngestOp open_op;
  open_op.points = corpus[0];
  more.ops.push_back(std::move(open_op));
  const IngestOutcome out2 = engine.SubmitIngest(std::move(more)).get();
  EXPECT_TRUE(out2.ok);
  ASSERT_EQ(out2.sequence_ids.size(), 1u);
  IngestBatch append_tail;
  IngestOp tail;
  tail.sequence_id = out2.sequence_ids[0];
  tail.points = corpus[1];
  tail.seal = true;
  append_tail.ops.push_back(std::move(tail));
  EXPECT_TRUE(engine.SubmitIngest(std::move(append_tail)).get().ok);
  const auto grown = live.ReadSequence(out2.sequence_ids[0]);
  ASSERT_TRUE(grown.has_value());
  EXPECT_EQ(grown->size(), corpus[0].size() + corpus[1].size());
}

TEST_F(EngineIngestTest, AdmissionKnobRejectsWithoutApplying) {
  const std::vector<Sequence> corpus = MakeCorpus(1, 103);
  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());
  EngineOptions options;
  options.num_threads = 1;
  options.max_pending_ingest = 0;  // admit nothing
  QueryEngine engine(&live, options);
  IngestBatch batch;
  IngestOp op;
  op.points = corpus[0];
  op.seal = true;
  batch.ops.push_back(std::move(op));
  const IngestOutcome outcome = engine.SubmitIngest(std::move(batch)).get();
  EXPECT_TRUE(outcome.rejected);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(live.num_sequences(), 0u);
  EXPECT_EQ(live.Status().wal_records, 0u);
}

TEST_F(EngineIngestTest, NonLiveEngineRejectsIngest) {
  SequenceDatabase memory(2);
  QueryEngine engine(&memory, EngineOptions{});
  IngestBatch batch;
  const IngestOutcome outcome = engine.SubmitIngest(std::move(batch)).get();
  EXPECT_TRUE(outcome.rejected);
}

TEST_F(EngineIngestTest, IngestStatusJsonCarriesTheRunbookFields) {
  Rng rng(111);
  const Sequence seq = MakeCorpus(1, 113)[0];
  ASSERT_TRUE(LiveDatabase::Create(live_, seq.dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());
  const uint64_t id = live.BeginSequence();
  ASSERT_TRUE(live.AppendPoints(id, seq.View()));
  ASSERT_TRUE(live.SealSequence(id));
  ASSERT_TRUE(live.Commit());
  ASSERT_TRUE(live.Checkpoint());
  const std::string json = IngestStatusJson(live.Status());
  for (const char* key :
       {"\"dim\"", "\"base_sequences\"", "\"pending_sequences\"",
        "\"points_total\"", "\"wal\"", "\"fsyncs\"", "\"checkpoints\"",
        "\"epoch\"", "\"retired_pages\"", "\"free_pages\"",
        "\"recovered_records\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace mdseq
