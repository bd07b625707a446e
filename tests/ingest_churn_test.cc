// Read-while-ingest churn: reader threads hammer Search/SearchVerified on
// a LiveDatabase while a writer ingests, commits, and checkpoints. Built
// with -DMDSEQ_SANITIZE=thread this is the TSan proof of the snapshot
// protocol; on any build it asserts snapshot *consistency* — a reader's
// match count for a fixed query is monotone non-decreasing (data only
// grows) and lands exactly on the offline result once the writer stops.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "gen/fractal.h"
#include "ingest/live_database.h"
#include "storage/disk_database.h"
#include "util/random.h"

namespace mdseq {
namespace {

class IngestChurnTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p :
         {live_, live_ + ".wal", live_ + ".wal.new", disk_}) {
      std::remove(p.c_str());
    }
  }
  std::string live_ = testing::TempDir() + "/ingest_churn_test.db";
  std::string disk_ = testing::TempDir() + "/ingest_churn_disk.db";
};

TEST_F(IngestChurnTest, ReadersSeeMonotoneConsistentSnapshots) {
  constexpr size_t kSequences = 30;
  constexpr size_t kReaders = 4;
  Rng rng(2024);
  std::vector<Sequence> corpus;
  for (size_t i = 0; i < kSequences; ++i) {
    corpus.push_back(GenerateFractalSequence(
        static_cast<size_t>(rng.UniformInt(30, 80)), FractalOptions(),
        &rng));
  }
  const Sequence probe =
      GenerateFractalSequence(30, FractalOptions(), &rng);
  const double epsilon = 2.0;

  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());

  std::atomic<bool> stop{false};
  std::atomic<bool> writer_failed{false};
  std::vector<std::thread> readers;
  std::vector<size_t> reader_queries(kReaders, 0);
  std::vector<bool> reader_monotone(kReaders, true);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t last_matches = 0;
      size_t last_sequences = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const SearchResult result =
            (r % 2 == 0) ? live.Search(probe.View(), epsilon)
                         : live.SearchVerified(probe.View(), epsilon);
        const size_t sequences = live.num_sequences();
        // Data only grows, so both gauges are monotone per reader; a
        // regression would mean a snapshot exposed torn or rolled-back
        // state.
        if (result.matches.size() < last_matches ||
            sequences < last_sequences) {
          reader_monotone[r] = false;
        }
        last_matches = result.matches.size();
        last_sequences = sequences;
        ++reader_queries[r];
      }
    });
  }

  std::thread writer([&] {
    Rng wrng(7);
    for (size_t s = 0; s < corpus.size(); ++s) {
      const uint64_t id = live.BeginSequence();
      size_t offset = 0;
      while (offset < corpus[s].size()) {
        const size_t chunk = std::min<size_t>(
            static_cast<size_t>(wrng.UniformInt(1, 16)),
            corpus[s].size() - offset);
        if (!live.AppendPoints(
                id, corpus[s].View().Slice(offset, offset + chunk))) {
          writer_failed.store(true);
          return;
        }
        offset += chunk;
        if (wrng.Uniform() < 0.2 && !live.Commit()) {
          writer_failed.store(true);
          return;
        }
      }
      if (!live.SealSequence(id) || !live.Commit()) {
        writer_failed.store(true);
        return;
      }
      if (s % 7 == 6 && !live.Checkpoint()) {
        writer_failed.store(true);
        return;
      }
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  ASSERT_FALSE(writer_failed.load());
  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(reader_monotone[r]) << "reader " << r;
    EXPECT_GT(reader_queries[r], 0u) << "reader " << r;
  }

  // Quiesced: the final snapshot must equal the offline pipeline exactly.
  SequenceDatabase memory(corpus[0].dim());
  for (const Sequence& s : corpus) memory.Add(s);
  ASSERT_TRUE(DiskDatabase::Save(memory, disk_));
  DiskDatabase reference(disk_, 128);
  ASSERT_TRUE(reference.valid());
  const SearchResult live_result = live.SearchVerified(probe.View(), epsilon);
  const SearchResult ref_result =
      reference.SearchVerified(probe.View(), epsilon);
  ASSERT_EQ(live_result.matches.size(), ref_result.matches.size());
  for (size_t i = 0; i < live_result.matches.size(); ++i) {
    EXPECT_EQ(live_result.matches[i].sequence_id,
              ref_result.matches[i].sequence_id);
    EXPECT_DOUBLE_EQ(live_result.matches[i].exact_distance,
                     ref_result.matches[i].exact_distance);
  }
}

// The engine-level version: queries and ingest batches share one worker
// pool; every future must resolve and the engine must shut down cleanly
// with ingest still arriving — the shape the serve-bench CLI runs.
// SearchVerified must verify against the snapshot its filter read. The
// writer commits sequence m as four copies of the point (0.001 m, 0.5);
// readers query the copy of the *next* sequence (m = num_sequences()), so
// a commit landing between two snapshot fetches would make the filter
// find sequence m while verification cannot see it. Every filter match is
// an exact copy of the query, so a consistent read verifies all of them:
// filter_matches == phase3_matches, with no abandon.
TEST_F(IngestChurnTest, SearchVerifiedReadsOneSnapshot) {
  constexpr size_t kSequences = 300;
  constexpr size_t kReaders = 2;
  const auto pattern = [](size_t m) {
    Sequence copy(2);
    for (int i = 0; i < 4; ++i) {
      copy.Append(Point{0.001 * static_cast<double>(m), 0.5});
    }
    return copy;
  };
  const double epsilon = 0.0004;

  ASSERT_TRUE(LiveDatabase::Create(live_, 2));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());

  std::atomic<bool> stop{false};
  std::vector<size_t> queries(kReaders, 0);
  std::vector<size_t> inconsistent(kReaders, 0);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        const Sequence query = pattern(live.num_sequences());
        const SearchResult result = live.SearchVerified(query.View(), epsilon);
        ++queries[r];
        if (result.stats.filter_matches != result.matches.size() ||
            result.stats.verify_abandons != 0) {
          ++inconsistent[r];
        }
      }
    });
  }
  bool writer_ok = true;
  for (size_t m = 0; m < kSequences && writer_ok; ++m) {
    const uint64_t id = live.BeginSequence();
    writer_ok = id == m && live.AppendPoints(id, pattern(m).View()) &&
                live.SealSequence(id) && live.Commit();
    if (writer_ok && m % 100 == 99) writer_ok = live.Checkpoint();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(writer_ok);
  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_GT(queries[r], 0u) << "reader " << r;
    EXPECT_EQ(inconsistent[r], 0u) << "reader " << r << " of " << queries[r];
  }
}

TEST_F(IngestChurnTest, EngineServesQueriesWhileIngestBatchesLand) {
  Rng rng(99);
  std::vector<Sequence> corpus;
  for (int i = 0; i < 12; ++i) {
    corpus.push_back(
        GenerateFractalSequence(50, FractalOptions(), &rng));
  }
  ASSERT_TRUE(LiveDatabase::Create(live_, corpus[0].dim()));
  LiveDatabase live(live_);
  ASSERT_TRUE(live.valid());
  // Seed a little data so early queries have something to chew on.
  {
    const uint64_t id = live.BeginSequence();
    ASSERT_TRUE(live.AppendPoints(id, corpus[0].View()));
    ASSERT_TRUE(live.SealSequence(id));
    ASSERT_TRUE(live.Commit());
  }
  EngineOptions options;
  options.num_threads = 3;
  options.max_pending_ingest = 2;
  QueryEngine engine(&live, options);

  std::vector<std::future<IngestOutcome>> ingest_futures;
  std::vector<std::future<QueryOutcome>> query_futures;
  QueryOptions qopts;
  qopts.epsilon = 1.5;
  qopts.verified = true;
  for (size_t s = 1; s < corpus.size(); ++s) {
    IngestBatch batch;
    IngestOp op;
    op.points = corpus[s];
    op.seal = true;
    batch.ops.push_back(std::move(op));
    batch.checkpoint = (s % 5 == 0);
    ingest_futures.push_back(engine.SubmitIngest(std::move(batch)));
    query_futures.push_back(engine.Submit(corpus[0], qopts));
  }
  uint64_t applied = 0;
  for (auto& f : ingest_futures) {
    const IngestOutcome outcome = f.get();
    // Back-pressure may reject some batches; whatever was accepted must
    // have been durably applied.
    if (!outcome.rejected) {
      EXPECT_TRUE(outcome.ok);
      ++applied;
    }
  }
  for (auto& f : query_futures) {
    const QueryOutcome outcome = f.get();
    EXPECT_EQ(outcome.status, QueryStatus::kOk);
  }
  engine.Shutdown();
  EXPECT_EQ(live.num_sequences(), 1 + applied);
}

}  // namespace
}  // namespace mdseq
