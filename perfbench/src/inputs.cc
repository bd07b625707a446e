#include "inputs.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "baseline/sequential_scan.h"
#include "gen/fractal.h"
#include "gen/query_workload.h"
#include "gen/video.h"
#include "util/random.h"

namespace perfbench {

using mdseq::Sequence;

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Salts separating the independent input streams of one seed.
constexpr uint64_t kCorpusSalt = 1;
constexpr uint64_t kQuerySalt = 2;
constexpr uint64_t kIngestSalt = 3;

template <typename Fn>
void ParallelFor(size_t count, size_t threads, Fn fn) {
  threads = std::max<size_t>(1, std::min(threads, count));
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

size_t DrawLength(mdseq::Rng* rng, const Scale& scale) {
  return static_cast<size_t>(
      rng->UniformInt(static_cast<int64_t>(scale.min_length),
                      static_cast<int64_t>(scale.max_length)));
}

}  // namespace

Scale Scale::Tiny() {
  Scale scale;
  scale.synthetic_sequences = 120;
  scale.video_sequences = 100;
  scale.min_length = 56;
  scale.max_length = 160;
  scale.query_pool = 12;
  return scale;
}

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  return SplitMix(SplitMix(SplitMix(seed) ^ a) ^ b);
}

std::vector<Sequence> GenerateCorpus(CorpusKind kind, const Scale& scale,
                                     size_t threads) {
  const size_t count = kind == CorpusKind::kVideo ? scale.video_sequences
                                                  : scale.synthetic_sequences;
  std::vector<Sequence> corpus(count, Sequence(3));
  ParallelFor(count, threads, [&](size_t i) {
    mdseq::Rng rng(
        MixSeed(kDataSeed, kCorpusSalt + 16 * static_cast<uint64_t>(kind), i));
    const size_t length = DrawLength(&rng, scale);
    corpus[i] = kind == CorpusKind::kVideo
                    ? mdseq::GenerateVideoSequence(length, mdseq::VideoOptions(),
                                                   &rng)
                    : mdseq::GenerateFractalSequence(
                          length, mdseq::FractalOptions(), &rng);
  });
  return corpus;
}

std::vector<Sequence> DrawQueryPool(const std::vector<Sequence>& corpus,
                                    const Scale& scale) {
  mdseq::Rng rng(MixSeed(kDataSeed, kQuerySalt));
  const size_t span = scale.query_max_length - scale.query_min_length + 1;
  std::vector<Sequence> queries;
  queries.reserve(scale.query_pool);
  for (size_t i = 0; i < scale.query_pool; ++i) {
    mdseq::QueryWorkloadOptions options;
    options.min_length = scale.query_min_length + (i * 7) % span;
    options.max_length = options.min_length;
    const std::vector<Sequence> source = {
        corpus[i * corpus.size() / scale.query_pool]};
    queries.push_back(mdseq::DrawQuery(source, options, &rng));
  }
  return queries;
}

Sequence IngestSequence(uint64_t seed, size_t index, const Scale& scale) {
  mdseq::Rng rng(MixSeed(seed, kIngestSalt, index));
  return mdseq::GenerateFractalSequence(DrawLength(&rng, scale),
                                        mdseq::FractalOptions(), &rng);
}

namespace {

constexpr uint64_t kCacheMagic = 0x3266657268636e62ull;  // "bnchref2"

bool ReadReferences(const std::string& path, Inputs* inputs) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  auto read = [file](void* data, size_t size) {
    return std::fread(data, 1, size, file) == size;
  };
  uint64_t header[2] = {0, 0};
  bool ok = read(header, sizeof(header)) && header[0] == kCacheMagic &&
            header[1] == inputs->queries.size();
  std::vector<std::vector<RefMatch>> refs(inputs->queries.size());
  for (size_t q = 0; ok && q < refs.size(); ++q) {
    uint64_t count = 0;
    ok = read(&count, sizeof(count)) && count <= (1u << 24);
    if (!ok) break;
    refs[q].resize(count);
    for (RefMatch& r : refs[q]) {
      ok = ok && read(&r.id, sizeof(r.id)) &&
           read(&r.distance, sizeof(r.distance));
    }
  }
  std::fclose(file);
  if (!ok) return false;
  inputs->refs = std::move(refs);
  return true;
}

bool WriteReferences(const std::string& path, const Inputs& inputs) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return false;
  bool ok = true;
  auto write = [file, &ok](const void* data, size_t size) {
    ok = ok && std::fwrite(data, 1, size, file) == size;
  };
  const uint64_t header[2] = {kCacheMagic, inputs.queries.size()};
  write(header, sizeof(header));
  for (size_t q = 0; q < inputs.refs.size(); ++q) {
    const uint64_t count = inputs.refs[q].size();
    write(&count, sizeof(count));
    for (const RefMatch& r : inputs.refs[q]) {
      write(&r.id, sizeof(r.id));
      write(&r.distance, sizeof(r.distance));
    }
  }
  ok = std::fclose(file) == 0 && ok;
  return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
}

void ComputeReferences(double epsilon, size_t k, size_t threads,
                       Inputs* inputs) {
  mdseq::SequenceDatabase database(inputs->corpus.front().dim());
  for (const Sequence& s : inputs->corpus) database.Add(s);
  const mdseq::SequentialScan scan(&database);
  const size_t count = inputs->queries.size();
  inputs->refs.assign(count, {});
  ParallelFor(count, threads, [&](size_t q) {
    double eps = epsilon;
    for (;;) {
      const std::vector<mdseq::ScanMatch> matches =
          scan.Search(inputs->queries[q].View(), eps);
      // sqrt(3) bounds every distance in the unit cube.
      if (matches.size() >= k || eps > 2.0) {
        std::vector<RefMatch>& refs = inputs->refs[q];
        refs.reserve(matches.size());
        for (const mdseq::ScanMatch& m : matches) {
          refs.push_back(RefMatch{static_cast<uint32_t>(m.sequence_id),
                                  m.distance});
        }
        std::sort(refs.begin(), refs.end(),
                  [](const RefMatch& a, const RefMatch& b) {
                    return a.distance != b.distance ? a.distance < b.distance
                                                    : a.id < b.id;
                  });
        return;
      }
      eps *= 2.0;
    }
  });
}

}  // namespace

bool LoadOrComputeReferences(double epsilon, size_t k, size_t threads,
                             const std::string& cache_dir, Inputs* inputs) {
  uint64_t key = Fingerprint(inputs->corpus) ^
                 MixSeed(Fingerprint(inputs->queries), k);
  uint64_t eps_bits = 0;
  std::memcpy(&eps_bits, &epsilon, sizeof(eps_bits));
  key = MixSeed(key, eps_bits);
  char name[64];
  std::snprintf(name, sizeof(name), "/refs-%016llx.bin",
                static_cast<unsigned long long>(key));
  const std::string path = cache_dir + name;
  if (ReadReferences(path, inputs)) return true;
  ComputeReferences(epsilon, k, threads, inputs);
  std::filesystem::create_directories(cache_dir);
  return WriteReferences(path, *inputs);
}

uint64_t Fingerprint(const std::vector<Sequence>& sequences) {
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ull;
    }
  };
  const uint64_t count = sequences.size();
  mix(&count, sizeof(count));
  for (const Sequence& s : sequences) {
    const uint64_t shape[2] = {s.dim(), s.size()};
    mix(shape, sizeof(shape));
    mix(s.data().data(), s.data().size() * sizeof(double));
  }
  return hash;
}

std::vector<uint32_t> ExactIds(const std::vector<RefMatch>& refs,
                               double epsilon) {
  std::vector<uint32_t> ids;
  for (const RefMatch& r : refs) {
    if (r.distance > epsilon) break;
    ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace perfbench
