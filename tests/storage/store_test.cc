// Tests of the storage layer: the mmap on-disk layout must round-trip a
// mem store bit-for-bit, reject wrong-magic / truncated / corrupt files,
// account its working set, and the scaled streaming generator must emit
// exactly what an in-RAM build of the same graph would have stored.

#include "src/storage/mmap_store.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/normalize.h"
#include "src/runtime/error.h"
#include "src/runtime/thread_pool.h"
#include "src/storage/mem_store.h"

namespace nai::storage {
namespace {

std::string TempPath(const char* tag) {
  return "/tmp/nai_store_test_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

/// Removes the file when the test scope ends, pass or fail.
struct PathGuard {
  std::string path;
  ~PathGuard() { ::unlink(path.c_str()); }
};

std::vector<unsigned char> ReadBytes(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return {};
  std::fseek(in, 0, SEEK_END);
  std::vector<unsigned char> bytes(static_cast<std::size_t>(std::ftell(in)));
  std::fseek(in, 0, SEEK_SET);
  const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), in);
  std::fclose(in);
  bytes.resize(got);
  return bytes;
}

/// Writes a fresh file at `path`. Unlinking first rather than truncating
/// keeps the filesystem from flushing the old contents on every rewrite.
void WriteBytes(const std::string& path, const unsigned char* data,
                std::size_t len) {
  ::unlink(path.c_str());
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(data, 1, len, out), len);
  std::fclose(out);
}

/// True iff opening `path` throws IoError.
bool OpenThrowsIoError(const std::string& path, bool verify_data) {
  MmapStore::Options options;
  options.verify_data = verify_data;
  try {
    MmapStore store(path, options);
  } catch (const IoError&) {
    return true;
  }
  return false;
}

/// One data section of the layout: name, first byte, byte length.
struct Section {
  const char* name;
  std::int64_t offset;
  std::int64_t bytes;
};

std::vector<Section> Sections(const MmapLayout& l) {
  const std::int64_t n = l.num_nodes;
  return {
      {"adj_row_ptr", l.adj_row_ptr_off, (n + 1) * 8},
      {"adj_col_idx", l.adj_col_idx_off, l.adj_nnz * 4},
      {"norm_row_ptr", l.norm_row_ptr_off, (n + 1) * 8},
      {"norm_col_idx", l.norm_col_idx_off, l.norm_nnz() * 4},
      {"norm_values", l.norm_values_off, l.norm_nnz() * 4},
      {"features", l.features_off, n * l.feature_dim * 4},
      {"stationary", l.stationary_off, l.feature_dim * 4},
  };
}

std::shared_ptr<MemStore> MakeMemStore(std::int64_t n = 200,
                                       std::uint64_t seed = 3) {
  graph::GeneratorConfig cfg;
  cfg.num_nodes = n;
  cfg.num_edges = n * 4;
  cfg.feature_dim = 12;
  cfg.seed = seed;
  graph::SyntheticDataset ds = graph::GenerateDataset(cfg);
  return std::make_shared<MemStore>(std::move(ds.graph),
                                    std::move(ds.features), 0.5f);
}

void ExpectViewEq(graph::CsrView a, graph::CsrView b) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  for (std::int64_t v = 0; v <= a.rows; ++v) {
    ASSERT_EQ(a.row_ptr[v], b.row_ptr[v]) << "row_ptr " << v;
  }
  const std::int64_t nnz = a.row_ptr[a.rows];
  for (std::int64_t p = 0; p < nnz; ++p) {
    ASSERT_EQ(a.col_idx[p], b.col_idx[p]) << "col " << p;
  }
  ASSERT_EQ(a.values == nullptr, b.values == nullptr);
  if (a.values != nullptr) {
    for (std::int64_t p = 0; p < nnz; ++p) {
      ASSERT_EQ(a.values[p], b.values[p]) << "value " << p;
    }
  }
}

TEST(MmapStoreTest, RoundTripIsBitExact) {
  auto mem = MakeMemStore();
  PathGuard file{TempPath("roundtrip")};
  SaveStore(*mem, *mem, file.path);
  MmapStore mapped(file.path);  // verify_data on: full checksum must hold

  EXPECT_EQ(mapped.num_nodes(), mem->num_nodes());
  EXPECT_EQ(mapped.num_edges(), mem->num_edges());
  EXPECT_EQ(mapped.gamma(), mem->gamma());
  EXPECT_EQ(mapped.dim(), mem->dim());
  EXPECT_EQ(mapped.backend(), StoreBackend::kMmap);
  ExpectViewEq(mapped.adj(), mem->adj());
  ExpectViewEq(mapped.norm_adj(), mem->norm_adj());
  for (std::int64_t v = 0; v < mem->num_nodes(); ++v) {
    const float* a = mapped.row(v);
    const float* b = mem->row(v);
    for (std::size_t f = 0; f < mem->dim(); ++f) {
      ASSERT_EQ(a[f], b[f]) << "feature (" << v << ", " << f << ")";
    }
  }
  ASSERT_NE(mapped.stationary_pooled(), nullptr);
  const tensor::Matrix& gs = *mapped.stationary_pooled();
  const tensor::Matrix& ms = *mem->stationary_pooled();
  ASSERT_EQ(gs.cols(), ms.cols());
  for (std::size_t f = 0; f < ms.cols(); ++f) {
    ASSERT_EQ(gs.data()[f], ms.data()[f]) << "stationary " << f;
  }
}

TEST(MmapStoreTest, RejectsMissingWrongMagicAndTruncated) {
  EXPECT_THROW(MmapStore("/tmp/nai_store_test_does_not_exist"), IoError);

  auto mem = MakeMemStore(64);
  PathGuard file{TempPath("reject")};
  SaveStore(*mem, *mem, file.path);
  const std::vector<unsigned char> good = ReadBytes(file.path);
  const MmapLayout layout = MmapLayout::Make(64, 2 * mem->num_edges(), 12);
  ASSERT_EQ(static_cast<std::int64_t>(good.size()), layout.file_size);
  PathGuard bad{TempPath("bad")};

  // Wrong magic: the first byte flipped.
  std::vector<unsigned char> bytes = good;
  bytes[0] ^= 0x40;
  WriteBytes(bad.path, bytes.data(), bytes.size());
  EXPECT_THROW(MmapStore(bad.path), IoError);
  MmapStore(file.path);  // the untouched file opens

  // Truncated at every section boundary, inside the header and short of
  // the end: rejected by size before any data byte is read.
  std::vector<std::int64_t> cuts = {0, 8, 64, 127, 128,
                                    layout.file_size - 64,
                                    layout.file_size - 1};
  for (const Section& section : Sections(layout)) {
    cuts.push_back(section.offset);
    cuts.push_back(section.offset + section.bytes);
  }
  for (const std::int64_t size : cuts) {
    if (size >= layout.file_size) continue;  // the stationary end is EOF
    WriteBytes(bad.path, good.data(), static_cast<std::size_t>(size));
    EXPECT_TRUE(OpenThrowsIoError(bad.path, true)) << "cut at " << size;
    EXPECT_TRUE(OpenThrowsIoError(bad.path, false)) << "cut at " << size;
  }

  // A genuine version-1 file (byte-wise FNV-1a checksums) is refused by
  // its version, not reported as corrupt.
  auto fnv1a_bytes = [](const unsigned char* data, std::size_t len) {
    std::uint64_t h = 14695981039346656037ULL;
    for (std::size_t i = 0; i < len; ++i) h = (h ^ data[i]) * 1099511628211ULL;
    return h;
  };
  bytes = good;
  const std::uint32_t version = 1;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  const std::uint64_t data_sum =
      fnv1a_bytes(bytes.data() + 128, bytes.size() - 128);
  std::memcpy(bytes.data() + 48, &data_sum, sizeof(data_sum));
  std::memset(bytes.data() + 56, 0, 8);
  const std::uint64_t header_sum = fnv1a_bytes(bytes.data(), 128);
  std::memcpy(bytes.data() + 56, &header_sum, sizeof(header_sum));
  WriteBytes(bad.path, bytes.data(), bytes.size());
  try {
    MmapStore store(bad.path);
    ADD_FAILURE() << "a version-1 store opened";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(MmapStoreTest, DataCorruptionCaughtByChecksumOnly) {
  // Seeded single-byte flips: in every section they are caught by the data
  // checksum alone, so a verifying open throws and a lazy one does not; in
  // the header even a lazy open throws (magic, version or header
  // checksum).
  auto mem = MakeMemStore(64);
  PathGuard file{TempPath("corrupt")};
  SaveStore(*mem, *mem, file.path);
  const std::vector<unsigned char> good = ReadBytes(file.path);
  const MmapLayout layout = MmapLayout::Make(64, 2 * mem->num_edges(), 12);
  ASSERT_EQ(static_cast<std::int64_t>(good.size()), layout.file_size);
  std::mt19937_64 rng(20250);
  PathGuard flipped{TempPath("flipped")};
  auto flip_at = [&](std::int64_t pos) {
    std::vector<unsigned char> bytes = good;
    const auto mask = static_cast<unsigned char>(1 + rng() % 255);
    bytes[static_cast<std::size_t>(pos)] ^= mask;
    WriteBytes(flipped.path, bytes.data(), bytes.size());
  };
  for (int i = 0; i < 16; ++i) {
    const auto pos = static_cast<std::int64_t>(rng() % 128);
    flip_at(pos);
    EXPECT_TRUE(OpenThrowsIoError(flipped.path, false)) << "header " << pos;
  }
  for (const Section& section : Sections(layout)) {
    ASSERT_GT(section.bytes, 0) << section.name;
    for (int i = 0; i < 8; ++i) {
      const std::int64_t pos =
          section.offset +
          static_cast<std::int64_t>(rng() %
                                    static_cast<std::uint64_t>(section.bytes));
      flip_at(pos);
      EXPECT_TRUE(OpenThrowsIoError(flipped.path, true))
          << section.name << " byte " << pos;
      EXPECT_FALSE(OpenThrowsIoError(flipped.path, false))
          << section.name << " byte " << pos;
    }
  }
}

TEST(MmapStoreTest, ChecksumIsWordWiseFnv1aGolden) {
  // Pins the format-v2 checksum: a change here must come with a format
  // version bump. 203 bytes = 25 little-endian words and a 3-byte tail.
  std::vector<unsigned char> buf(203);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  EXPECT_EQ(StoreChecksum(buf.data(), buf.size()), 0x1166a231455e7384ULL);
  EXPECT_EQ(StoreChecksum(buf.data(), 0), 14695981039346656037ULL);
  // One word: (basis ^ w) * prime, w read little-endian.
  const std::uint64_t w = 0x1122334455667788ULL;
  unsigned char le[8];
  for (int b = 0; b < 8; ++b) le[b] = static_cast<unsigned char>(w >> (8 * b));
  EXPECT_EQ(StoreChecksum(le, 8),
            (14695981039346656037ULL ^ w) * 1099511628211ULL);
}

TEST(MmapStoreTest, ResidencyPartitionsTheFileWithoutDoubleCounting) {
  auto mem = MakeMemStore();
  PathGuard file{TempPath("residency")};
  SaveStore(*mem, *mem, file.path);
  MmapStore::Options lazy;
  lazy.verify_data = false;
  MmapStore mapped(file.path, lazy);

  const ResidencyInfo adj = mapped.AdjacencyResidency();
  const ResidencyInfo feat = mapped.FeatureResidency();
  EXPECT_TRUE(adj.exact);
  EXPECT_TRUE(feat.exact);
  EXPECT_GT(adj.mapped_bytes, 0);
  EXPECT_GT(feat.mapped_bytes, 0);
  EXPECT_LE(adj.resident_bytes, adj.mapped_bytes);
  EXPECT_LE(feat.resident_bytes, feat.mapped_bytes);

  // The two sections partition the data region: together they cover the
  // whole file except the (page-rounded) header, with no overlap.
  ResidencyInfo total = adj;
  total += feat;
  const MmapLayout layout =
      MmapLayout::Make(mapped.num_nodes(), 2 * mapped.num_edges(),
                       static_cast<std::int64_t>(mapped.dim()));
  EXPECT_LE(total.mapped_bytes, layout.file_size);
  EXPECT_GE(total.mapped_bytes, layout.file_size - layout.adj_row_ptr_off);

  // In-memory stores: everything is resident by definition, nothing was
  // measured.
  const ResidencyInfo mem_adj = mem->AdjacencyResidency();
  const ResidencyInfo mem_feat = mem->FeatureResidency();
  EXPECT_FALSE(mem_adj.exact);
  EXPECT_FALSE(mem_feat.exact);
  EXPECT_EQ(mem_adj.resident_bytes, mem_adj.mapped_bytes);
  EXPECT_EQ(mem_feat.resident_bytes, mem_feat.mapped_bytes);
  EXPECT_GT(mem_adj.mapped_bytes, 0);
  EXPECT_GT(mem_feat.mapped_bytes, 0);
}

TEST(StoreBackendTest, ParseAndDefaultHonorNaiStore) {
  EXPECT_EQ(ParseBackend("mem"), StoreBackend::kMem);
  EXPECT_EQ(ParseBackend("mmap"), StoreBackend::kMmap);
  EXPECT_THROW(ParseBackend("bogus"), ValidationError);

  const char* saved = std::getenv("NAI_STORE");
  const std::string restore = saved != nullptr ? saved : "";
  ::setenv("NAI_STORE", "mmap", 1);
  EXPECT_EQ(DefaultBackend(), StoreBackend::kMmap);
  ::setenv("NAI_STORE", "mem", 1);
  EXPECT_EQ(DefaultBackend(), StoreBackend::kMem);
  ::unsetenv("NAI_STORE");
  EXPECT_EQ(DefaultBackend(), StoreBackend::kMem);
  if (saved != nullptr) ::setenv("NAI_STORE", restore.c_str(), 1);
}

TEST(GenerateScaledTest, StreamedStoreMatchesFromRamRebuild) {
  graph::ScaledGraphConfig cfg;
  cfg.num_nodes = 500;
  cfg.feature_dim = 8;
  cfg.max_chords = 16;
  cfg.seed = 11;
  PathGuard file{TempPath("scaled")};
  const std::int64_t m = graph::GenerateScaled(cfg, file.path);
  MmapStore mapped(file.path);  // checksum verified
  EXPECT_EQ(mapped.num_nodes(), cfg.num_nodes);
  EXPECT_EQ(mapped.num_edges(), m);
  EXPECT_GE(m, cfg.num_nodes);  // the ring alone is n edges

  // Rebuild the same graph in RAM from the streamed adjacency and compare
  // every derived artifact bit-for-bit.
  const graph::CsrView adj = mapped.adj();
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int64_t u = 0; u < adj.rows; ++u) {
    for (std::int64_t p = adj.row_ptr[u]; p < adj.row_ptr[u + 1]; ++p) {
      if (adj.col_idx[p] > u) {
        edges.emplace_back(static_cast<std::int32_t>(u), adj.col_idx[p]);
      }
    }
  }
  const graph::Graph rebuilt =
      graph::Graph::FromEdges(cfg.num_nodes, edges);
  EXPECT_EQ(rebuilt.num_edges(), m);
  // The store contract hands out the adjacency unweighted; null the raw
  // graph's all-ones weights to compare structure bit-for-bit.
  graph::CsrView rebuilt_adj = rebuilt.adjacency().view();
  rebuilt_adj.values = nullptr;
  ExpectViewEq(mapped.adj(), rebuilt_adj);
  const graph::Csr norm = graph::NormalizedAdjacency(rebuilt, cfg.gamma);
  ExpectViewEq(mapped.norm_adj(), norm.view());

  tensor::Matrix features(cfg.num_nodes, cfg.feature_dim);
  for (std::int64_t v = 0; v < cfg.num_nodes; ++v) {
    std::memcpy(features.row(v), mapped.row(v),
                sizeof(float) * mapped.dim());
  }
  const tensor::Matrix pooled =
      graph::PooledStationaryVector(rebuilt, features, cfg.gamma);
  ASSERT_NE(mapped.stationary_pooled(), nullptr);
  for (std::size_t f = 0; f < pooled.cols(); ++f) {
    ASSERT_EQ(mapped.stationary_pooled()->data()[f], pooled.data()[f])
        << "stationary " << f;
  }
}

TEST(GenerateScaledTest, StoreBytesMatchGoldenAtEveryThreadCount) {
  // The whole-file checksum of this config's store as the serial generator
  // wrote it. Every pool must write the same bytes: the row sort hides the
  // order of the parallel scatter, and the stationary vector keeps its
  // ascending-node sum.
  constexpr std::uint64_t kGoldenChecksum = 0xb4b523da0c99ff3eULL;
  constexpr std::size_t kGoldenBytes = 11535776;
  graph::ScaledGraphConfig cfg;
  cfg.num_nodes = std::int64_t{1} << 16;
  cfg.feature_dim = 8;
  cfg.seed = 11;
  // Every node loop of the generator costs at least one scalar op per
  // node, so even at grain 1 its 2^16 nodes split into more than one chunk
  // and each loop runs on more than one thread of a 2- or 4-thread pool.
  ASSERT_GT(runtime::ThreadPool::PlannedWorkers(
                static_cast<std::size_t>(cfg.num_nodes), /*grain=*/1, 2),
            1u);
  for (const int threads : {1, 2, 4}) {
    runtime::ThreadPool pool(threads);
    runtime::ScopedDefaultPool scoped(pool);
    PathGuard file{TempPath("golden")};
    graph::GenerateScaled(cfg, file.path);
    const std::vector<unsigned char> bytes = ReadBytes(file.path);
    ASSERT_EQ(bytes.size(), kGoldenBytes) << threads << " threads";
    EXPECT_EQ(StoreChecksum(bytes.data(), bytes.size()), kGoldenChecksum)
        << threads << " threads";
  }
}

TEST(GenerateScaledTest, RejectsInvalidConfigs) {
  graph::ScaledGraphConfig cfg;
  cfg.num_nodes = 4;
  EXPECT_THROW(graph::GenerateScaled(cfg, "/tmp/never_written"),
               ValidationError);
  cfg.num_nodes = 100;
  cfg.feature_dim = 0;
  EXPECT_THROW(graph::GenerateScaled(cfg, "/tmp/never_written"),
               ValidationError);
  cfg.feature_dim = 4;
  cfg.power_law_exponent = 1.0f;
  EXPECT_THROW(graph::GenerateScaled(cfg, "/tmp/never_written"),
               ValidationError);
}

TEST(MmapStoreTest, ConcurrentReadersShareOneMapping) {
  auto mem = MakeMemStore(300);
  PathGuard file{TempPath("concurrent")};
  SaveStore(*mem, *mem, file.path);
  const MmapStore mapped(file.path);

  // Readers touch rows, gathers, views and residency concurrently — the
  // TSan stage runs this suite to prove the store is read-share safe.
  std::vector<std::thread> readers;
  std::vector<double> sums(4, 0.0);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      double acc = 0.0;
      std::vector<std::int32_t> ids;
      for (std::int32_t v = t; v < mapped.num_nodes(); v += 4) {
        acc += mapped.row(v)[0];
        ids.push_back(v);
      }
      const tensor::Matrix gathered = mapped.GatherRows(ids);
      acc += gathered.data()[0];
      const graph::CsrView norm = mapped.norm_adj();
      acc += norm.values[norm.row_ptr[t + 1] - 1];
      const ResidencyInfo r = mapped.AdjacencyResidency();
      acc += static_cast<double>(r.resident_bytes > 0);
      sums[static_cast<std::size_t>(t)] = acc;
    });
  }
  for (std::thread& th : readers) th.join();
  for (int t = 0; t < 4; ++t) {
    std::vector<std::int32_t> ids;
    double acc = 0.0;
    for (std::int32_t v = t; v < mapped.num_nodes(); v += 4) {
      acc += mapped.row(v)[0];
      ids.push_back(v);
    }
    acc += mapped.GatherRows(ids).data()[0];
    const graph::CsrView norm = mapped.norm_adj();
    acc += norm.values[norm.row_ptr[t + 1] - 1];
    acc += 1.0;
    EXPECT_EQ(sums[static_cast<std::size_t>(t)], acc) << "reader " << t;
  }
}

}  // namespace
}  // namespace nai::storage
