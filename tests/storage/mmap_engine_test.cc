// End-to-end bit-exactness of the mmap storage backend: engines serving an
// mmap-backed snapshot must produce the same bits — predictions, exit
// depths, MAC counters — as engines on the mem-backed snapshot of the same
// graph, unsharded and across shard counts, for every QoS-shaped config
// (speed-first, accuracy-first, INT8 throughput-first), and the delta
// ingestion path must accept an mmap base. Also covers concurrent serving
// off one shared mapping (the TSan stage runs this suite).

#include "src/storage/mmap_store.h"

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/inference.h"
#include "src/core/sharded_inference.h"
#include "src/graph/delta.h"
#include "src/graph/generators.h"
#include "src/graph/shard.h"
#include "src/serve/qos.h"
#include "src/serve/serving_engine.h"

namespace nai::core {
namespace {

constexpr int kDepth = 3;

struct World {
  models::ModelConfig config;
  std::unique_ptr<ClassifierStack> classifiers;
  std::unique_ptr<QuantizedClassifierStack> quantized;
  std::shared_ptr<const graph::GraphSnapshot> mem_snapshot;
  std::shared_ptr<const graph::GraphSnapshot> mmap_snapshot;
  std::string path;
  std::vector<std::int32_t> nodes;

  World() = default;
  // The user-declared destructor would suppress the implicit moves
  // MakeWorld's return needs; a moved-from World unlinks "" harmlessly.
  World(World&&) = default;
  World& operator=(World&&) = default;
  ~World() { ::unlink(path.c_str()); }
};

World MakeWorld(std::int64_t n = 240, std::uint64_t seed = 5) {
  graph::GeneratorConfig gen;
  gen.num_nodes = n;
  gen.num_edges = n * 4;
  gen.feature_dim = 16;
  gen.num_classes = 4;
  gen.seed = seed;
  graph::SyntheticDataset ds = graph::GenerateDataset(gen);

  World w;
  w.config.kind = models::ModelKind::kSgc;
  w.config.depth = kDepth;
  w.config.gamma = 0.5f;
  w.config.feature_dim = ds.features.cols();
  w.config.num_classes = ds.num_classes;
  w.config.hidden_dims = {16};
  // Untrained but seeded: deterministic weights are all bit-exactness
  // comparisons need.
  w.classifiers = std::make_unique<ClassifierStack>(w.config, 99);
  w.quantized = std::make_unique<QuantizedClassifierStack>(*w.classifiers);

  w.mem_snapshot = graph::MakeSnapshot(std::move(ds.graph),
                                       std::move(ds.features), w.config.gamma);
  w.path = "/tmp/nai_mmap_engine_test_" +
           std::to_string(static_cast<long>(::getpid()));
  storage::SaveStore(*w.mem_snapshot->graph_store,
                     *w.mem_snapshot->feature_store, w.path);
  auto store = std::make_shared<storage::MmapStore>(w.path);
  w.mmap_snapshot = graph::MakeSnapshotFromStore(store, store);

  for (std::int32_t v = 0; v < n; ++v) w.nodes.push_back(v);
  return w;
}

/// The three QoS-class-shaped configs every serving deployment runs.
std::vector<InferenceConfig> QosConfigs() {
  InferenceConfig speed;
  speed.nap = NapKind::kDistance;
  speed.threshold = 0.3f;
  speed.t_max = 1;
  InferenceConfig accuracy;
  accuracy.nap = NapKind::kDistance;
  accuracy.threshold = 0.05f;
  accuracy.t_max = 0;  // full depth
  InferenceConfig throughput = speed;
  throughput.int8_classifier = true;
  return {speed, accuracy, throughput};
}

void ExpectResultEq(const InferenceResult& a, const InferenceResult& b) {
  ASSERT_EQ(a.predictions, b.predictions);
  ASSERT_EQ(a.exit_depths, b.exit_depths);
  EXPECT_EQ(a.stats.propagation_macs, b.stats.propagation_macs);
  EXPECT_EQ(a.stats.nap_macs, b.stats.nap_macs);
  EXPECT_EQ(a.stats.stationary_macs, b.stats.stationary_macs);
  EXPECT_EQ(a.stats.classification_macs, b.stats.classification_macs);
  EXPECT_EQ(a.stats.exits_at_depth, b.stats.exits_at_depth);
}

TEST(MmapEngineTest, UnshardedBitExactAcrossBackendsAndQosConfigs) {
  World w = MakeWorld();
  EngineOptions options;
  options.quantized = w.quantized.get();
  NaiEngine mem_engine =
      NaiEngine::FromSnapshot(w.mem_snapshot, *w.classifiers, options);
  NaiEngine mmap_engine =
      NaiEngine::FromSnapshot(w.mmap_snapshot, *w.classifiers, options);
  EXPECT_EQ(w.mmap_snapshot->backend(), storage::StoreBackend::kMmap);

  for (const InferenceConfig& config : QosConfigs()) {
    ExpectResultEq(mmap_engine.Infer(w.nodes, config),
                   mem_engine.Infer(w.nodes, config));
  }
}

TEST(MmapEngineTest, MixedQosQueriesBitExactAcrossBackends) {
  World w = MakeWorld();
  EngineOptions options;
  options.quantized = w.quantized.get();
  NaiEngine mem_engine =
      NaiEngine::FromSnapshot(w.mem_snapshot, *w.classifiers, options);
  NaiEngine mmap_engine =
      NaiEngine::FromSnapshot(w.mmap_snapshot, *w.classifiers, options);

  const std::vector<InferenceConfig> configs = QosConfigs();
  std::vector<ConfiguredQuery> queries;
  for (std::size_t i = 0; i < w.nodes.size(); ++i) {
    queries.push_back({w.nodes[i], &configs[i % configs.size()]});
  }
  ExpectResultEq(mmap_engine.InferMixed(queries),
                 mem_engine.InferMixed(queries));
}

TEST(MmapEngineTest, ShardedBitExactAcrossShardCountsAndBackends) {
  World w = MakeWorld();
  EngineOptions options;
  options.quantized = w.quantized.get();
  NaiEngine reference =
      NaiEngine::FromSnapshot(w.mem_snapshot, *w.classifiers, options);

  for (const int shards : {1, 2, 4}) {
    ShardedNaiEngine sharded(
        w.mmap_snapshot, graph::MakeShards(w.mmap_snapshot->adj(), shards),
        *w.classifiers, nullptr);
    sharded.AttachQuantizedClassifiers(w.quantized.get());
    for (const InferenceConfig& config : QosConfigs()) {
      const InferenceResult got = sharded.Infer(w.nodes, config);
      const InferenceResult want = reference.Infer(w.nodes, config);
      ASSERT_EQ(got.predictions, want.predictions) << shards << " shards";
      ASSERT_EQ(got.exit_depths, want.exit_depths) << shards << " shards";
    }
  }

  // The identity partition — the out-of-core configuration: one shard
  // built from the node count alone, the engine reads the mapped store.
  ShardedNaiEngine identity(
      w.mmap_snapshot, graph::IdentityShards(w.mmap_snapshot->num_nodes()),
      *w.classifiers, nullptr);
  identity.AttachQuantizedClassifiers(w.quantized.get());
  for (const InferenceConfig& config : QosConfigs()) {
    const InferenceResult got = identity.Infer(w.nodes, config);
    const InferenceResult want = reference.Infer(w.nodes, config);
    ASSERT_EQ(got.predictions, want.predictions) << "identity shard";
    ASSERT_EQ(got.exit_depths, want.exit_depths) << "identity shard";
  }
}

TEST(MmapEngineTest, SnapshotBuilderIngestsAgainstMmapBase) {
  World w = MakeWorld();
  graph::GraphDelta delta;
  const std::int64_t n = w.mem_snapshot->num_nodes();
  const std::int32_t fresh = delta.AddNode(
      std::vector<float>(w.mem_snapshot->feature_dim(), 0.5f), n);
  delta.AddEdge(fresh, 7);
  delta.AddEdge(3, 150);
  delta.UpdateFeatures(20, std::vector<float>(
                               w.mem_snapshot->feature_dim(), -2.0f));

  // Apply against the mmap base and against the mem base: the two merged
  // snapshots must be bit-identical (both are mem-backed).
  graph::SnapshotBuilder from_mmap(w.mmap_snapshot);
  graph::SnapshotBuilder from_mem(w.mem_snapshot);
  const auto merged_a = from_mmap.Apply(delta);
  const auto merged_b = from_mem.Apply(delta);
  ASSERT_EQ(merged_a->num_nodes(), merged_b->num_nodes());

  NaiEngine engine_a =
      NaiEngine::FromSnapshot(merged_a, *w.classifiers);
  NaiEngine engine_b =
      NaiEngine::FromSnapshot(merged_b, *w.classifiers);
  std::vector<std::int32_t> all(static_cast<std::size_t>(n) + 1);
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<std::int32_t>(i);
  }
  InferenceConfig config;
  config.nap = NapKind::kDistance;
  config.threshold = 0.1f;
  ExpectResultEq(engine_a.Infer(all, config), engine_b.Infer(all, config));
}

TEST(MmapEngineTest, ServingStatsReportStoreResidency) {
  World w = MakeWorld();
  ShardedNaiEngine engine(
      w.mmap_snapshot, graph::IdentityShards(w.mmap_snapshot->num_nodes()),
      *w.classifiers, nullptr);
  engine.AttachQuantizedClassifiers(w.quantized.get());
  serve::ServingEngine server(engine, serve::DefaultQosPolicyTable(kDepth),
                              {});
  const serve::ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.store_backend, "mmap");
  EXPECT_GT(stats.store_mapped_bytes, 0);
  EXPECT_TRUE(stats.store_residency_exact);
  EXPECT_LE(stats.store_resident_bytes, stats.store_mapped_bytes);

  ShardedNaiEngine mem_engine(
      w.mem_snapshot, graph::IdentityShards(w.mem_snapshot->num_nodes()),
      *w.classifiers, nullptr);
  mem_engine.AttachQuantizedClassifiers(w.quantized.get());
  serve::ServingEngine mem_server(mem_engine,
                                  serve::DefaultQosPolicyTable(kDepth), {});
  const serve::ServingStatsSnapshot mem_stats = mem_server.Stats();
  EXPECT_EQ(mem_stats.store_backend, "mem");
  EXPECT_GT(mem_stats.store_mapped_bytes, 0);
  EXPECT_FALSE(mem_stats.store_residency_exact);
  EXPECT_EQ(mem_stats.store_resident_bytes, mem_stats.store_mapped_bytes);
}

TEST(MmapEngineTest, ConcurrentShardEnginesShareOneMapping) {
  World w = MakeWorld();
  // Two independent engines over the same snapshot (same MmapStore), each
  // serving from its own thread — the read-share pattern TSan must bless.
  NaiEngine a = NaiEngine::FromSnapshot(w.mmap_snapshot, *w.classifiers);
  NaiEngine b = NaiEngine::FromSnapshot(w.mmap_snapshot, *w.classifiers);
  InferenceConfig config;
  config.nap = NapKind::kDistance;
  config.threshold = 0.1f;
  InferenceResult ra, rb;
  std::thread ta([&] { ra = a.Infer(w.nodes, config); });
  std::thread tb([&] { rb = b.Infer(w.nodes, config); });
  ta.join();
  tb.join();
  ExpectResultEq(ra, rb);
}

}  // namespace
}  // namespace nai::core
