// Bit-exactness suite for the sharded serving engine: ShardedNaiEngine
// hands the unsharded engine's batches to N identical NaiEngine replicas, so
// it must reproduce NaiEngine exactly — predictions, exit depths, the exit
// histogram and every MAC counter, propagation_macs included — for any shard
// count, batch size and query order, for NAPd, NAPg, the vanilla
// fixed-depth path and the int8 classifier.

#include "src/core/sharded_inference.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "gtest/gtest.h"
#include "src/graph/shard.h"
#include "src/tensor/random.h"
#include "tests/core/core_fixtures.h"

namespace nai::core {
namespace {

using nai::testing::MakeSmallWorld;
using nai::testing::MakeTestEngine;
using nai::testing::MakeTestShardedEngine;
using nai::testing::MakeTestSnapshot;
using nai::testing::SmallWorld;

constexpr int kDepth = 3;

/// Every non-timer field: predictions, exit depths and every integer stat.
void ExpectSameResult(const InferenceResult& got, const InferenceResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.predictions, want.predictions) << label;
  EXPECT_EQ(got.exit_depths, want.exit_depths) << label;
  EXPECT_EQ(got.stats.num_nodes, want.stats.num_nodes) << label;
  EXPECT_EQ(got.stats.exits_at_depth, want.stats.exits_at_depth) << label;
  EXPECT_EQ(got.stats.propagation_macs, want.stats.propagation_macs) << label;
  EXPECT_EQ(got.stats.nap_macs, want.stats.nap_macs) << label;
  EXPECT_EQ(got.stats.stationary_macs, want.stats.stationary_macs) << label;
  EXPECT_EQ(got.stats.classification_macs, want.stats.classification_macs)
      << label;
}

/// Every node of `w` in a seeded scrambled order.
std::vector<std::int32_t> Scrambled(const SmallWorld& w, std::uint64_t seed) {
  std::vector<std::int32_t> queries = w.all_nodes;
  tensor::Rng rng(seed);
  rng.Shuffle(queries);
  return queries;
}

GateStack TrainedGates(SmallWorld& w) {
  GateStack gates(kDepth, w.config.feature_dim, 77);
  const tensor::Matrix stationary = w.stationary->RowsForNodes(w.all_nodes);
  GateTrainConfig gcfg;
  gcfg.epochs = 20;
  gates.Train(w.stack, stationary, *w.classifiers, w.all_nodes, w.data.labels,
              gcfg);
  return gates;
}

/// A scrambled list under `cfg` (batch size 37, so batches straddle every
/// shard range) must match the unsharded engine for shard counts {1, 2, 4}.
void CheckShardedBitExact(SmallWorld& w, const GateStack* gates,
                          InferenceConfig cfg) {
  cfg.batch_size = 37;
  const std::vector<std::int32_t> queries = Scrambled(w, 2024);
  NaiEngine plain = MakeTestEngine(w, {.gates = gates});
  const InferenceResult reference = plain.Infer(queries, cfg);

  for (const int shards : {1, 2, 4}) {
    ShardedNaiEngine sharded = MakeTestShardedEngine(w, shards, gates);
    const InferenceResult run = sharded.Infer(queries, cfg);
    ExpectSameResult(run, reference, "shards=" + std::to_string(shards));
  }
}

TEST(ShardedInferenceTest, NapDistanceBitExact) {
  auto w = MakeSmallWorld(kDepth);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.3f;
  for (const int t_max : {0, 1}) {  // 0 resolves to k
    cfg.t_max = t_max;
    CheckShardedBitExact(w, nullptr, cfg);
  }
}

TEST(ShardedInferenceTest, NapGateBitExact) {
  auto w = MakeSmallWorld(kDepth);
  const GateStack gates = TrainedGates(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kGate;
  CheckShardedBitExact(w, &gates, cfg);
}

TEST(ShardedInferenceTest, VanillaBitExact) {
  auto w = MakeSmallWorld(kDepth);
  InferenceConfig cfg;
  cfg.nap = NapKind::kNone;
  CheckShardedBitExact(w, nullptr, cfg);
}

TEST(ShardedInferenceTest, InferMixedMatchesUnshardedForAnyShardsAndBatch) {
  // The contract: a scrambled list mixing NAPd, NAPg, vanilla and int8
  // configs answers exactly like NaiEngine::InferMixed on the same list —
  // every integer stat included — whatever the shard count and batch size.
  auto w = MakeSmallWorld(kDepth);
  const GateStack gates = TrainedGates(w);
  InferenceConfig napd;
  napd.nap = NapKind::kDistance;
  napd.relative_distance = true;
  napd.threshold = 0.3f;
  InferenceConfig napg;
  napg.nap = NapKind::kGate;
  napg.t_max = 2;
  InferenceConfig vanilla;
  vanilla.nap = NapKind::kNone;
  InferenceConfig int8 = napd;
  int8.int8_classifier = true;
  InferenceConfig* configs[] = {&napd, &napg, &vanilla, &int8};

  std::vector<ConfiguredQuery> queries;
  tensor::Rng rng(99);
  for (const std::int32_t v : Scrambled(w, 31)) {
    queries.push_back({v, configs[rng.NextBounded(4)]});
  }
  NaiEngine plain = MakeTestEngine(
      w, {.gates = &gates, .quantized = w.quantized.get()});

  for (const std::size_t batch_size : {1, 7, 37, 500}) {
    for (InferenceConfig* c : configs) c->batch_size = batch_size;
    const InferenceResult reference = plain.InferMixed(queries);
    for (const int shards : {1, 2, 3, 4, 8}) {
      ShardedNaiEngine sharded = MakeTestShardedEngine(w, shards, &gates);
      sharded.AttachQuantizedClassifiers(w.quantized.get());
      ExpectSameResult(sharded.InferMixed(queries), reference,
                       "batch_size=" + std::to_string(batch_size) +
                           " shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedInferenceTest, PoolSizeInvariant) {
  // The engine pools' sizes must not change a single bit of the result.
  auto w = MakeSmallWorld(kDepth);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.3f;
  cfg.batch_size = 20;
  NaiEngine plain = MakeTestEngine(w);
  const InferenceResult reference = plain.Infer(w.all_nodes, cfg);
  for (const int total_threads : {1, 5}) {
    ShardedNaiEngine sharded =
        MakeTestShardedEngine(w, 2, nullptr, total_threads);
    const InferenceResult run = sharded.Infer(w.all_nodes, cfg);
    ExpectSameResult(run, reference,
                     "threads=" + std::to_string(total_threads));
  }
}

TEST(ShardedInferenceTest, GamlpAttentionHeadBitExact) {
  // GAMLP's head runs VectorAttention inside classify, and every engine
  // calls Logits on the one shared ClassifierStack while the others do
  // too: the head must not share scratch between concurrent calls
  // (regression: inference-mode Forward used to write member matrices).
  auto w = MakeSmallWorld(2, models::ModelKind::kGamlp, 240);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.3f;
  cfg.batch_size = 20;
  NaiEngine plain = MakeTestEngine(w);
  const InferenceResult reference = plain.Infer(w.all_nodes, cfg);
  for (const int shards : {2, 4}) {
    ShardedNaiEngine sharded = MakeTestShardedEngine(w, shards);
    ExpectSameResult(sharded.Infer(w.all_nodes, cfg), reference,
                     "gamlp shards=" + std::to_string(shards));
  }
}

/// Delegates to the wrapped store but carries no pooled stationary vector.
class NoPooledFeatureStore : public storage::FeatureStore {
 public:
  explicit NoPooledFeatureStore(
      std::shared_ptr<const storage::FeatureStore> inner)
      : inner_(std::move(inner)) {}
  std::int64_t num_rows() const override { return inner_->num_rows(); }
  std::size_t dim() const override { return inner_->dim(); }
  const float* row(std::int64_t v) const override { return inner_->row(v); }
  storage::StoreBackend backend() const override { return inner_->backend(); }
  storage::ResidencyInfo FeatureResidency() const override {
    return inner_->FeatureResidency();
  }

 private:
  std::shared_ptr<const storage::FeatureStore> inner_;
};

TEST(ShardedInferenceTest, MissingPooledVectorThrowsLikeFromSnapshot) {
  // use_stationary over a store without a pooled vector must throw at
  // construction, as NaiEngine::FromSnapshot does — not build engines that
  // pass NAPd through ValidateConfig and then fail every batch.
  auto w = MakeSmallWorld(2, models::ModelKind::kSgc, 120);
  auto snapshot = std::make_shared<graph::GraphSnapshot>(*MakeTestSnapshot(w));
  snapshot->feature_store =
      std::make_shared<NoPooledFeatureStore>(snapshot->feature_store);
  EXPECT_THROW(NaiEngine::FromSnapshot(snapshot, *w.classifiers),
               std::invalid_argument);
  EXPECT_THROW(ShardedNaiEngine(snapshot, graph::MakeShards(w.data.graph, 2),
                                *w.classifiers, nullptr),
               std::invalid_argument);

  // Without the stationary view the engine serves vanilla and rejects NAPd.
  ShardedNaiEngine vanilla_only(snapshot, graph::MakeShards(w.data.graph, 2),
                                *w.classifiers, nullptr,
                                /*use_stationary=*/false);
  InferenceConfig napd;
  EXPECT_THROW(vanilla_only.ValidateConfig(napd), std::invalid_argument);
  InferenceConfig vanilla;
  vanilla.nap = NapKind::kNone;
  NaiEngine plain = MakeTestEngine(w);
  EXPECT_EQ(vanilla_only.Infer(w.all_nodes, vanilla).predictions,
            plain.Infer(w.all_nodes, vanilla).predictions);
}

TEST(ShardedInferenceTest, StatsSetExactlyOnceAcrossShards) {
  // num_nodes and wall_time_ms describe the whole run: the merge must not
  // sum the per-batch values (num_nodes would double) nor drop them (zero).
  auto w = MakeSmallWorld(2, models::ModelKind::kSgc, 120);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.3f;
  cfg.batch_size = 25;
  ShardedNaiEngine sharded = MakeTestShardedEngine(w, 3);
  const InferenceResult run = sharded.Infer(w.all_nodes, cfg);
  EXPECT_EQ(run.stats.num_nodes, 120);
  EXPECT_GT(run.stats.wall_time_ms, 0.0);
  const std::int64_t exited =
      std::accumulate(run.stats.exits_at_depth.begin(),
                      run.stats.exits_at_depth.end(), std::int64_t{0});
  EXPECT_EQ(exited, 120);
  for (const std::int32_t d : run.exit_depths) EXPECT_GE(d, 1);
}

TEST(ShardedInferenceTest, AccumulateExcludesNumNodesAndWallTime) {
  InferenceStats a, b;
  a.num_nodes = 5;
  a.wall_time_ms = 1.5;
  a.propagation_macs = 10;
  b.num_nodes = 7;
  b.wall_time_ms = 2.5;
  b.propagation_macs = 32;
  a.Accumulate(b);
  EXPECT_EQ(a.num_nodes, 5);          // untouched, set once by the caller
  EXPECT_DOUBLE_EQ(a.wall_time_ms, 1.5);  // ditto
  EXPECT_EQ(a.propagation_macs, 42);
}

TEST(ShardedInferenceTest, EmptyQueryList) {
  auto w = MakeSmallWorld(2, models::ModelKind::kSgc, 120);
  ShardedNaiEngine sharded = MakeTestShardedEngine(w, 2);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  const InferenceResult r = sharded.Infer({}, cfg);
  EXPECT_TRUE(r.predictions.empty());
  EXPECT_TRUE(r.exit_depths.empty());
  EXPECT_EQ(r.stats.num_nodes, 0);
  EXPECT_EQ(r.stats.exits_at_depth.size(), 2u);  // t_max slots, all zero
  EXPECT_EQ(r.stats.propagation_macs, 0);
}

TEST(ShardedInferenceTest, QueryOutOfRangeThrows) {
  auto w = MakeSmallWorld(2, models::ModelKind::kSgc, 120);
  ShardedNaiEngine sharded = MakeTestShardedEngine(w, 2);
  InferenceConfig cfg;
  EXPECT_THROW(sharded.Infer({-1}, cfg), std::out_of_range);
  EXPECT_THROW(sharded.Infer({120}, cfg), std::out_of_range);
}

TEST(ShardedInferenceTest, InferMixedGroupsBitExact) {
  // Per-query-config serving: every config group must answer exactly like
  // the unsharded engine's per-config runs on the same nodes, scattered
  // back into caller order.
  auto w = MakeSmallWorld(kDepth);
  InferenceConfig speed;
  speed.nap = NapKind::kDistance;
  speed.relative_distance = true;
  speed.threshold = 0.3f;
  speed.t_max = 2;
  InferenceConfig full;
  full.nap = NapKind::kNone;
  full.t_max = 0;

  std::vector<ConfiguredQuery> queries;
  std::vector<std::int32_t> speed_nodes;
  std::vector<std::int32_t> full_nodes;
  for (const std::int32_t v : w.all_nodes) {
    const bool is_speed = v % 3 != 0;
    queries.push_back({v, is_speed ? &speed : &full});
    (is_speed ? speed_nodes : full_nodes).push_back(v);
  }
  NaiEngine plain = MakeTestEngine(w);
  const InferenceResult ref_speed = plain.Infer(speed_nodes, speed);
  const InferenceResult ref_full = plain.Infer(full_nodes, full);

  for (const int shards : {1, 2, 4}) {
    ShardedNaiEngine sharded = MakeTestShardedEngine(w, shards);
    const InferenceResult mixed = sharded.InferMixed(queries);
    ASSERT_EQ(mixed.predictions.size(), queries.size());
    std::size_t si = 0, fi = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const bool is_speed = w.all_nodes[i] % 3 != 0;
      const InferenceResult& ref = is_speed ? ref_speed : ref_full;
      const std::size_t j = is_speed ? si++ : fi++;
      EXPECT_EQ(mixed.predictions[i], ref.predictions[j])
          << "shards=" << shards << " query " << i;
      EXPECT_EQ(mixed.exit_depths[i], ref.exit_depths[j])
          << "shards=" << shards << " query " << i;
    }
    EXPECT_EQ(mixed.stats.num_nodes,
              static_cast<std::int64_t>(queries.size()));
  }
}

TEST(ShardedInferenceTest, InferMixedValidatesEveryConfig) {
  auto w = MakeSmallWorld(kDepth);
  ShardedNaiEngine sharded = MakeTestShardedEngine(w, 2);
  InferenceConfig plain;
  plain.nap = NapKind::kDistance;
  plain.t_max = 1;
  InferenceConfig int8;
  int8.nap = NapKind::kDistance;
  int8.int8_classifier = true;  // no quantized stack is attached
  // One offending config anywhere in the list rejects the whole call
  // before any shard runs.
  EXPECT_THROW(sharded.InferMixed({{0, &plain}, {1, &int8}}),
               std::invalid_argument);
  EXPECT_THROW(sharded.InferMixed({{0, &plain}, {1, nullptr}}),
               std::invalid_argument);
  InferenceConfig gated;
  gated.nap = NapKind::kGate;  // the engine was built without gates
  EXPECT_THROW(sharded.InferMixed({{0, &plain}, {1, &gated}}),
               std::invalid_argument);
  EXPECT_THROW(sharded.Infer({0}, gated), std::invalid_argument);
  // NAPd needs the stationary views a use_stationary = false engine skips.
  ShardedNaiEngine no_stationary(MakeTestSnapshot(w),
                                 graph::MakeShards(w.data.graph, 2),
                                 *w.classifiers, nullptr,
                                 /*use_stationary=*/false);
  EXPECT_THROW(no_stationary.InferMixed({{0, &plain}}), std::invalid_argument);
  const InferenceResult ok = sharded.InferMixed({{0, &plain}});
  EXPECT_EQ(ok.predictions.size(), 1u);
}

TEST(ShardedInferenceTest, MismatchedShardingRejected) {
  auto w = MakeSmallWorld(2, models::ModelKind::kSgc, 120);
  auto other = MakeSmallWorld(2, models::ModelKind::kSgc, 60);
  EXPECT_THROW(
      ShardedNaiEngine(MakeTestSnapshot(w),
                       graph::MakeShards(other.data.graph, 2),
                       *w.classifiers, nullptr),
      std::invalid_argument);
}

TEST(ShardedInferenceTest, AnyShardEngineServesAnyNodeBitExactly) {
  // The property the serving front-end rests on: every engine serves the
  // whole snapshot, so the pump that pops a request answers it
  // bit-identically to ShardedNaiEngine::Infer, predictions and exit depths
  // alike.
  auto w = MakeSmallWorld(kDepth);
  ShardedNaiEngine sharded = MakeTestShardedEngine(w, 4);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.relative_distance = true;
  cfg.threshold = 0.3f;
  cfg.t_max = 2;
  const InferenceResult ref = sharded.Infer(w.all_nodes, cfg);

  const auto state = sharded.PinState();
  ASSERT_EQ(state->engines.size(), sharded.num_shards());
  for (std::size_t s = 0; s < state->engines.size(); ++s) {
    const InferenceResult run = state->engines[s]->Infer(w.all_nodes, cfg);
    EXPECT_EQ(run.predictions, ref.predictions) << "engine " << s;
    EXPECT_EQ(run.exit_depths, ref.exit_depths) << "engine " << s;
  }
}

/// Every shard engine of `state` propagates over the snapshot's own
/// normalized adjacency, not a copy.
void ExpectEnginesShareSnapshotStores(const ShardedNaiEngine::ShardState& state,
                                      const std::string& label) {
  const graph::CsrView global = state.snapshot->norm_adj();
  for (std::size_t s = 0; s < state.engines.size(); ++s) {
    ASSERT_NE(state.engines[s], nullptr) << label << " shard " << s;
    const graph::CsrView local = state.engines[s]->norm_adj();
    EXPECT_EQ(local.row_ptr, global.row_ptr) << label << " shard " << s;
    EXPECT_EQ(local.col_idx, global.col_idx) << label << " shard " << s;
  }
}

graph::GraphDelta SmallDelta(const graph::GraphSnapshot& base) {
  const std::size_t f = base.features().cols();
  const std::int64_t n = base.graph().num_nodes();
  graph::GraphDelta delta;
  const std::int32_t a = delta.AddNode(std::vector<float>(f, 0.4f), n);
  const std::int32_t b = delta.AddNode(std::vector<float>(f, -0.7f), n);
  delta.AddEdge(a, 10);
  delta.AddEdge(a, 55);
  delta.AddEdge(b, a);
  delta.AddEdge(3, 200);
  delta.UpdateFeatures(42, std::vector<float>(f, 1.25f));
  return delta;
}

TEST(ShardedInferenceTest, ShardEnginesShareTheSnapshotStores) {
  auto w = MakeSmallWorld(kDepth);
  auto base = MakeTestSnapshot(w);
  for (const int shards : {1, 2, 3}) {
    const std::string label = "shards=" + std::to_string(shards);
    ShardedNaiEngine live(base, graph::MakeShards(base->adj(), shards),
                          *w.classifiers, nullptr);
    ExpectEnginesShareSnapshotStores(*live.PinState(), label);
    graph::SnapshotBuilder builder(base);
    live.SwapSnapshot(builder.Apply(SmallDelta(*base)));
    ExpectEnginesShareSnapshotStores(*live.PinState(), label + " post-swap");
  }
}

TEST(ShardedInferenceTest, SwapSnapshotMatchesFromScratchMergedEngine) {
  // The tentpole contract: after a swap, every query answers bit-identically
  // to a fresh engine built from scratch on the merged graph.
  auto w = MakeSmallWorld(kDepth);
  auto base = MakeTestSnapshot(w);
  const graph::GraphDelta delta = SmallDelta(*base);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.relative_distance = true;
  cfg.threshold = 0.3f;

  const auto merged = graph::MergeFromScratch(*base, {delta});
  std::vector<std::int32_t> all_merged(merged->num_nodes());
  std::iota(all_merged.begin(), all_merged.end(), 0);

  for (const int shards : {1, 2, 4}) {
    ShardedNaiEngine live(base, graph::MakeShards(base->adj(), shards),
                          *w.classifiers, nullptr);
    graph::SnapshotBuilder builder(base);
    live.SwapSnapshot(builder.Apply(delta));
    EXPECT_EQ(live.version(), 1u);

    NaiEngine reference = NaiEngine::FromSnapshot(merged, *w.classifiers);
    ExpectSameResult(live.Infer(all_merged, cfg),
                     reference.Infer(all_merged, cfg),
                     "post-swap shards=" + std::to_string(shards));
  }
}

TEST(ShardedInferenceTest, SwapKeepsPinnedStateUsable) {
  auto w = MakeSmallWorld(kDepth);
  auto base = MakeTestSnapshot(w);
  ShardedNaiEngine live(base, graph::MakeShards(base->adj(), 2),
                        *w.classifiers, nullptr);
  InferenceConfig cfg;
  cfg.t_max = 2;
  const auto pinned = live.PinState();
  const InferenceResult before = live.Infer(w.all_nodes, cfg);

  graph::SnapshotBuilder builder(base);
  live.SwapSnapshot(builder.Apply(SmallDelta(*base)));

  // The pinned pre-swap state still carries its engines and old sharding —
  // readers that pinned it mid-batch finish on the version they started on.
  EXPECT_EQ(pinned->version, 0u);
  EXPECT_EQ(pinned->sharded.owner.size(), w.all_nodes.size());
  ASSERT_EQ(pinned->engines.size(), 2u);
  const InferenceResult replay = pinned->engines[1]->Infer(w.all_nodes, cfg);
  EXPECT_EQ(replay.predictions, before.predictions);
  EXPECT_EQ(replay.exit_depths, before.exit_depths);

  // The new state partitions the grown graph over the same engine count.
  const auto now = live.PinState();
  EXPECT_EQ(static_cast<std::int64_t>(now->sharded.owner.size()),
            now->snapshot->num_nodes());
  EXPECT_EQ(now->sharded.num_shards(), 2u);
  EXPECT_EQ(now->engines.size(), 2u);
}

TEST(ShardedInferenceTest, SwapValidationThrows) {
  auto w = MakeSmallWorld(kDepth);
  auto base = MakeTestSnapshot(w);
  ShardedNaiEngine live(base, graph::MakeShards(base->adj(), 2),
                        *w.classifiers, nullptr);
  EXPECT_THROW(live.SwapSnapshot(nullptr), std::invalid_argument);
  // A shrinking snapshot (fewer nodes than currently served) is rejected.
  graph::GeneratorConfig small;
  small.num_nodes = 10;
  small.num_edges = 20;
  small.feature_dim = w.config.feature_dim;
  auto tiny = graph::GenerateDataset(small);
  EXPECT_THROW(live.SwapSnapshot(graph::MakeSnapshot(
                   std::move(tiny.graph), std::move(tiny.features),
                   w.config.gamma)),
               std::invalid_argument);
}

TEST(ShardedInferenceTest, NewNodesServedAfterSwap) {
  auto w = MakeSmallWorld(kDepth);
  auto base = MakeTestSnapshot(w);
  ShardedNaiEngine live(base, graph::MakeShards(base->adj(), 2),
                        *w.classifiers, nullptr);
  const std::int64_t n = base->num_nodes();
  graph::SnapshotBuilder builder(base);
  const auto merged = graph::MergeFromScratch(*base, {SmallDelta(*base)});
  live.SwapSnapshot(builder.Apply(SmallDelta(*base)));

  InferenceConfig cfg;
  cfg.t_max = 2;
  const std::vector<std::int32_t> fresh = {static_cast<std::int32_t>(n),
                                           static_cast<std::int32_t>(n + 1)};
  const InferenceResult got = live.Infer(fresh, cfg);
  NaiEngine reference = NaiEngine::FromSnapshot(merged, *w.classifiers);
  const InferenceResult want = reference.Infer(fresh, cfg);
  EXPECT_EQ(got.predictions, want.predictions);
  EXPECT_EQ(got.exit_depths, want.exit_depths);
}

}  // namespace
}  // namespace nai::core
