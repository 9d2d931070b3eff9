#include "src/core/inference.h"

#include <numeric>
#include <stdexcept>

#include "gtest/gtest.h"
#include "src/runtime/error.h"
#include "src/tensor/ops.h"
#include "tests/core/core_fixtures.h"

namespace nai::core {
namespace {

using nai::testing::MakeSmallWorld;
using nai::testing::MakeTestEngine;
using nai::testing::SmallWorld;

std::vector<std::int32_t> TransductivePredictions(SmallWorld& w, int depth) {
  const tensor::Matrix logits = w.classifiers->Logits(depth, w.all_feats);
  return tensor::ArgmaxRows(logits);
}

TEST(InferenceTest, VanillaMatchesTransductive) {
  // The batched online propagation must reproduce exactly the full-graph
  // (transductive) propagation for every node: this validates the layered
  // supporting-set machinery end to end.
  auto w = MakeSmallWorld(3);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kNone;
  cfg.batch_size = 64;
  const InferenceResult result = engine.Infer(w.all_nodes, cfg);
  EXPECT_EQ(result.predictions, TransductivePredictions(w, 3));
}

TEST(InferenceTest, VanillaMatchesTransductiveAllFamilies) {
  for (const auto kind :
       {models::ModelKind::kSign, models::ModelKind::kS2gc,
        models::ModelKind::kGamlp}) {
    auto w = MakeSmallWorld(2, kind, 250);
    NaiEngine engine = MakeTestEngine(w);
    InferenceConfig cfg;
    cfg.nap = NapKind::kNone;
    cfg.batch_size = 50;
    const InferenceResult result = engine.Infer(w.all_nodes, cfg);
    EXPECT_EQ(result.predictions, TransductivePredictions(w, 2))
        << models::ModelKindName(kind);
  }
}

TEST(InferenceTest, BatchSizeDoesNotChangePredictions) {
  auto w = MakeSmallWorld(3);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.3f;
  cfg.batch_size = 17;
  const auto small = engine.Infer(w.all_nodes, cfg);
  cfg.batch_size = 400;
  const auto large = engine.Infer(w.all_nodes, cfg);
  EXPECT_EQ(small.predictions, large.predictions);
}

TEST(InferenceTest, HugeThresholdExitsAtTmin) {
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 1e9f;
  cfg.t_min = 2;
  cfg.t_max = 4;
  const auto result = engine.Infer(w.all_nodes, cfg);
  EXPECT_EQ(result.stats.exits_at_depth[0], 0);  // nothing below t_min
  EXPECT_EQ(result.stats.exits_at_depth[1],
            static_cast<std::int64_t>(w.all_nodes.size()));
}

TEST(InferenceTest, ZeroThresholdGoesToTmax) {
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.0f;
  cfg.t_max = 3;
  const auto result = engine.Infer(w.all_nodes, cfg);
  EXPECT_EQ(result.stats.exits_at_depth[2],
            static_cast<std::int64_t>(w.all_nodes.size()));
  // And the predictions match the fixed-depth-3 transductive classifier.
  EXPECT_EQ(result.predictions, TransductivePredictions(w, 3));
}

TEST(InferenceTest, ExitsSumToNodeCount) {
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.5f;
  const auto result = engine.Infer(w.all_nodes, cfg);
  const std::int64_t total =
      std::accumulate(result.stats.exits_at_depth.begin(),
                      result.stats.exits_at_depth.end(), std::int64_t{0});
  EXPECT_EQ(total, static_cast<std::int64_t>(w.all_nodes.size()));
  for (const auto p : result.predictions) EXPECT_GE(p, 0);
}

TEST(InferenceTest, NapReducesPropagationWork) {
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig vanilla;
  vanilla.nap = NapKind::kNone;
  const auto base = engine.Infer(w.all_nodes, vanilla);

  InferenceConfig napd;
  napd.nap = NapKind::kDistance;
  napd.threshold = 1e9f;  // exit everything at depth 1
  napd.t_max = 2;
  const auto fast = engine.Infer(w.all_nodes, napd);
  EXPECT_LT(fast.stats.propagation_macs, base.stats.propagation_macs);
  EXPECT_LT(fast.stats.total_macs(), base.stats.total_macs());
}

TEST(InferenceTest, GateBasedInferenceRuns) {
  auto w = MakeSmallWorld(3);
  GateStack gates(3, w.config.feature_dim, 77);
  const tensor::Matrix stationary = w.stationary->RowsForNodes(w.all_nodes);
  GateTrainConfig gcfg;
  gcfg.epochs = 20;
  gates.Train(w.stack, stationary, *w.classifiers, w.all_nodes,
              w.data.labels, gcfg);

  NaiEngine engine = MakeTestEngine(w, {.gates = &gates});
  InferenceConfig cfg;
  cfg.nap = NapKind::kGate;
  const auto result = engine.Infer(w.all_nodes, cfg);
  EXPECT_EQ(result.predictions.size(), w.all_nodes.size());
  const std::int64_t total =
      std::accumulate(result.stats.exits_at_depth.begin(),
                      result.stats.exits_at_depth.end(), std::int64_t{0});
  EXPECT_EQ(total, static_cast<std::int64_t>(w.all_nodes.size()));
  EXPECT_GT(result.stats.nap_macs, 0);
}

TEST(InferenceTest, StatsCategoriesPopulated) {
  auto w = MakeSmallWorld(3);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.3f;
  const auto r = engine.Infer(w.all_nodes, cfg);
  EXPECT_GT(r.stats.propagation_macs, 0);
  EXPECT_GT(r.stats.stationary_macs, 0);
  EXPECT_GT(r.stats.nap_macs, 0);
  EXPECT_GT(r.stats.classification_macs, 0);
  EXPECT_EQ(r.stats.total_macs(),
            r.stats.propagation_macs + r.stats.nap_macs +
                r.stats.stationary_macs + r.stats.classification_macs);
  EXPECT_GE(r.stats.average_depth(), 1.0);
  EXPECT_LE(r.stats.average_depth(), 3.0);
}

TEST(InferenceTest, SubsetOfNodesOnly) {
  auto w = MakeSmallWorld(3);
  NaiEngine engine = MakeTestEngine(w);
  const std::vector<std::int32_t> subset = {5, 17, 200, 399};
  InferenceConfig cfg;
  cfg.nap = NapKind::kNone;
  const auto r = engine.Infer(subset, cfg);
  ASSERT_EQ(r.predictions.size(), 4u);
  const auto full = TransductivePredictions(w, 3);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    EXPECT_EQ(r.predictions[i], full[subset[i]]);
  }
}

TEST(InferenceTest, TminOneTmaxOne) {
  auto w = MakeSmallWorld(3);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.t_max = 1;
  const auto r = engine.Infer(w.all_nodes, cfg);
  EXPECT_EQ(r.stats.exits_at_depth[0],
            static_cast<std::int64_t>(w.all_nodes.size()));
  EXPECT_EQ(r.predictions, TransductivePredictions(w, 1));
}

TEST(InferenceTest, InferMixedMatchesPerConfigInferCalls) {
  // The per-query-config entry point groups queries by config identity;
  // each group must answer bit-identically to a direct Infer of that
  // group's node list, scattered back into caller order, with the groups'
  // counters merged.
  auto w = MakeSmallWorld(3, models::ModelKind::kSgc, 200);
  NaiEngine engine = MakeTestEngine(w);
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
  for (std::int32_t v = 0; v < 100; ++v) {
    const bool is_speed = v % 2 == 0;
    queries.push_back({v, is_speed ? &speed : &full});
    (is_speed ? speed_nodes : full_nodes).push_back(v);
  }
  const auto mixed = engine.InferMixed(queries);
  const auto ref_speed = engine.Infer(speed_nodes, speed);
  const auto ref_full = engine.Infer(full_nodes, full);

  ASSERT_EQ(mixed.predictions.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const bool is_speed = i % 2 == 0;
    const auto& ref = is_speed ? ref_speed : ref_full;
    const std::size_t j = i / 2;
    EXPECT_EQ(mixed.predictions[i], ref.predictions[j]) << "query " << i;
    EXPECT_EQ(mixed.exit_depths[i], ref.exit_depths[j]) << "query " << i;
  }
  EXPECT_EQ(mixed.stats.num_nodes, static_cast<std::int64_t>(queries.size()));
  EXPECT_EQ(mixed.stats.propagation_macs,
            ref_speed.stats.propagation_macs +
                ref_full.stats.propagation_macs);
  EXPECT_EQ(mixed.stats.classification_macs,
            ref_speed.stats.classification_macs +
                ref_full.stats.classification_macs);
  // The merged exit histogram covers the deeper group's depth range.
  ASSERT_EQ(mixed.stats.exits_at_depth.size(),
            ref_full.stats.exits_at_depth.size());
}

TEST(InferenceTest, InferMixedSingleConfigEqualsInfer) {
  auto w = MakeSmallWorld(3, models::ModelKind::kSgc, 200);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.4f;
  std::vector<ConfiguredQuery> queries;
  for (const std::int32_t v : w.all_nodes) queries.push_back({v, &cfg});
  const auto mixed = engine.InferMixed(queries);
  const auto ref = engine.Infer(w.all_nodes, cfg);
  EXPECT_EQ(mixed.predictions, ref.predictions);
  EXPECT_EQ(mixed.exit_depths, ref.exit_depths);
  EXPECT_EQ(mixed.stats.propagation_macs, ref.stats.propagation_macs);
  EXPECT_EQ(mixed.stats.exits_at_depth, ref.stats.exits_at_depth);
}

TEST(InferenceTest, InferMixedNullConfigThrows) {
  auto w = MakeSmallWorld(2, models::ModelKind::kSgc, 120);
  NaiEngine engine = MakeTestEngine(w);
  EXPECT_THROW(engine.InferMixed({{0, nullptr}}), std::invalid_argument);
}

TEST(InferenceTest, QueryOrderPermutesResultsConsistently) {
  // The engine must report predictions aligned with the query order, so a
  // permuted query returns the same per-node answers.
  auto w = MakeSmallWorld(3, models::ModelKind::kSgc, 200);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.4f;
  const std::vector<std::int32_t> fwd = {3, 40, 77, 150, 199};
  const std::vector<std::int32_t> rev = {199, 150, 77, 40, 3};
  const auto a = engine.Infer(fwd, cfg);
  const auto b = engine.Infer(rev, cfg);
  ASSERT_EQ(a.predictions.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.predictions[i], b.predictions[4 - i]) << "node " << fwd[i];
    EXPECT_EQ(a.exit_depths[i], b.exit_depths[4 - i]) << "node " << fwd[i];
  }
}

void ExpectSameAnswers(const InferenceResult& got, const InferenceResult& want,
                       const std::string& label) {
  EXPECT_EQ(got.predictions, want.predictions) << label;
  EXPECT_EQ(got.exit_depths, want.exit_depths) << label;
  EXPECT_EQ(got.stats.propagation_macs, want.stats.propagation_macs) << label;
  EXPECT_EQ(got.stats.exits_at_depth, want.stats.exits_at_depth) << label;
}

TEST(InferenceTest, AlternatingDepthsMatchFreshEngines) {
  // One engine's batch scratch serves a shallow class, then a deep one,
  // then the shallow one again: per-level state sized for one T_max must
  // never leak into the next batch.
  auto w = MakeSmallWorld(5);
  NaiEngine shared = MakeTestEngine(w);
  InferenceConfig speed;
  speed.nap = NapKind::kDistance;
  speed.relative_distance = true;
  speed.threshold = 0.3f;
  speed.t_max = 2;
  InferenceConfig accuracy = speed;
  accuracy.t_max = 5;
  accuracy.threshold = 0.1f;
  const std::vector<std::int32_t> nodes = {3, 40, 77, 150, 199, 260, 333};
  for (const std::size_t bs : {std::size_t{1}, std::size_t{4}}) {
    speed.batch_size = bs;
    accuracy.batch_size = bs;
    const InferenceResult a = shared.Infer(nodes, speed);
    const InferenceResult b = shared.Infer(nodes, accuracy);
    const InferenceResult c = shared.Infer(nodes, speed);
    NaiEngine fresh_speed = MakeTestEngine(w);
    NaiEngine fresh_accuracy = MakeTestEngine(w);
    const InferenceResult want_speed = fresh_speed.Infer(nodes, speed);
    const std::string at = " bs=" + std::to_string(bs);
    ExpectSameAnswers(a, want_speed, "speed first" + at);
    ExpectSameAnswers(b, fresh_accuracy.Infer(nodes, accuracy),
                      "accuracy" + at);
    ExpectSameAnswers(c, want_speed, "speed again" + at);
  }
}

TEST(InferenceTest, OutOfRangeIdThrowsAndEngineStaysUsable) {
  auto w = MakeSmallWorld(3, models::ModelKind::kSgc, 200);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.4f;
  cfg.batch_size = 2;
  const std::vector<std::int32_t> good = {5, 17, 150, 199};
  // The bad id sits in the second batch, after one batch has run.
  EXPECT_THROW(engine.Infer({5, 17, 150, 200}, cfg), nai::ValidationError);
  EXPECT_THROW(engine.Infer({-1}, cfg), nai::ValidationError);
  // NAPg with no gates attached, and NAPd/NAPg with no stationary state:
  // rejected before any batch runs.
  InferenceConfig gated = cfg;
  gated.nap = NapKind::kGate;
  EXPECT_THROW(engine.Infer(good, gated), nai::ValidationError);
  NaiEngine no_stationary = MakeTestEngine(w, {.use_stationary = false});
  EXPECT_THROW(no_stationary.Infer(good, cfg), nai::ValidationError);
  InferenceConfig vanilla = cfg;
  vanilla.nap = NapKind::kNone;
  EXPECT_EQ(no_stationary.Infer(good, vanilla).predictions.size(),
            good.size());
  NaiEngine fresh = MakeTestEngine(w);
  ExpectSameAnswers(engine.Infer(good, cfg), fresh.Infer(good, cfg),
                    "after throw");
}

}  // namespace
}  // namespace nai::core
