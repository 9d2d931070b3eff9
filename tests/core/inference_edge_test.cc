// Edge-case and property tests for the inference engine: isolated nodes,
// single-node batches, determinism, and a parameterized sweep over the
// (T_min, T_max) window.

#include <numeric>

#include "gtest/gtest.h"
#include "src/core/inference.h"
#include "src/tensor/ops.h"
#include "tests/core/core_fixtures.h"
#include "tests/test_util.h"

namespace nai::core {
namespace {

using nai::testing::MakeSmallWorld;
using nai::testing::MakeTestEngine;

TEST(InferenceEdgeTest, IsolatedNodeIsClassified) {
  // A graph with an isolated node: its supporting set is just itself (the
  // self-loop), every hop is an identity-ish update, and the engine must
  // still classify it.
  graph::Graph g = graph::Graph::FromEdges(6, {{0, 1}, {1, 2}, {2, 3},
                                               {3, 4}});  // node 5 isolated
  tensor::Matrix x = nai::testing::RandomMatrix(6, 8, 3);
  models::ModelConfig cfg;
  cfg.kind = models::ModelKind::kSgc;
  cfg.depth = 3;
  cfg.feature_dim = 8;
  cfg.num_classes = 2;
  cfg.hidden_dims = {4};
  cfg.dropout = 0.0f;
  ClassifierStack classifiers(cfg, 5);
  NaiEngine engine =
      NaiEngine::FromSnapshot(graph::MakeSnapshot(g, x, 0.5f), classifiers);

  InferenceConfig icfg;
  icfg.nap = NapKind::kDistance;
  icfg.threshold = 0.5f;
  const auto r = engine.Infer({5}, icfg);
  ASSERT_EQ(r.predictions.size(), 1u);
  EXPECT_GE(r.predictions[0], 0);
  EXPECT_LT(r.predictions[0], 2);
}

TEST(InferenceEdgeTest, TMaxZeroMeansUseClassifierDepth) {
  // InferenceConfig documents t_max = 0 as "use k" (the classifier bank's
  // depth). An explicit t_max = k run must be indistinguishable.
  auto w = MakeSmallWorld(3);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig zero;
  zero.nap = NapKind::kDistance;
  zero.relative_distance = true;
  zero.threshold = 0.5f;
  zero.t_max = 0;
  const auto implicit_k = engine.Infer(w.all_nodes, zero);

  InferenceConfig explicit_cfg = zero;
  explicit_cfg.t_max = 3;
  const auto explicit_k = engine.Infer(w.all_nodes, explicit_cfg);

  EXPECT_EQ(implicit_k.stats.exits_at_depth.size(), 3u);
  EXPECT_EQ(implicit_k.predictions, explicit_k.predictions);
  EXPECT_EQ(implicit_k.exit_depths, explicit_k.exit_depths);
  EXPECT_EQ(implicit_k.stats.propagation_macs,
            explicit_k.stats.propagation_macs);
}

TEST(InferenceEdgeTest, BatchSizeLargerThanNodeCount) {
  // A batch size far beyond the query count must behave exactly like one
  // batch holding every node.
  auto w = MakeSmallWorld(3, models::ModelKind::kSgc, 150);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.3f;
  cfg.batch_size = 100000;  // >> 150 nodes
  const auto huge = engine.Infer(w.all_nodes, cfg);
  cfg.batch_size = w.all_nodes.size();
  const auto exact = engine.Infer(w.all_nodes, cfg);
  ASSERT_EQ(huge.predictions.size(), w.all_nodes.size());
  EXPECT_EQ(huge.predictions, exact.predictions);
  EXPECT_EQ(huge.stats.propagation_macs, exact.stats.propagation_macs);
}

TEST(InferenceEdgeTest, EdgelessGraphClassifiesEveryNode) {
  // A graph with no edges at all: every supporting set degenerates to the
  // node itself and propagation must still terminate and classify.
  const std::int64_t n = 12;
  graph::Graph g = graph::Graph::FromEdges(n, {});
  tensor::Matrix x = nai::testing::RandomMatrix(n, 8, 17);
  models::ModelConfig cfg;
  cfg.kind = models::ModelKind::kSgc;
  cfg.depth = 2;
  cfg.feature_dim = 8;
  cfg.num_classes = 3;
  cfg.hidden_dims = {4};
  cfg.dropout = 0.0f;
  ClassifierStack classifiers(cfg, 5);
  NaiEngine engine =
      NaiEngine::FromSnapshot(graph::MakeSnapshot(g, x, 0.5f), classifiers);

  InferenceConfig icfg;
  icfg.nap = NapKind::kDistance;
  icfg.threshold = 0.5f;
  std::vector<std::int32_t> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);
  const auto r = engine.Infer(nodes, icfg);
  ASSERT_EQ(r.predictions.size(), nodes.size());
  for (const std::int32_t pred : r.predictions) {
    EXPECT_GE(pred, 0);
    EXPECT_LT(pred, 3);
  }
  EXPECT_EQ(r.stats.num_nodes, n);
}

TEST(InferenceEdgeTest, EmptyNodeList) {
  // Zero batches (degenerate-split serving paths hit this when a tiny
  // graph leaves the test set empty): nothing runs, the histogram still
  // has its t_max slots.
  auto w = MakeSmallWorld(2, models::ModelKind::kSgc, 100);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  const auto r = engine.Infer({}, cfg);
  EXPECT_TRUE(r.predictions.empty());
  EXPECT_TRUE(r.exit_depths.empty());
  EXPECT_EQ(r.stats.num_nodes, 0);
  EXPECT_EQ(r.stats.exits_at_depth,
            (std::vector<std::int64_t>{0, 0}));  // t_max slots, all zero
  EXPECT_EQ(r.stats.propagation_macs, 0);
}

TEST(InferenceEdgeTest, SingleNodeBatches) {
  auto w = MakeSmallWorld(3, models::ModelKind::kSgc, 150);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.3f;
  cfg.batch_size = 1;  // every node alone
  const std::vector<std::int32_t> nodes = {0, 50, 149};
  const auto singles = engine.Infer(nodes, cfg);
  cfg.batch_size = 3;
  const auto together = engine.Infer(nodes, cfg);
  EXPECT_EQ(singles.predictions, together.predictions);
}

TEST(InferenceEdgeTest, RepeatedRunsDeterministic) {
  auto w = MakeSmallWorld(3);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.4f;
  const auto a = engine.Infer(w.all_nodes, cfg);
  const auto b = engine.Infer(w.all_nodes, cfg);
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.stats.propagation_macs, b.stats.propagation_macs);
  EXPECT_EQ(a.stats.exits_at_depth, b.stats.exits_at_depth);
}

// Property sweep over the depth window: exits land inside [T_min, T_max],
// sum to the node count, and propagation work is monotone in T_max when
// nothing exits early (threshold 0).
class DepthWindow : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DepthWindow, ExitsRespectWindow) {
  const auto [t_min, t_max] = GetParam();
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.5f;
  cfg.relative_distance = true;
  cfg.t_min = t_min;
  cfg.t_max = t_max;
  const auto r = engine.Infer(w.all_nodes, cfg);

  std::int64_t total = 0;
  for (int l = 1; l <= static_cast<int>(r.stats.exits_at_depth.size()); ++l) {
    const std::int64_t count = r.stats.exits_at_depth[l - 1];
    total += count;
    if (l < t_min || l > t_max) {
      EXPECT_EQ(count, 0) << "exit outside window at depth " << l;
    }
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(w.all_nodes.size()));
  EXPECT_GE(r.stats.average_depth(), static_cast<double>(t_min));
  EXPECT_LE(r.stats.average_depth(), static_cast<double>(t_max));
}

INSTANTIATE_TEST_SUITE_P(
    Windows, DepthWindow,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(1, 2),
                      std::make_tuple(2, 3), std::make_tuple(1, 4),
                      std::make_tuple(3, 4), std::make_tuple(4, 4)));

// Monotonicity: with no early exits, deeper T_max costs strictly more
// propagation.
TEST(InferenceEdgeTest, PropagationMonotoneInDepth) {
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  std::int64_t prev = 0;
  for (int t_max = 1; t_max <= 4; ++t_max) {
    InferenceConfig cfg;
    cfg.nap = NapKind::kNone;
    cfg.t_max = t_max;
    const auto r = engine.Infer(w.all_nodes, cfg);
    EXPECT_GT(r.stats.propagation_macs, prev);
    prev = r.stats.propagation_macs;
  }
}

// Threshold monotonicity: larger T_s never increases the average depth.
TEST(InferenceEdgeTest, ThresholdMonotone) {
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  double prev_depth = 1e9;
  for (const float ts : {0.01f, 0.2f, 0.5f, 1.0f, 10.0f}) {
    InferenceConfig cfg;
    cfg.nap = NapKind::kDistance;
    cfg.relative_distance = true;
    cfg.threshold = ts;
    const auto r = engine.Infer(w.all_nodes, cfg);
    EXPECT_LE(r.stats.average_depth(), prev_depth + 1e-9);
    prev_depth = r.stats.average_depth();
  }
}

}  // namespace
}  // namespace nai::core

namespace nai::core {
namespace {

TEST(InferenceTraceTest, ExitDepthsConsistentWithHistogram) {
  auto w = nai::testing::MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.relative_distance = true;
  cfg.threshold = 0.5f;
  const auto r = engine.Infer(w.all_nodes, cfg);
  ASSERT_EQ(r.exit_depths.size(), w.all_nodes.size());
  std::vector<std::int64_t> histogram(r.stats.exits_at_depth.size(), 0);
  for (const std::int32_t d : r.exit_depths) {
    ASSERT_GE(d, 1);
    ASSERT_LE(d, 4);
    ++histogram[d - 1];
  }
  EXPECT_EQ(histogram, r.stats.exits_at_depth);
}

TEST(InferenceTraceTest, FixedDepthTraceIsUniform) {
  auto w = nai::testing::MakeSmallWorld(3);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kNone;
  cfg.t_max = 2;
  const auto r = engine.Infer(w.all_nodes, cfg);
  for (const std::int32_t d : r.exit_depths) EXPECT_EQ(d, 2);
}

}  // namespace
}  // namespace nai::core

namespace nai::core {
namespace {

TEST(InferenceEdgeTest, DepthOnePipeline) {
  auto w = nai::testing::MakeSmallWorld(1, models::ModelKind::kSgc, 150);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;  // no decision hops exist at k = 1
  const auto r = engine.Infer(w.all_nodes, cfg);
  EXPECT_EQ(r.stats.exits_at_depth.size(), 1u);
  EXPECT_EQ(r.stats.exits_at_depth[0],
            static_cast<std::int64_t>(w.all_nodes.size()));
}

}  // namespace
}  // namespace nai::core
