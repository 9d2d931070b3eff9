// Smoke test for the full Algorithm-1 pipeline on a small synthetic world:
// generate graph -> precompute (normalized adjacency, propagated stack,
// stationary state, trained classifier bank) -> NAPd online inference ->
// sanity-check the cost/behaviour counters. Fast enough for every CI run;
// the heavyweight accuracy checks live in end_to_end_test.cc.

#include <cstdint>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/classifier_stack.h"
#include "src/core/distillation.h"
#include "src/core/inference.h"
#include "src/graph/delta.h"
#include "src/graph/generators.h"
#include "src/graph/normalize.h"
#include "src/models/scalable_gnn.h"

namespace nai {
namespace {

constexpr std::int64_t kNumNodes = 200;
constexpr int kDepth = 3;

struct Pipeline {
  graph::SyntheticDataset data;
  /// Graph, features, normalized adjacency and pooled X^(inf) vector.
  std::shared_ptr<const graph::GraphSnapshot> snapshot;
  std::unique_ptr<core::ClassifierStack> classifiers;
  std::vector<std::int32_t> all_nodes;
};

Pipeline BuildPipeline() {
  Pipeline p;

  // Step 1: generate a degree-heterogeneous homophilous graph.
  graph::GeneratorConfig gcfg;
  gcfg.num_nodes = kNumNodes;
  gcfg.num_edges = kNumNodes * 5;
  gcfg.num_classes = 3;
  gcfg.feature_dim = 10;
  gcfg.homophily = 0.85f;
  gcfg.seed = 2024;
  p.data = graph::GenerateDataset(gcfg);

  // Step 2: offline precomputation — propagated feature stack X^(0..k),
  // stationary state X^(inf), and a trained per-depth classifier bank.
  models::ModelConfig mcfg;
  mcfg.kind = models::ModelKind::kSgc;
  mcfg.depth = kDepth;
  mcfg.gamma = 0.5f;
  mcfg.feature_dim = gcfg.feature_dim;
  mcfg.num_classes = gcfg.num_classes;
  mcfg.hidden_dims = {16};
  mcfg.dropout = 0.0f;

  const graph::Csr norm_adj =
      graph::NormalizedAdjacency(p.data.graph, mcfg.gamma);
  p.snapshot = graph::MakeSnapshot(p.data.graph, p.data.features, mcfg.gamma);
  p.classifiers = std::make_unique<core::ClassifierStack>(mcfg, 11);

  for (std::int64_t i = 0; i < kNumNodes; ++i) {
    p.all_nodes.push_back(static_cast<std::int32_t>(i));
  }

  core::GatheredStack feats;
  feats.mats = models::PropagateStack(norm_adj, p.data.features, kDepth);
  core::DistillConfig dcfg;
  dcfg.base_epochs = 40;
  dcfg.enable_single = false;
  dcfg.enable_multi = false;
  core::InceptionDistillation distiller(*p.classifiers, dcfg);
  distiller.TrainAll(feats, p.data.labels, p.all_nodes);
  return p;
}

TEST(Algorithm1SmokeTest, NapdPipelineRunsAndStatsAreSane) {
  Pipeline p = BuildPipeline();

  // Step 3: NAPd online inference over every node.
  core::NaiEngine engine =
      core::NaiEngine::FromSnapshot(p.snapshot, *p.classifiers);
  core::InferenceConfig icfg;
  icfg.nap = core::NapKind::kDistance;
  icfg.relative_distance = true;
  icfg.threshold = 0.5f;
  icfg.t_min = 1;
  icfg.t_max = kDepth;
  icfg.batch_size = 64;
  const core::InferenceResult r = engine.Infer(p.all_nodes, icfg);

  // Step 4: stats sanity.
  ASSERT_EQ(r.predictions.size(), p.all_nodes.size());
  ASSERT_EQ(r.exit_depths.size(), p.all_nodes.size());
  EXPECT_EQ(r.stats.num_nodes, kNumNodes);
  EXPECT_GT(r.stats.propagation_macs, 0);
  EXPECT_GT(r.stats.classification_macs, 0);
  EXPECT_GT(r.stats.total_macs(), r.stats.propagation_macs);

  // Every node exits within [t_min, t_max] and gets a valid class.
  for (std::size_t i = 0; i < r.predictions.size(); ++i) {
    EXPECT_GE(r.exit_depths[i], icfg.t_min);
    EXPECT_LE(r.exit_depths[i], icfg.t_max);
    EXPECT_GE(r.predictions[i], 0);
    EXPECT_LT(r.predictions[i], p.data.num_classes);
  }

  // The per-depth exit histogram covers all queried nodes.
  ASSERT_EQ(r.stats.exits_at_depth.size(), static_cast<std::size_t>(kDepth));
  std::int64_t exited = 0;
  for (const std::int64_t count : r.stats.exits_at_depth) exited += count;
  EXPECT_EQ(exited, kNumNodes);

  const double avg_depth = r.stats.average_depth();
  EXPECT_GE(avg_depth, static_cast<double>(icfg.t_min));
  EXPECT_LE(avg_depth, static_cast<double>(icfg.t_max));
}

TEST(Algorithm1SmokeTest, NapdSavesWorkVersusFixedDepth) {
  Pipeline p = BuildPipeline();
  core::NaiEngine engine =
      core::NaiEngine::FromSnapshot(p.snapshot, *p.classifiers);

  core::InferenceConfig fixed;
  fixed.nap = core::NapKind::kNone;
  fixed.t_max = kDepth;
  const auto full = engine.Infer(p.all_nodes, fixed);

  core::InferenceConfig napd;
  napd.nap = core::NapKind::kDistance;
  napd.relative_distance = true;
  napd.threshold = 1.0f;  // aggressive early exit
  napd.t_max = kDepth;
  const auto adaptive = engine.Infer(p.all_nodes, napd);

  // With an aggressive threshold some nodes exit before t_max, so online
  // propagation work can only shrink.
  EXPECT_LE(adaptive.stats.propagation_macs, full.stats.propagation_macs);
  EXPECT_LE(adaptive.stats.average_depth(), full.stats.average_depth());
}

}  // namespace
}  // namespace nai
