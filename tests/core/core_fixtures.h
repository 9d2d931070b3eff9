#ifndef NAI_TESTS_CORE_CORE_FIXTURES_H_
#define NAI_TESTS_CORE_CORE_FIXTURES_H_

#include <memory>
#include <vector>

#include "src/core/classifier_stack.h"
#include "src/core/distillation.h"
#include "src/core/inference.h"
#include "src/core/sharded_inference.h"
#include "src/core/stationary.h"
#include "src/graph/delta.h"
#include "src/graph/generators.h"
#include "src/graph/normalize.h"
#include "src/graph/shard.h"
#include "src/models/scalable_gnn.h"

namespace nai::testing {

/// A small transductive fixture: generated graph, propagated stack over the
/// whole graph, stationary state, and a CE-trained classifier bank. Enough
/// for unit-testing the NAI components without the full harness.
struct SmallWorld {
  graph::SyntheticDataset data;
  models::ModelConfig config;
  graph::Csr norm_adj;
  std::vector<tensor::Matrix> stack;
  std::unique_ptr<core::StationaryState> stationary;
  std::unique_ptr<core::ClassifierStack> classifiers;
  /// INT8 twin of the bank, quantized after training — what engines under
  /// test serve int8_classifier / kThroughputFirst configs with.
  std::unique_ptr<core::QuantizedClassifierStack> quantized;
  std::vector<std::int32_t> all_nodes;
  core::GatheredStack all_feats;
};

inline SmallWorld MakeSmallWorld(int depth = 3,
                                 models::ModelKind kind = models::ModelKind::kSgc,
                                 std::int64_t num_nodes = 400,
                                 int train_epochs = 60) {
  SmallWorld w;
  graph::GeneratorConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.num_edges = num_nodes * 5;
  cfg.num_classes = 4;
  cfg.feature_dim = 12;
  cfg.homophily = 0.85f;
  cfg.feature_noise = 2.0f;
  cfg.seed = 123;
  w.data = graph::GenerateDataset(cfg);

  w.config.kind = kind;
  w.config.depth = depth;
  w.config.gamma = 0.5f;
  w.config.feature_dim = cfg.feature_dim;
  w.config.num_classes = cfg.num_classes;
  w.config.hidden_dims = {16};
  w.config.dropout = 0.0f;

  w.norm_adj = graph::NormalizedAdjacency(w.data.graph, w.config.gamma);
  w.stack = models::PropagateStack(w.norm_adj, w.data.features, depth);
  w.stationary = std::make_unique<core::StationaryState>(
      w.data.graph, w.data.features, w.config.gamma);
  w.classifiers = std::make_unique<core::ClassifierStack>(w.config, 9);

  for (std::int64_t i = 0; i < num_nodes; ++i) {
    w.all_nodes.push_back(static_cast<std::int32_t>(i));
  }
  w.all_feats.mats = w.stack;

  core::DistillConfig dcfg;
  dcfg.base_epochs = train_epochs;
  dcfg.single_epochs = 0;
  dcfg.multi_epochs = 0;
  dcfg.enable_single = false;
  dcfg.enable_multi = false;
  core::InceptionDistillation distiller(*w.classifiers, dcfg);
  distiller.TrainAll(w.all_feats, w.data.labels, w.all_nodes);
  w.quantized =
      std::make_unique<core::QuantizedClassifierStack>(*w.classifiers);
  return w;
}

/// Version-0 in-memory snapshot of the world's graph and features.
inline std::shared_ptr<const graph::GraphSnapshot> MakeTestSnapshot(
    const SmallWorld& w) {
  return graph::MakeSnapshot(w.data.graph, w.data.features, w.config.gamma);
}

/// Engine over MakeTestSnapshot(w) with the world's float classifier bank.
inline core::NaiEngine MakeTestEngine(const SmallWorld& w,
                                      core::EngineOptions options = {}) {
  return core::NaiEngine::FromSnapshot(MakeTestSnapshot(w), *w.classifiers,
                                       options);
}

/// Sharded engine over MakeTestSnapshot(w): `num_shards` balanced shards
/// with a `halo_hops`-hop halo.
inline core::ShardedNaiEngine MakeTestShardedEngine(
    const SmallWorld& w, int num_shards, int halo_hops,
    const core::GateStack* gates = nullptr, int total_threads = 0) {
  return core::ShardedNaiEngine(
      MakeTestSnapshot(w),
      graph::MakeShards(w.data.graph, num_shards, halo_hops), *w.classifiers,
      gates, /*use_stationary=*/true, total_threads);
}

}  // namespace nai::testing

#endif  // NAI_TESTS_CORE_CORE_FIXTURES_H_
