#include "src/io/checkpoint.h"

#include <sstream>

#include "gtest/gtest.h"
#include "src/core/inference.h"
#include "src/runtime/error.h"
#include "src/storage/mem_store.h"
#include "src/tensor/ops.h"
#include "tests/core/core_fixtures.h"
#include "tests/test_util.h"

namespace nai::io {
namespace {

using nai::testing::MakeSmallWorld;
using nai::testing::MakeTestEngine;

TEST(CheckpointTest, ClassifierStackRoundTrip) {
  auto w = MakeSmallWorld(3);
  std::stringstream ss;
  SaveClassifierStack(ss, *w.classifiers);

  // A freshly initialized bank predicts differently; after loading it must
  // agree exactly with the trained one.
  core::ClassifierStack fresh(w.config, 999);
  const tensor::Matrix trained_logits = w.classifiers->Logits(3, w.all_feats);
  EXPECT_GT(trained_logits.CountDifferences(fresh.Logits(3, w.all_feats),
                                            1e-6f),
            0u);
  LoadClassifierStack(ss, fresh);
  for (int l = 1; l <= 3; ++l) {
    const tensor::Matrix a = w.classifiers->Logits(l, w.all_feats);
    const tensor::Matrix b = fresh.Logits(l, w.all_feats);
    EXPECT_EQ(a.CountDifferences(b, 0.0f), 0u) << "depth " << l;
  }
}

TEST(CheckpointTest, ClassifierDepthMismatchRejected) {
  auto w = MakeSmallWorld(3);
  std::stringstream ss;
  SaveClassifierStack(ss, *w.classifiers);
  models::ModelConfig other = w.config;
  other.depth = 2;
  core::ClassifierStack shallow(other, 1);
  EXPECT_THROW(LoadClassifierStack(ss, shallow), std::runtime_error);
}

TEST(CheckpointTest, ClassifierShapeMismatchRejected) {
  auto w = MakeSmallWorld(2);
  std::stringstream ss;
  SaveClassifierStack(ss, *w.classifiers);
  models::ModelConfig other = w.config;
  other.hidden_dims = {32};  // different classifier width
  core::ClassifierStack wrong(other, 1);
  EXPECT_THROW(LoadClassifierStack(ss, wrong), std::runtime_error);
}

TEST(CheckpointTest, LoadClassifierStackIsAllOrNothing) {
  // A stream cut inside the last head must leave every head as it was,
  // bit for bit: nothing is assigned until every tensor has parsed.
  auto w = MakeSmallWorld(3);
  std::stringstream saved;
  SaveClassifierStack(saved, *w.classifiers);
  std::string bytes = saved.str();
  bytes.resize(bytes.size() - 8);
  std::stringstream truncated(bytes);

  core::ClassifierStack target(w.config, 999);
  std::vector<tensor::Matrix> before;
  for (int l = 1; l <= 3; ++l) {
    for (const nn::Parameter* p : target.HeadParameters(l)) {
      before.push_back(p->value);
    }
  }
  EXPECT_THROW(LoadClassifierStack(truncated, target), IoError);
  std::size_t i = 0;
  for (int l = 1; l <= 3; ++l) {
    for (const nn::Parameter* p : target.HeadParameters(l)) {
      EXPECT_EQ(p->value.CountDifferences(before[i++], 0.0f), 0u)
          << "head " << l;
    }
  }
}

TEST(CheckpointTest, GateStackRoundTrip) {
  core::GateStack gates(4, 8, 7);
  std::stringstream ss;
  SaveGateStack(ss, gates);
  core::GateStack other(4, 8, 1234);  // different init
  const tensor::Matrix x = nai::testing::RandomMatrix(6, 8, 2);
  const tensor::Matrix xi = nai::testing::RandomMatrix(6, 8, 3);
  EXPECT_GT(gates.Preference(1, x, xi).CountDifferences(
                other.Preference(1, x, xi), 1e-6f),
            0u);
  LoadGateStack(ss, other);
  for (int l = 1; l < 4; ++l) {
    EXPECT_EQ(gates.Preference(l, x, xi).CountDifferences(
                  other.Preference(l, x, xi), 0.0f),
              0u);
  }
}

TEST(CheckpointTest, StationaryStateRoundTrip) {
  auto w = MakeSmallWorld(2, models::ModelKind::kSgc, 150);
  std::stringstream ss;
  SaveStationaryState(ss, *w.stationary);
  const core::StationaryState loaded =
      LoadStationaryState(ss, w.data.graph);
  EXPECT_FLOAT_EQ(loaded.gamma(), w.stationary->gamma());
  const tensor::Matrix a = w.stationary->RowsForNodes({0, 7, 33});
  const tensor::Matrix b = loaded.RowsForNodes({0, 7, 33});
  EXPECT_EQ(a.CountDifferences(b, 0.0f), 0u);
}

TEST(CheckpointTest, FullDeploymentRoundTrip) {
  // Save everything, reload into fresh objects, and verify the engine
  // produces identical predictions — the "restart the serving process"
  // scenario.
  auto w = MakeSmallWorld(3);
  std::stringstream cls_ss, st_ss;
  SaveClassifierStack(cls_ss, *w.classifiers);
  SaveStationaryState(st_ss, *w.stationary);

  core::ClassifierStack loaded_cls(w.config, 5555);
  LoadClassifierStack(cls_ss, loaded_cls);
  const core::StationaryState loaded_st =
      LoadStationaryState(st_ss, w.data.graph);

  core::NaiEngine original = MakeTestEngine(w);
  auto store = std::make_shared<storage::MemStore>(
      w.data.graph, w.data.features, w.config.gamma, w.norm_adj,
      loaded_st.pooled());
  core::NaiEngine restored = core::NaiEngine::FromSnapshot(
      graph::MakeSnapshotFromStore(store, store), loaded_cls);
  core::InferenceConfig cfg;
  cfg.nap = core::NapKind::kDistance;
  cfg.threshold = 0.3f;
  const auto a = original.Infer(w.all_nodes, cfg);
  const auto b = restored.Infer(w.all_nodes, cfg);
  EXPECT_EQ(a.predictions, b.predictions);
}

TEST(CheckpointTest, WrongArtifactKindRejected) {
  // Loading a gate-stack artifact as a classifier stack must fail on the
  // header tag, not mis-parse.
  auto w = MakeSmallWorld(2, models::ModelKind::kSgc, 150);
  core::GateStack gates(3, 8, 7);
  std::stringstream ss;
  SaveGateStack(ss, gates);
  core::ClassifierStack fresh(w.config, 1);
  EXPECT_THROW(LoadClassifierStack(ss, fresh), std::runtime_error);
}

}  // namespace
}  // namespace nai::io
