#include "src/core/distillation.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "src/nn/loss.h"
#include "src/runtime/error.h"
#include "src/tensor/simd.h"
#include "tests/core/core_fixtures.h"

namespace nai::core {
namespace {

using nai::testing::MakeSmallWorld;
using nai::testing::SmallWorld;

float HeadAccuracy(SmallWorld& w, int l) {
  const tensor::Matrix logits = w.classifiers->Logits(l, w.all_feats);
  return nn::Accuracy(logits, w.data.labels);
}

TEST(DistillationTest, TrainBaseFitsTeacher) {
  auto w = MakeSmallWorld(3, models::ModelKind::kSgc, 400, 0);
  DistillConfig cfg;
  cfg.base_epochs = 80;
  InceptionDistillation distiller(*w.classifiers, cfg);
  distiller.TrainBase(w.all_feats, w.data.labels, w.all_nodes);
  const float loss = nn::SoftmaxCrossEntropy(
                         w.classifiers->Logits(3, w.all_feats), w.data.labels)
                         .loss;
  EXPECT_LT(loss, 1.0f);
  EXPECT_GT(HeadAccuracy(w, 3), 0.6f);
}

TEST(DistillationTest, SingleScaleLiftsShallowHeads) {
  auto w = MakeSmallWorld(3, models::ModelKind::kSgc, 400, 0);
  DistillConfig cfg;
  cfg.base_epochs = 80;
  cfg.single_epochs = 80;
  cfg.lambda_single = 0.5f;
  InceptionDistillation distiller(*w.classifiers, cfg);
  distiller.TrainBase(w.all_feats, w.data.labels, w.all_nodes);
  const float before = HeadAccuracy(w, 1);  // untrained head: ~chance
  distiller.SingleScale(w.all_feats, w.data.labels, w.all_nodes);
  const float after = HeadAccuracy(w, 1);
  EXPECT_GT(after, before + 0.2f);
  EXPECT_GT(after, 0.5f);
}

TEST(DistillationTest, MultiScaleDoesNotDegradeStudents) {
  auto w = MakeSmallWorld(3, models::ModelKind::kSgc, 400, 0);
  DistillConfig cfg;
  cfg.base_epochs = 80;
  cfg.single_epochs = 60;
  cfg.multi_epochs = 40;
  cfg.ensemble_size = 2;
  InceptionDistillation distiller(*w.classifiers, cfg);
  distiller.TrainBase(w.all_feats, w.data.labels, w.all_nodes);
  distiller.SingleScale(w.all_feats, w.data.labels, w.all_nodes);
  const float before = HeadAccuracy(w, 1);
  distiller.MultiScale(w.all_feats, w.data.labels, w.all_nodes);
  const float after = HeadAccuracy(w, 1);
  // Joint teacher/student updates jitter accuracy by a point or two; the
  // guard is against real degradation, not noise.
  EXPECT_GE(after, before - 0.08f);
  EXPECT_GT(after, 0.5f);
}

TEST(DistillationTest, TrainAllRespectsAblationFlags) {
  // With both stages disabled, every head still gets plain CE training
  // (the "w/o ID" configuration must produce a usable bank).
  auto w = MakeSmallWorld(2, models::ModelKind::kSgc, 300, 0);
  DistillConfig cfg;
  cfg.base_epochs = 60;
  cfg.enable_single = false;
  cfg.enable_multi = false;
  InceptionDistillation distiller(*w.classifiers, cfg);
  distiller.TrainAll(w.all_feats, w.data.labels, w.all_nodes);
  EXPECT_GT(HeadAccuracy(w, 1), 0.5f);
  EXPECT_GT(HeadAccuracy(w, 2), 0.5f);
}

TEST(DistillationTest, LabeledSubsetOnlyHardLoss) {
  // Training with a small labeled subset must still work (the KD terms see
  // every training row).
  auto w = MakeSmallWorld(2, models::ModelKind::kSgc, 300, 0);
  std::vector<std::int32_t> labeled(w.all_nodes.begin(),
                                    w.all_nodes.begin() + 60);
  DistillConfig cfg;
  cfg.base_epochs = 80;
  cfg.single_epochs = 60;
  cfg.enable_multi = false;
  InceptionDistillation distiller(*w.classifiers, cfg);
  distiller.TrainAll(w.all_feats, w.data.labels, labeled);
  EXPECT_GT(HeadAccuracy(w, 1), 0.45f);
}

TEST(DistillationTest, WorksForAllModelFamilies) {
  for (const auto kind :
       {models::ModelKind::kSign, models::ModelKind::kS2gc,
        models::ModelKind::kGamlp}) {
    auto w = MakeSmallWorld(2, kind, 250, 0);
    DistillConfig cfg;
    cfg.base_epochs = 50;
    cfg.single_epochs = 40;
    cfg.multi_epochs = 20;
    cfg.ensemble_size = 2;
    InceptionDistillation distiller(*w.classifiers, cfg);
    distiller.TrainAll(w.all_feats, w.data.labels, w.all_nodes);
    EXPECT_GT(HeadAccuracy(w, 1), 0.45f)
        << models::ModelKindName(kind);
  }
}

}  // namespace
}  // namespace nai::core

namespace nai::core {
namespace {

TEST(DistillationTest, DepthOneDegeneratesGracefully) {
  // k = 1: there are no student classifiers; base training must still
  // produce a usable single-head bank and both distillation stages must be
  // no-ops rather than crashes.
  auto w = nai::testing::MakeSmallWorld(1, models::ModelKind::kSgc, 200, 0);
  DistillConfig cfg;
  cfg.base_epochs = 50;
  cfg.ensemble_size = 3;  // clamped to k internally
  InceptionDistillation distiller(*w.classifiers, cfg);
  distiller.TrainAll(w.all_feats, w.data.labels, w.all_nodes);
  EXPECT_GT(HeadAccuracy(w, 1), 0.5f);
}

TEST(DistillationTest, ZeroEpochsLeavesHeadsUntouched) {
  // A fully disabled schedule must not move a single parameter.
  auto w = nai::testing::MakeSmallWorld(2, models::ModelKind::kSgc, 150, 0);
  const tensor::Matrix before = w.classifiers->Logits(2, w.all_feats);
  DistillConfig cfg;
  cfg.base_epochs = 0;
  cfg.single_epochs = 0;
  cfg.multi_epochs = 0;
  cfg.enable_single = false;
  cfg.enable_multi = false;
  InceptionDistillation distiller(*w.classifiers, cfg);
  distiller.TrainAll(w.all_feats, w.data.labels, w.all_nodes);
  const tensor::Matrix after = w.classifiers->Logits(2, w.all_feats);
  EXPECT_EQ(before.CountDifferences(after, 0.0f), 0u);
}

/// Every head parameter value of `stack`, head 1..k in order, as raw
/// floats.
std::vector<float> HeadParameterValues(ClassifierStack& stack) {
  std::vector<float> out;
  for (int l = 1; l <= stack.depth(); ++l) {
    for (const nn::Parameter* p : stack.HeadParameters(l)) {
      out.insert(out.end(), p->value.data(), p->value.data() + p->value.size());
    }
  }
  return out;
}

TEST(DistillationTest, TrainAllBitExactAcrossSimdLevels) {
  // The whole distillation pipeline trains the same bits at every SIMD
  // level. SGC covers ReLU-sparse hidden activations under dropout and the
  // skipped input gradient; GAMLP covers the attention head, whose
  // backward needs the MLP's input gradient. Widths 12 -> 20 -> 4 put
  // every product on a masked column tail.
  struct LevelGuard {
    ~LevelGuard() {
      tensor::simd::SetActiveLevelForTesting(
          tensor::simd::BestSupportedLevel());
    }
  } guard;
  for (const auto kind : {models::ModelKind::kSgc, models::ModelKind::kGamlp}) {
    auto w = MakeSmallWorld(3, kind, 300, 0);
    models::ModelConfig mc = w.config;
    mc.hidden_dims = {20};
    mc.dropout = 0.3f;
    DistillConfig cfg;
    cfg.base_epochs = 12;
    cfg.single_epochs = 8;
    cfg.multi_epochs = 6;
    cfg.ensemble_size = 2;
    auto train = [&](tensor::simd::Level level) {
      tensor::simd::SetActiveLevelForTesting(level);
      ClassifierStack stack(mc, 9);
      InceptionDistillation(stack, cfg)
          .TrainAll(w.all_feats, w.data.labels, w.all_nodes);
      return HeadParameterValues(stack);
    };
    ClassifierStack untrained(mc, 9);
    const std::vector<float> init = HeadParameterValues(untrained);
    const std::vector<float> ref = train(tensor::simd::Level::kScalar);
    const std::vector<float> best =
        train(tensor::simd::BestSupportedLevel());
    ASSERT_EQ(best.size(), ref.size());
    EXPECT_EQ(std::memcmp(best.data(), ref.data(), ref.size() * sizeof(float)),
              0)
        << models::ModelKindName(kind);
    // Guard against a vacuous pass: training moved the parameters.
    EXPECT_NE(std::memcmp(init.data(), ref.data(), ref.size() * sizeof(float)),
              0)
        << models::ModelKindName(kind);
  }
}

/// FNV-1a over the raw bytes of `values`.
std::uint64_t HashFloats(const std::vector<float>& values) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(DistillationTest, TrainAllWeightsMatchGolden) {
  // Pins the trained bits, not just their agreement across SIMD levels:
  // the hashes were taken before the loss functions stopped computing the
  // loss values nobody reads, so dropping that work provably moved no
  // weight. Rows 60.. are unlabeled, so the masked cross-entropy and the
  // all-row KD terms both matter. The third case disables both stages,
  // which trains the shallow heads through TrainHeadPlain.
  struct Case {
    models::ModelKind kind;
    bool stages;
    std::uint64_t golden;
  };
  const Case cases[] = {
      {models::ModelKind::kSgc, true, 0x5b52433c2160e626ULL},
      {models::ModelKind::kGamlp, true, 0xf459bc862ef6166cULL},
      {models::ModelKind::kSgc, false, 0x792ae3a60d02e4d9ULL},
  };
  for (const Case& c : cases) {
    auto w = MakeSmallWorld(3, c.kind, 300, 0);
    const std::vector<std::int32_t> labeled(w.all_nodes.begin(),
                                            w.all_nodes.begin() + 60);
    models::ModelConfig mc = w.config;
    mc.hidden_dims = {20};
    mc.dropout = 0.3f;
    DistillConfig cfg;
    cfg.base_epochs = 12;
    cfg.single_epochs = 8;
    cfg.multi_epochs = 6;
    cfg.ensemble_size = 2;
    cfg.enable_single = c.stages;
    cfg.enable_multi = c.stages;
    ClassifierStack stack(mc, 9);
    InceptionDistillation(stack, cfg)
        .TrainAll(w.all_feats, w.data.labels, labeled);
    const std::uint64_t got = HashFloats(HeadParameterValues(stack));
    EXPECT_EQ(got, c.golden)
        << models::ModelKindName(c.kind) << " stages=" << c.stages;
  }
}

TEST(DistillationTest, RejectsNonPositiveSingleTemperature) {
  // Softmax(z / T) divides by T, so T <= 0 or a non-finite T is refused
  // at construction, before any epoch runs, in every build type.
  auto w = nai::testing::MakeSmallWorld(2, models::ModelKind::kSgc, 100, 0);
  for (const float t : {0.0f, -1.0f, std::numeric_limits<float>::infinity(),
                        std::nanf("")}) {
    DistillConfig cfg;
    cfg.temperature_single = t;
    EXPECT_THROW(InceptionDistillation(*w.classifiers, cfg), ValidationError)
        << t;
  }
}

TEST(DistillationTest, RejectsNonPositiveMultiTemperature) {
  auto w = nai::testing::MakeSmallWorld(2, models::ModelKind::kSgc, 100, 0);
  for (const float t : {0.0f, -0.5f, std::numeric_limits<float>::infinity(),
                        std::nanf("")}) {
    DistillConfig cfg;
    cfg.temperature_multi = t;
    EXPECT_THROW(InceptionDistillation(*w.classifiers, cfg), ValidationError)
        << t;
  }
}

TEST(DistillationTest, EnsembleLargerThanDepthClamped) {
  auto w = nai::testing::MakeSmallWorld(2, models::ModelKind::kSgc, 200, 0);
  DistillConfig cfg;
  cfg.base_epochs = 40;
  cfg.single_epochs = 20;
  cfg.multi_epochs = 20;
  cfg.ensemble_size = 99;  // > k
  InceptionDistillation distiller(*w.classifiers, cfg);
  distiller.TrainAll(w.all_feats, w.data.labels, w.all_nodes);
  EXPECT_GT(HeadAccuracy(w, 1), 0.45f);
}

}  // namespace
}  // namespace nai::core
