#include "src/baselines/quantization.h"

#include <cmath>

#include "gtest/gtest.h"
#include "src/tensor/ops.h"
#include "tests/core/core_fixtures.h"
#include "tests/test_util.h"

namespace nai::baselines {
namespace {

using nai::testing::MakeSmallWorld;
using nai::testing::RandomMatrix;

TEST(QuantizedLinearTest, ApproximatesFloatLayer) {
  tensor::Rng rng(1);
  nn::Linear layer(16, 8, rng);
  const nn::QuantizedLinear qlayer(layer);
  const tensor::Matrix x = RandomMatrix(10, 16, 2);
  const tensor::Matrix fy = layer.Forward(x, false);
  const tensor::Matrix qy = qlayer.Forward(x);
  ASSERT_EQ(fy.rows(), qy.rows());
  // INT8 symmetric quantization: relative error a few percent.
  float max_err = 0.0f, max_abs = 0.0f;
  for (std::size_t i = 0; i < fy.size(); ++i) {
    max_err = std::max(max_err, std::fabs(fy.data()[i] - qy.data()[i]));
    max_abs = std::max(max_abs, std::fabs(fy.data()[i]));
  }
  EXPECT_LT(max_err, 0.05f * max_abs + 0.05f);
}

TEST(QuantizedLinearTest, MacsAndDims) {
  tensor::Rng rng(3);
  nn::Linear layer(5, 7, rng);
  const nn::QuantizedLinear q(layer);
  EXPECT_EQ(q.in_dim(), 5u);
  EXPECT_EQ(q.out_dim(), 7u);
  EXPECT_EQ(q.ForwardMacs(2), 2 * 5 * 7);
  EXPECT_GT(q.weight_scale(), 0.0f);
}

TEST(QuantizedMlpTest, AgreesWithFloatArgmaxMostly) {
  tensor::Rng rng(4);
  nn::Mlp mlp(12, {24}, 5, 0.0f, rng);
  const nn::QuantizedMlp q(mlp);
  const tensor::Matrix x = RandomMatrix(200, 12, 5);
  const auto fpred = tensor::ArgmaxRows(mlp.Forward(x, false));
  const auto qpred = tensor::ArgmaxRows(q.Forward(x));
  std::size_t agree = 0;
  for (std::size_t i = 0; i < fpred.size(); ++i) {
    if (fpred[i] == qpred[i]) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / fpred.size(), 0.95);
}

TEST(QuantizedInferTest, MatchesVanillaAccuracyClosely) {
  auto w = MakeSmallWorld(3, models::ModelKind::kSgc, 300);
  const nn::QuantizedMlp qmlp(w.classifiers->head(3).classifier_mlp());
  const QuantizedInferResult r = QuantizedScalableInfer(
      w.data.graph, w.data.features, w.config.gamma, 3,
      w.classifiers->head(3), qmlp, w.all_nodes, 100);
  ASSERT_EQ(r.predictions.size(), 300u);

  // Compare against the float transductive predictions.
  const tensor::Matrix logits = w.classifiers->Logits(3, w.all_feats);
  const auto fpred = tensor::ArgmaxRows(logits);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    if (fpred[i] == r.predictions[i]) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / 300.0, 0.9);
  // Quantization does not reduce propagation work.
  EXPECT_GT(r.cost.fp_macs, 0);
}

TEST(QuantizedMlpTest, ForwardMacsSumOverLayers) {
  tensor::Rng rng(9);
  nn::Mlp mlp(10, {20, 30}, 4, 0.0f, rng);
  const nn::QuantizedMlp q(mlp);
  // 10->20, 20->30, 30->4, per row.
  EXPECT_EQ(q.ForwardMacs(3), 3 * (10 * 20 + 20 * 30 + 30 * 4));
}

TEST(QuantizedLinearTest, ZeroWeightsStayZero) {
  // An all-zero layer has absmax 0; quantization must not divide by zero
  // and the output must be exactly the (float) bias.
  tensor::Rng rng(2);
  nn::Linear layer(4, 3, rng);
  layer.weight().value.Fill(0.0f);
  const nn::QuantizedLinear q(layer);
  const tensor::Matrix x = RandomMatrix(6, 4, 11);
  const tensor::Matrix y = q.Forward(x);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    for (std::size_t j = 0; j < y.cols(); ++j) {
      EXPECT_FLOAT_EQ(y.at(i, j), layer.bias().value.at(0, j));
    }
  }
}

}  // namespace
}  // namespace nai::baselines
