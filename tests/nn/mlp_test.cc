#include "src/nn/mlp.h"

#include <cmath>
#include <cstring>

#include "gtest/gtest.h"
#include "src/nn/adam.h"
#include "src/nn/loss.h"
#include "src/runtime/error.h"
#include "tests/test_util.h"

namespace nai::nn {
namespace {

using nai::testing::GradientRelativeError;
using nai::testing::NumericalGradient;
using nai::testing::RandomMatrix;

TEST(MlpTest, NoHiddenIsLinear) {
  tensor::Rng rng(1);
  Mlp mlp(4, {}, 3, 0.0f, rng);
  EXPECT_EQ(mlp.num_layers(), 1u);
  EXPECT_EQ(mlp.in_dim(), 4u);
  EXPECT_EQ(mlp.out_dim(), 3u);
}

TEST(MlpTest, HiddenLayersShape) {
  tensor::Rng rng(2);
  Mlp mlp(8, {16, 12}, 5, 0.0f, rng);
  EXPECT_EQ(mlp.num_layers(), 3u);
  const tensor::Matrix y = mlp.Forward(RandomMatrix(6, 8, 3), false);
  EXPECT_EQ(y.rows(), 6u);
  EXPECT_EQ(y.cols(), 5u);
}

TEST(MlpTest, GradientCheckDeep) {
  tensor::Rng rng(3);
  Mlp mlp(4, {6}, 3, 0.0f, rng);
  const tensor::Matrix x = RandomMatrix(5, 4, 21);
  const std::vector<std::int32_t> labels = {0, 1, 2, 0, 1};

  auto loss_fn = [&] {
    return SoftmaxCrossEntropy(mlp.Forward(x, false), labels).loss;
  };

  std::vector<Parameter*> params;
  mlp.CollectParameters(params);
  for (auto* p : params) p->ZeroGrad();
  const tensor::Matrix logits = mlp.Forward(x, true);
  mlp.Backward(SoftmaxCrossEntropy(logits, labels).grad_logits,
               /*input_grad=*/false);

  for (auto* p : params) {
    const tensor::Matrix num = NumericalGradient(p->value, loss_fn);
    EXPECT_LT(GradientRelativeError(p->grad, num), 0.03f);
  }
}

TEST(MlpTest, InputGradientCheck) {
  tensor::Rng rng(4);
  Mlp mlp(3, {5}, 2, 0.0f, rng);
  tensor::Matrix x = RandomMatrix(4, 3, 22);
  const std::vector<std::int32_t> labels = {0, 1, 1, 0};

  auto loss_fn = [&] {
    return SoftmaxCrossEntropy(mlp.Forward(x, false), labels).loss;
  };
  std::vector<Parameter*> params;
  mlp.CollectParameters(params);
  for (auto* p : params) p->ZeroGrad();
  const tensor::Matrix logits = mlp.Forward(x, true);
  const tensor::Matrix grad_x =
      mlp.Backward(SoftmaxCrossEntropy(logits, labels).grad_logits,
                   /*input_grad=*/true);
  const tensor::Matrix num = NumericalGradient(x, loss_fn);
  EXPECT_LT(GradientRelativeError(grad_x, num), 0.03f);
}

TEST(MlpTest, TrainsToFitSmallDataset) {
  // A 2-layer MLP must drive training loss near zero on a tiny separable set.
  tensor::Rng rng(5);
  Mlp mlp(2, {16}, 2, 0.0f, rng);
  tensor::Matrix x{{1.0f, 0.0f}, {0.9f, 0.1f}, {0.0f, 1.0f}, {0.1f, 0.9f}};
  const std::vector<std::int32_t> labels = {0, 0, 1, 1};

  Adam adam({.learning_rate = 0.05f});
  std::vector<Parameter*> params;
  mlp.CollectParameters(params);
  adam.Register(params);

  float loss = 0.0f;
  for (int epoch = 0; epoch < 200; ++epoch) {
    adam.ZeroGrad();
    const tensor::Matrix logits = mlp.Forward(x, true);
    const LossResult r = SoftmaxCrossEntropy(logits, labels);
    loss = r.loss;
    mlp.Backward(r.grad_logits, /*input_grad=*/false);
    adam.Step();
  }
  EXPECT_LT(loss, 0.05f);
  EXPECT_FLOAT_EQ(Accuracy(mlp.Forward(x, false), labels), 1.0f);
}

TEST(MlpTest, DropoutOnlyInTrainMode) {
  tensor::Rng rng(6);
  Mlp mlp(4, {32}, 2, 0.5f, rng);
  const tensor::Matrix x = RandomMatrix(3, 4, 30);
  const tensor::Matrix a = mlp.Forward(x, false);
  const tensor::Matrix b = mlp.Forward(x, false);
  // Eval mode is deterministic.
  EXPECT_EQ(a.CountDifferences(b, 0.0f), 0u);
  // Train mode with dropout produces different activations across calls.
  tensor::Rng drop_rng(7);
  const tensor::Matrix c = mlp.Forward(x, true, &drop_rng);
  const tensor::Matrix d = mlp.Forward(x, true, &drop_rng);
  EXPECT_GT(c.CountDifferences(d, 1e-6f), 0u);
}

TEST(MlpTest, BackwardWithoutInputGradAccumulatesSameBits) {
  // Skipping the first layer's input gradient must not touch any parameter
  // gradient: two identical MLPs (same init, same dropout draws) run the
  // full and the skipping backward, and every dW/db matches bit for bit.
  const tensor::Matrix x = RandomMatrix(37, 12, 40);
  const std::vector<std::int32_t> labels(37, 1);
  tensor::Rng init_a(11), init_b(11);
  Mlp full(12, {20, 16}, 5, 0.3f, init_a);
  Mlp skip(12, {20, 16}, 5, 0.3f, init_b);
  tensor::Rng drop_a(12), drop_b(12);
  const tensor::Matrix logits_a = full.Forward(x, true, &drop_a);
  const tensor::Matrix logits_b = skip.Forward(x, true, &drop_b);
  const tensor::Matrix grad_x =
      full.Backward(SoftmaxCrossEntropy(logits_a, labels).grad_logits,
                    /*input_grad=*/true);
  const tensor::Matrix none =
      skip.Backward(SoftmaxCrossEntropy(logits_b, labels).grad_logits,
                    /*input_grad=*/false);
  EXPECT_EQ(grad_x.rows(), x.rows());
  EXPECT_EQ(grad_x.cols(), x.cols());
  EXPECT_TRUE(none.empty());

  std::vector<Parameter*> pa, pb;
  full.CollectParameters(pa);
  skip.CollectParameters(pb);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_TRUE(pa[i]->grad.SameShape(pb[i]->grad));
    EXPECT_EQ(std::memcmp(pa[i]->grad.data(), pb[i]->grad.data(),
                          pa[i]->grad.size() * sizeof(float)),
              0)
        << "parameter " << i;
  }
}

TEST(MlpTest, RejectsDropoutOutsideUnitInterval) {
  // A rate of 1 would zero every hidden activation (and divide by zero in
  // the rescale); negative and NaN rates are meaningless. Checked at
  // construction in every build type.
  for (const float rate : {1.0f, 1.5f, -0.1f, std::nanf("")}) {
    tensor::Rng rng(1);
    EXPECT_THROW(Mlp(4, {8}, 2, rate, rng), ValidationError) << rate;
  }
  tensor::Rng rng(1);
  EXPECT_NO_THROW(Mlp(4, {8}, 2, 0.0f, rng));
  EXPECT_NO_THROW(Mlp(4, {8}, 2, 0.99f, rng));
}

TEST(MlpTest, ForwardMacsAndParamCount) {
  tensor::Rng rng(8);
  Mlp mlp(10, {20}, 5, 0.0f, rng);
  EXPECT_EQ(mlp.ForwardMacs(3), 3 * (10 * 20 + 20 * 5));
  EXPECT_EQ(mlp.NumParameters(), 10 * 20 + 20 + 20 * 5 + 5);
}

TEST(MlpTest, CopyParametersFrom) {
  tensor::Rng rng(9);
  Mlp a(4, {8}, 2, 0.0f, rng);
  Mlp b(4, {8}, 2, 0.0f, rng);
  const tensor::Matrix x = RandomMatrix(3, 4, 31);
  EXPECT_GT(a.Forward(x, false).CountDifferences(b.Forward(x, false), 1e-6f),
            0u);
  b.CopyParametersFrom(a);
  EXPECT_EQ(a.Forward(x, false).CountDifferences(b.Forward(x, false), 0.0f),
            0u);
}

TEST(MlpTest, SameSeedSameInitialization) {
  tensor::Rng rng_a(77);
  tensor::Rng rng_b(77);
  Mlp a(5, {12}, 3, 0.0f, rng_a);
  Mlp b(5, {12}, 3, 0.0f, rng_b);
  const tensor::Matrix x = RandomMatrix(4, 5, 32);
  EXPECT_EQ(a.Forward(x, false).CountDifferences(b.Forward(x, false), 0.0f),
            0u);
}

TEST(MlpTest, LayerAccessorsConsistent) {
  tensor::Rng rng(78);
  Mlp mlp(7, {9, 11}, 2, 0.0f, rng);
  ASSERT_EQ(mlp.num_layers(), 3u);
  EXPECT_EQ(mlp.layer(0).in_dim(), 7u);
  EXPECT_EQ(mlp.layer(0).out_dim(), 9u);
  EXPECT_EQ(mlp.layer(1).in_dim(), 9u);
  EXPECT_EQ(mlp.layer(1).out_dim(), 11u);
  EXPECT_EQ(mlp.layer(2).in_dim(), 11u);
  EXPECT_EQ(mlp.layer(2).out_dim(), 2u);
}

}  // namespace
}  // namespace nai::nn
