#include "src/nn/linear.h"

#include "gtest/gtest.h"
#include "src/nn/loss.h"
#include "src/tensor/ops.h"
#include "tests/test_util.h"

namespace nai::nn {
namespace {

using nai::testing::GradientRelativeError;
using nai::testing::NumericalGradient;
using nai::testing::RandomMatrix;

TEST(LinearTest, ForwardShapeAndBias) {
  tensor::Rng rng(1);
  Linear layer(4, 3, rng);
  layer.bias().value.Fill(0.5f);
  tensor::Matrix x(2, 4);  // zeros
  const tensor::Matrix y = layer.Forward(x, false);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 3u);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(y.at(0, j), 0.5f);
}

TEST(LinearTest, ForwardMatchesManual) {
  tensor::Rng rng(2);
  Linear layer(2, 2, rng);
  layer.weight().value = tensor::Matrix{{1.0f, 2.0f}, {3.0f, 4.0f}};
  layer.bias().value = tensor::Matrix{{10.0f, 20.0f}};
  tensor::Matrix x{{1.0f, 1.0f}};
  const tensor::Matrix y = layer.Forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 14.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 26.0f);
}

TEST(LinearTest, GradientCheckWeight) {
  tensor::Rng rng(3);
  Linear layer(5, 4, rng);
  const tensor::Matrix x = RandomMatrix(7, 5, 10);
  const std::vector<std::int32_t> labels = {0, 1, 2, 3, 0, 1, 2};

  auto loss_fn = [&] {
    const tensor::Matrix logits = layer.Forward(x, false);
    return SoftmaxCrossEntropy(logits, labels).loss;
  };

  layer.weight().ZeroGrad();
  layer.bias().ZeroGrad();
  const tensor::Matrix logits = layer.Forward(x, true);
  const LossResult loss = SoftmaxCrossEntropy(logits, labels);
  layer.Backward(loss.grad_logits, /*input_grad=*/false);

  const tensor::Matrix num_w = NumericalGradient(layer.weight().value, loss_fn);
  EXPECT_LT(GradientRelativeError(layer.weight().grad, num_w), 0.02f);
  const tensor::Matrix num_b = NumericalGradient(layer.bias().value, loss_fn);
  EXPECT_LT(GradientRelativeError(layer.bias().grad, num_b), 0.02f);
}

TEST(LinearTest, BackwardReturnsInputGradient) {
  // Check dL/dX against numerical differentiation through a fixed layer.
  tensor::Rng rng(4);
  Linear layer(3, 2, rng);
  tensor::Matrix x = RandomMatrix(4, 3, 11);
  const std::vector<std::int32_t> labels = {0, 1, 0, 1};

  auto loss_fn = [&] {
    const tensor::Matrix logits = layer.Forward(x, false);
    return SoftmaxCrossEntropy(logits, labels).loss;
  };

  layer.weight().ZeroGrad();
  layer.bias().ZeroGrad();
  const tensor::Matrix logits = layer.Forward(x, true);
  const LossResult loss = SoftmaxCrossEntropy(logits, labels);
  const tensor::Matrix grad_x =
      layer.Backward(loss.grad_logits, /*input_grad=*/true);

  const tensor::Matrix num_x = NumericalGradient(x, loss_fn);
  EXPECT_LT(GradientRelativeError(grad_x, num_x), 0.02f);
}

TEST(LinearTest, GradientsAccumulate) {
  tensor::Rng rng(5);
  Linear layer(2, 2, rng);
  const tensor::Matrix x = RandomMatrix(3, 2, 12);
  const tensor::Matrix g = RandomMatrix(3, 2, 13);
  layer.Forward(x, true);
  layer.Backward(g, /*input_grad=*/false);
  const tensor::Matrix once = layer.weight().grad;
  layer.Forward(x, true);
  layer.Backward(g, /*input_grad=*/false);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(layer.weight().grad.data()[i], 2.0f * once.data()[i], 1e-4f);
  }
}

TEST(LinearTest, ForwardMacs) {
  tensor::Rng rng(6);
  Linear layer(10, 20, rng);
  EXPECT_EQ(layer.ForwardMacs(5), 5 * 10 * 20);
}

TEST(LinearTest, CollectParameters) {
  tensor::Rng rng(7);
  Linear layer(2, 3, rng);
  std::vector<Parameter*> params;
  layer.CollectParameters(params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->value.rows(), 2u);
  EXPECT_EQ(params[1]->value.cols(), 3u);
}

TEST(LinearTest, SameSeedSameInitialization) {
  tensor::Rng rng_a(123);
  tensor::Rng rng_b(123);
  Linear a(6, 4, rng_a);
  Linear b(6, 4, rng_b);
  const tensor::Matrix x = RandomMatrix(3, 6, 50);
  EXPECT_EQ(a.Forward(x, false).CountDifferences(b.Forward(x, false), 0.0f),
            0u);
}

TEST(LinearTest, EmptyBatchForward) {
  tensor::Rng rng(51);
  Linear layer(4, 3, rng);
  tensor::Matrix x(0, 4);
  const tensor::Matrix y = layer.Forward(x, false);
  EXPECT_EQ(y.rows(), 0u);
  EXPECT_EQ(y.cols(), 3u);
  EXPECT_EQ(layer.ForwardMacs(0), 0);
}

}  // namespace
}  // namespace nai::nn
