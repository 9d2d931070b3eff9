#include "src/models/sign.h"

#include <cassert>

#include "src/tensor/ops.h"

namespace nai::models {

SignHead::SignHead(const ModelConfig& config, int depth, tensor::Rng& rng)
    : depth_(depth),
      mlp_(config.feature_dim * (depth + 1), config.hidden_dims,
           config.num_classes, config.dropout, rng) {}

tensor::Matrix SignHead::Forward(const FeatureViews& views, bool train,
                                 tensor::Rng* rng) {
  assert(views.size() == expected_views());
  const tensor::Matrix concat = tensor::ConcatCols(views);
  return mlp_.Forward(concat, train, rng);
}

void SignHead::Backward(const tensor::Matrix& grad_logits) {
  mlp_.Backward(grad_logits, /*input_grad=*/false);
}

void SignHead::CollectParameters(std::vector<nn::Parameter*>& params) {
  mlp_.CollectParameters(params);
}

std::int64_t SignHead::ForwardMacs(std::int64_t rows) const {
  return mlp_.ForwardMacs(rows);
}

}  // namespace nai::models

namespace nai::models {

tensor::Matrix SignHead::Reduce(const FeatureViews& views) {
  assert(views.size() == expected_views());
  return tensor::ConcatCols(views);
}

}  // namespace nai::models
