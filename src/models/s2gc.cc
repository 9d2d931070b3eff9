#include "src/models/s2gc.h"

#include <cassert>

#include "src/tensor/ops.h"

namespace nai::models {

S2gcHead::S2gcHead(const ModelConfig& config, int depth, tensor::Rng& rng)
    : depth_(depth),
      feature_dim_(config.feature_dim),
      mlp_(config.feature_dim, config.hidden_dims, config.num_classes,
           config.dropout, rng) {}

tensor::Matrix S2gcHead::Forward(const FeatureViews& views, bool train,
                                 tensor::Rng* rng) {
  assert(views.size() == expected_views());
  const tensor::Matrix avg = tensor::Mean(views);
  return mlp_.Forward(avg, train, rng);
}

void S2gcHead::Backward(const tensor::Matrix& grad_logits) {
  mlp_.Backward(grad_logits, /*input_grad=*/false);
}

void S2gcHead::CollectParameters(std::vector<nn::Parameter*>& params) {
  mlp_.CollectParameters(params);
}

std::int64_t S2gcHead::ForwardMacs(std::int64_t rows) const {
  // Averaging depth+1 views costs rows * (depth+1) * f adds — the paper's
  // "knf" term in Table I — counted here as MAC-equivalents, plus the MLP.
  return rows * static_cast<std::int64_t>(depth_ + 1) *
             static_cast<std::int64_t>(feature_dim_) +
         mlp_.ForwardMacs(rows);
}

}  // namespace nai::models

namespace nai::models {

tensor::Matrix S2gcHead::Reduce(const FeatureViews& views) {
  assert(views.size() == expected_views());
  return tensor::Mean(views);
}

}  // namespace nai::models
