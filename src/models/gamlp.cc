#include "src/models/gamlp.h"

#include <cassert>

namespace nai::models {

GamlpHead::GamlpHead(const ModelConfig& config, int depth, tensor::Rng& rng)
    : depth_(depth),
      feature_dim_(config.feature_dim),
      attention_(depth + 1, config.feature_dim, rng),
      mlp_(config.feature_dim, config.hidden_dims, config.num_classes,
           config.dropout, rng) {}

tensor::Matrix GamlpHead::Forward(const FeatureViews& views, bool train,
                                  tensor::Rng* rng) {
  assert(views.size() == expected_views());
  const tensor::Matrix combined = attention_.Forward(views, train);
  return mlp_.Forward(combined, train, rng);
}

void GamlpHead::Backward(const tensor::Matrix& grad_logits) {
  const tensor::Matrix grad_combined =
      mlp_.Backward(grad_logits, /*input_grad=*/true);
  // Views are precomputed propagated features (constants), so their
  // gradients are not needed.
  attention_.Backward(grad_combined, nullptr);
}

void GamlpHead::CollectParameters(std::vector<nn::Parameter*>& params) {
  attention_.CollectParameters(params);
  mlp_.CollectParameters(params);
}

std::int64_t GamlpHead::ForwardMacs(std::int64_t rows) const {
  // Attention: (depth+1) dot products of length f per node, plus the
  // weighted combination of (depth+1) views.
  const std::int64_t att =
      2 * rows * static_cast<std::int64_t>(depth_ + 1) *
      static_cast<std::int64_t>(feature_dim_);
  return att + mlp_.ForwardMacs(rows);
}

}  // namespace nai::models

namespace nai::models {

tensor::Matrix GamlpHead::Reduce(const FeatureViews& views) {
  assert(views.size() == expected_views());
  return attention_.Forward(views, /*train=*/false);
}

}  // namespace nai::models
