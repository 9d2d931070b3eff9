#include "src/models/sgc.h"

#include <cassert>

namespace nai::models {

SgcHead::SgcHead(const ModelConfig& config, int depth, tensor::Rng& rng)
    : depth_(depth),
      mlp_(config.feature_dim, config.hidden_dims, config.num_classes,
           config.dropout, rng) {}

tensor::Matrix SgcHead::Forward(const FeatureViews& views, bool train,
                                tensor::Rng* rng) {
  assert(views.size() == expected_views());
  return mlp_.Forward(*views.back(), train, rng);
}

void SgcHead::Backward(const tensor::Matrix& grad_logits) {
  mlp_.Backward(grad_logits, /*input_grad=*/false);
}

void SgcHead::CollectParameters(std::vector<nn::Parameter*>& params) {
  mlp_.CollectParameters(params);
}

std::int64_t SgcHead::ForwardMacs(std::int64_t rows) const {
  return mlp_.ForwardMacs(rows);
}

}  // namespace nai::models

namespace nai::models {

tensor::Matrix SgcHead::Reduce(const FeatureViews& views) {
  assert(views.size() == expected_views());
  return *views.back();
}

}  // namespace nai::models
