#include "src/nn/mlp.h"

#include <cassert>
#include <string>

#include "src/runtime/error.h"
#include "src/tensor/ops.h"

namespace nai::nn {

Mlp::Mlp(std::size_t in_dim, const std::vector<std::size_t>& hidden_dims,
         std::size_t out_dim, float dropout_rate, tensor::Rng& rng)
    : dropout_rate_(dropout_rate) {
  if (!(dropout_rate >= 0.0f && dropout_rate < 1.0f)) {
    throw ValidationError("Mlp: dropout rate must be in [0, 1), got " +
                          std::to_string(dropout_rate));
  }
  std::size_t prev = in_dim;
  for (const std::size_t h : hidden_dims) {
    layers_.emplace_back(prev, h, rng);
    prev = h;
  }
  layers_.emplace_back(prev, out_dim, rng);
}

tensor::Matrix Mlp::Forward(const tensor::Matrix& x, bool train,
                            tensor::Rng* rng) {
  assert(!layers_.empty());
  if (train) {
    preact_.assign(layers_.size() - 1, tensor::Matrix());
    dropout_mask_.assign(layers_.size() - 1, tensor::Matrix());
  }
  tensor::Matrix h = layers_[0].Forward(x, train);
  for (std::size_t l = 1; l < layers_.size(); ++l) {
    if (train) preact_[l - 1] = h;
    tensor::ReluInPlace(h);
    if (train && dropout_rate_ > 0.0f) {
      assert(rng != nullptr && "dropout in train mode requires an Rng");
      tensor::DropoutInPlace(h, dropout_rate_, dropout_mask_[l - 1], *rng);
    } else if (train) {
      dropout_mask_[l - 1].Resize(h.rows(), h.cols());
      dropout_mask_[l - 1].Fill(1.0f);
    }
    h = layers_[l].Forward(h, train);
  }
  return h;
}

tensor::Matrix Mlp::Backward(const tensor::Matrix& grad_logits,
                             bool input_grad) {
  // Layer l needs its input gradient whenever a layer below it consumes it.
  tensor::Matrix grad =
      layers_.back().Backward(grad_logits, layers_.size() > 1 || input_grad);
  for (std::size_t l = layers_.size() - 1; l-- > 0;) {
    // Undo dropout then ReLU, in the reverse of the forward order.
    if (!dropout_mask_[l].empty()) {
      float* g = grad.data();
      const float* m = dropout_mask_[l].data();
      for (std::size_t i = 0; i < grad.size(); ++i) g[i] *= m[i];
    }
    tensor::ReluBackwardInPlace(preact_[l], grad);
    grad = layers_[l].Backward(grad, l > 0 || input_grad);
  }
  return grad;
}

void Mlp::CollectParameters(std::vector<Parameter*>& params) {
  for (auto& layer : layers_) layer.CollectParameters(params);
}

std::int64_t Mlp::ForwardMacs(std::int64_t rows) const {
  std::int64_t total = 0;
  for (const auto& layer : layers_) total += layer.ForwardMacs(rows);
  return total;
}

std::int64_t Mlp::NumParameters() const {
  std::int64_t total = 0;
  for (const auto& layer : layers_) {
    total += static_cast<std::int64_t>(layer.weight().value.size()) +
             static_cast<std::int64_t>(layer.bias().value.size());
  }
  return total;
}

void Mlp::CopyParametersFrom(const Mlp& other) {
  assert(layers_.size() == other.layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    assert(layers_[l].weight().value.SameShape(other.layers_[l].weight().value));
    layers_[l].weight().value = other.layers_[l].weight().value;
    layers_[l].bias().value = other.layers_[l].bias().value;
  }
}

}  // namespace nai::nn
