#ifndef NAI_NN_MLP_H_
#define NAI_NN_MLP_H_

#include <cstdint>
#include <vector>

#include "src/nn/linear.h"
#include "src/tensor/matrix.h"
#include "src/tensor/random.h"

namespace nai::nn {

/// Multi-layer perceptron: Linear -> ReLU -> [dropout] -> ... -> Linear.
///
/// With `hidden_dims` empty this degenerates to a single Linear layer
/// (a logistic-regression head once paired with softmax cross-entropy),
/// which is the classifier shape SGC uses.
class Mlp {
 public:
  Mlp() = default;

  /// `dims` path is in_dim -> hidden_dims... -> out_dim. Throws
  /// ValidationError unless 0 <= dropout_rate < 1 (a rate of 1 would zero
  /// every hidden activation).
  Mlp(std::size_t in_dim, const std::vector<std::size_t>& hidden_dims,
      std::size_t out_dim, float dropout_rate, tensor::Rng& rng);

  /// Forward pass producing logits. When `train` is true, dropout is applied
  /// to hidden activations (using `rng`) and intermediates are cached.
  tensor::Matrix Forward(const tensor::Matrix& x, bool train,
                         tensor::Rng* rng = nullptr);

  /// Backward from dLoss/dLogits; accumulates parameter grads. With
  /// `input_grad` returns dLoss/dInput; without it the first layer skips
  /// that product and an empty matrix is returned (the input is a
  /// constant, e.g. precomputed propagated features).
  tensor::Matrix Backward(const tensor::Matrix& grad_logits, bool input_grad);

  void CollectParameters(std::vector<Parameter*>& params);

  std::size_t num_layers() const { return layers_.size(); }
  const Linear& layer(std::size_t i) const { return layers_[i]; }
  std::size_t in_dim() const { return layers_.front().in_dim(); }
  std::size_t out_dim() const { return layers_.back().out_dim(); }

  /// Total forward MACs for `rows` input rows.
  std::int64_t ForwardMacs(std::int64_t rows) const;

  /// Total parameter count (weights + biases).
  std::int64_t NumParameters() const;

  /// Deep copy of the parameter values from `other` (shapes must match).
  void CopyParametersFrom(const Mlp& other);

 private:
  std::vector<Linear> layers_;
  float dropout_rate_ = 0.0f;
  // Caches from the last train-mode forward, for backward.
  std::vector<tensor::Matrix> preact_;        // z_l before ReLU, per hidden layer
  std::vector<tensor::Matrix> dropout_mask_;  // per hidden layer
};

}  // namespace nai::nn

#endif  // NAI_NN_MLP_H_
