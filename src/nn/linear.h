#ifndef NAI_NN_LINEAR_H_
#define NAI_NN_LINEAR_H_

#include <cstdint>
#include <vector>

#include "src/nn/parameter.h"
#include "src/tensor/matrix.h"
#include "src/tensor/random.h"

namespace nai::nn {

/// Fully-connected layer Y = X W + b with cached input for backward.
///
/// W is stored (in_dim x out_dim); b is (1 x out_dim). Glorot-uniform init.
class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in_dim, std::size_t out_dim, tensor::Rng& rng);

  /// Forward pass. When `train` is true the input is cached for Backward.
  tensor::Matrix Forward(const tensor::Matrix& x, bool train);

  /// Backward pass: accumulates dW, db from `grad_out` and the cached input.
  /// With `input_grad` returns the gradient w.r.t. the input; without it
  /// skips that product and returns an empty matrix (a first layer over
  /// constant features). Must follow a Forward(train=true).
  tensor::Matrix Backward(const tensor::Matrix& grad_out, bool input_grad);

  std::size_t in_dim() const { return weight_.value.rows(); }
  std::size_t out_dim() const { return weight_.value.cols(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

  /// Registers this layer's parameters into `params`.
  void CollectParameters(std::vector<Parameter*>& params);

  /// Multiply-accumulate count of one forward pass over `rows` rows.
  std::int64_t ForwardMacs(std::int64_t rows) const {
    return rows * static_cast<std::int64_t>(in_dim()) *
           static_cast<std::int64_t>(out_dim());
  }

 private:
  Parameter weight_;
  Parameter bias_;
  tensor::Matrix cached_input_;
};

}  // namespace nai::nn

#endif  // NAI_NN_LINEAR_H_
