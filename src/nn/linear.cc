#include "src/nn/linear.h"

#include <cassert>

#include "src/tensor/ops.h"

namespace nai::nn {

Linear::Linear(std::size_t in_dim, std::size_t out_dim, tensor::Rng& rng) {
  weight_.Resize(in_dim, out_dim);
  bias_.Resize(1, out_dim);
  tensor::FillGlorot(weight_.value, rng);
}

tensor::Matrix Linear::Forward(const tensor::Matrix& x, bool train) {
  assert(x.cols() == in_dim());
  tensor::Matrix y = tensor::MatMul(x, weight_.value);
  tensor::AddRowBias(y, bias_.value);
  if (train) cached_input_ = x;
  return y;
}

tensor::Matrix Linear::Backward(const tensor::Matrix& grad_out,
                                bool input_grad) {
  assert(grad_out.cols() == out_dim());
  assert(cached_input_.rows() == grad_out.rows() &&
         "Backward without matching Forward(train=true)");
  tensor::AddInPlace(weight_.grad,
                     tensor::MatMulTransposeA(cached_input_, grad_out));
  tensor::AddInPlace(bias_.grad, tensor::ColumnSums(grad_out));
  if (!input_grad) return tensor::Matrix();
  return tensor::MatMulTransposeB(grad_out, weight_.value);
}

void Linear::CollectParameters(std::vector<Parameter*>& params) {
  params.push_back(&weight_);
  params.push_back(&bias_);
}

}  // namespace nai::nn
