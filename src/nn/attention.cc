#include "src/nn/attention.h"

#include <cassert>
#include <cmath>

#include "src/tensor/ops.h"

namespace nai::nn {

VectorAttention::VectorAttention(std::size_t num_views, std::size_t dim,
                                 tensor::Rng& rng) {
  reference_.Resize(num_views, dim);
  tensor::FillGlorot(reference_.value, rng);
}

tensor::Matrix VectorAttention::Forward(
    const std::vector<const tensor::Matrix*>& views, bool train,
    tensor::Matrix* weights_out) {
  const std::size_t L = num_views();
  assert(views.size() == L);
  const std::size_t n = views[0]->rows();
  const std::size_t d = views[0]->cols();
  assert(d == dim());

  // Local scratch: inference-mode Forward must not touch shared members —
  // concurrent shard engines classify their batches on the same head.
  tensor::Matrix scores(n, L);
  tensor::Matrix weights(n, L);
  tensor::Matrix out(n, d);

  for (std::size_t i = 0; i < n; ++i) {
    // q_i^l = sigmoid(V_l[i] . s_l)
    float* qrow = scores.row(i);
    for (std::size_t l = 0; l < L; ++l) {
      const float* v = views[l]->row(i);
      const float* s = reference_.value.row(l);
      float dot = 0.0f;
      for (std::size_t j = 0; j < d; ++j) dot += v[j] * s[j];
      qrow[l] = 1.0f / (1.0f + std::exp(-dot));
    }
    // w_i = softmax_l(q_i)
    float maxq = qrow[0];
    for (std::size_t l = 1; l < L; ++l) maxq = std::max(maxq, qrow[l]);
    float sum = 0.0f;
    float* wrow = weights.row(i);
    for (std::size_t l = 0; l < L; ++l) {
      wrow[l] = std::exp(qrow[l] - maxq);
      sum += wrow[l];
    }
    for (std::size_t l = 0; l < L; ++l) wrow[l] /= sum;
    // out_i = sum_l w_i^l V_l[i]
    float* orow = out.row(i);
    for (std::size_t l = 0; l < L; ++l) {
      const float* v = views[l]->row(i);
      const float w = wrow[l];
      for (std::size_t j = 0; j < d; ++j) orow[j] += w * v[j];
    }
  }

  if (weights_out != nullptr) *weights_out = weights;
  if (train) {
    scores_ = std::move(scores);
    weights_ = std::move(weights);
    cached_views_.clear();
    cached_views_.reserve(L);
    for (const auto* v : views) cached_views_.push_back(*v);
  }
  return out;
}

void VectorAttention::Backward(const tensor::Matrix& grad_out,
                               std::vector<tensor::Matrix>* grad_views) {
  const std::size_t L = num_views();
  const std::size_t d = dim();
  assert(cached_views_.size() == L && "Backward without Forward(train=true)");
  const std::size_t n = cached_views_[0].rows();
  assert(grad_out.rows() == n && grad_out.cols() == d);

  if (grad_views != nullptr) {
    grad_views->assign(L, tensor::Matrix(n, d));
  }

  std::vector<float> dw(L), dq(L);
  for (std::size_t i = 0; i < n; ++i) {
    const float* go = grad_out.row(i);
    const float* wrow = weights_.row(i);
    const float* qrow = scores_.row(i);

    // dL/dw_l = grad_out . V_l[i]
    for (std::size_t l = 0; l < L; ++l) {
      const float* v = cached_views_[l].row(i);
      float dot = 0.0f;
      for (std::size_t j = 0; j < d; ++j) dot += go[j] * v[j];
      dw[l] = dot;
    }
    // softmax backward: dq_l = w_l (dw_l - sum_k dw_k w_k)
    float mix = 0.0f;
    for (std::size_t l = 0; l < L; ++l) mix += dw[l] * wrow[l];
    for (std::size_t l = 0; l < L; ++l) dq[l] = wrow[l] * (dw[l] - mix);

    for (std::size_t l = 0; l < L; ++l) {
      const float sig_grad = qrow[l] * (1.0f - qrow[l]);  // sigmoid'
      const float da = dq[l] * sig_grad;                  // pre-sigmoid grad
      const float* v = cached_views_[l].row(i);
      float* sgrad = reference_.grad.row(l);
      for (std::size_t j = 0; j < d; ++j) sgrad[j] += da * v[j];
      if (grad_views != nullptr) {
        const float* s = reference_.value.row(l);
        float* gv = (*grad_views)[l].row(i);
        for (std::size_t j = 0; j < d; ++j) {
          gv[j] = wrow[l] * go[j] + da * s[j];
        }
      }
    }
  }
}

void VectorAttention::CollectParameters(std::vector<Parameter*>& params) {
  params.push_back(&reference_);
}

}  // namespace nai::nn
