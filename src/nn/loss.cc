#include "src/nn/loss.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/tensor/ops.h"

namespace nai::nn {

LossResult SoftmaxCrossEntropy(const tensor::Matrix& logits,
                               const std::vector<std::int32_t>& labels) {
  assert(logits.rows() == labels.size());
  const std::size_t n = logits.rows();
  const std::size_t c = logits.cols();
  LossResult out;
  out.grad_logits = tensor::SoftmaxRows(logits);
  const tensor::Matrix log_probs = tensor::LogSoftmaxRows(logits);
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t y = labels[i];
    assert(y >= 0 && static_cast<std::size_t>(y) < c);
    loss -= log_probs.at(i, y);
    float* g = out.grad_logits.row(i);
    g[y] -= 1.0f;
    for (std::size_t j = 0; j < c; ++j) g[j] *= inv_n;
  }
  out.loss = static_cast<float>(loss / n);
  return out;
}

tensor::Matrix SoftTargetCrossEntropyGrad(const tensor::Matrix& logits,
                                          const tensor::Matrix& targets,
                                          float temperature) {
  assert(logits.SameShape(targets));
  assert(temperature > 0.0f);
  tensor::Matrix grad = tensor::SoftmaxRows(logits, temperature);
  const float inv_nt =
      1.0f / (static_cast<float>(logits.rows()) * temperature);
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const float* t = targets.row(i);
    float* g = grad.row(i);
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      g[j] = (g[j] - t[j]) * inv_nt;
    }
  }
  return grad;
}

LossResult SoftTargetCrossEntropy(const tensor::Matrix& logits,
                                  const tensor::Matrix& targets,
                                  float temperature) {
  const std::size_t n = logits.rows();
  const std::size_t c = logits.cols();
  LossResult out;
  out.grad_logits = SoftTargetCrossEntropyGrad(logits, targets, temperature);

  // log softmax(z/T), computed stably from the scaled logits.
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float* z = logits.row(i);
    const float* t = targets.row(i);
    float maxv = z[0] / temperature;
    for (std::size_t j = 1; j < c; ++j) {
      maxv = std::max(maxv, z[j] / temperature);
    }
    float sum = 0.0f;
    for (std::size_t j = 0; j < c; ++j) {
      sum += std::exp(z[j] / temperature - maxv);
    }
    const float lse = maxv + std::log(sum);
    for (std::size_t j = 0; j < c; ++j) {
      loss -= t[j] * (z[j] / temperature - lse);
    }
  }
  out.loss = static_cast<float>(loss / n);
  return out;
}

LossResult CrossEntropyOnProbabilities(
    const tensor::Matrix& probs, const std::vector<std::int32_t>& labels) {
  assert(probs.rows() == labels.size());
  const std::size_t n = probs.rows();
  LossResult out;
  out.grad_logits.Resize(probs.rows(), probs.cols());
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  constexpr float kEps = 1e-8f;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t y = labels[i];
    const float p = std::max(probs.at(i, y), kEps);
    loss -= std::log(p);
    out.grad_logits.at(i, y) = -inv_n / p;
  }
  out.loss = static_cast<float>(loss / n);
  return out;
}

float Accuracy(const tensor::Matrix& logits,
               const std::vector<std::int32_t>& labels) {
  assert(logits.rows() == labels.size());
  if (labels.empty()) return 0.0f;
  const std::vector<std::int32_t> pred = tensor::ArgmaxRows(logits);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (pred[i] == labels[i]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(labels.size());
}

}  // namespace nai::nn
