#ifndef NAI_NN_LOSS_H_
#define NAI_NN_LOSS_H_

#include <cstdint>
#include <vector>

#include "src/tensor/matrix.h"

namespace nai::nn {

/// Value and gradient of a loss over a batch of logits.
struct LossResult {
  float loss = 0.0f;
  tensor::Matrix grad_logits;  // same shape as the logits, already / batch
};

/// Mean softmax cross-entropy against integer labels (Eq. 16's L_c):
///   L = -(1/N) sum_i log softmax(z_i)[y_i]
/// Gradient: (softmax(z) - onehot(y)) / N.
LossResult SoftmaxCrossEntropy(const tensor::Matrix& logits,
                               const std::vector<std::int32_t>& labels);

/// Mean cross-entropy against soft target distributions with temperature T
/// (Hinton KD, Eqs. 14-15):
///   L = -(1/N) sum_i sum_c target_ic * log softmax(z_i / T)[c]
/// Gradient w.r.t. z: (softmax(z/T) - target) / (N * T).
/// `targets` rows must be probability distributions.
LossResult SoftTargetCrossEntropy(const tensor::Matrix& logits,
                                  const tensor::Matrix& targets,
                                  float temperature);

/// The gradient of SoftTargetCrossEntropy alone, bit-identical to its
/// `grad_logits`, for training loops that never read the loss value (it
/// skips the second exp pass the loss needs).
tensor::Matrix SoftTargetCrossEntropyGrad(const tensor::Matrix& logits,
                                          const tensor::Matrix& targets,
                                          float temperature);

/// Mean cross-entropy where the *prediction* is already a probability
/// distribution (e.g. the ensemble teacher's z̄ in Eq. 20). Returns the loss
/// and the gradient w.r.t. the probabilities themselves:
///   dL/dp_ic = -onehot_ic / (N * p_ic)   (clamped for stability)
LossResult CrossEntropyOnProbabilities(const tensor::Matrix& probs,
                                       const std::vector<std::int32_t>& labels);

/// Fraction of rows whose argmax equals the label.
float Accuracy(const tensor::Matrix& logits,
               const std::vector<std::int32_t>& labels);

}  // namespace nai::nn

#endif  // NAI_NN_LOSS_H_
