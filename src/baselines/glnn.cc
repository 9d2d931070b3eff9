#include "src/baselines/glnn.h"

#include <cassert>

#include "src/nn/adam.h"
#include "src/nn/loss.h"
#include "src/tensor/ops.h"

namespace nai::baselines {

Glnn::Glnn(std::size_t feature_dim, std::size_t num_classes,
           const GlnnConfig& config)
    : config_(config), rng_(config.seed) {
  mlp_ = nn::Mlp(feature_dim, config.hidden_dims, num_classes,
                 config.dropout, rng_);
}

void Glnn::Train(const tensor::Matrix& features,
                 const tensor::Matrix& teacher_logits,
                 const std::vector<std::int32_t>& labels,
                 const std::vector<std::int32_t>& labeled) {
  assert(features.rows() == teacher_logits.rows());
  assert(features.rows() == labels.size());
  const float T = config_.temperature;
  const tensor::Matrix teacher_soft =
      tensor::SoftmaxRows(teacher_logits, T);

  nn::Adam adam({.learning_rate = config_.learning_rate,
                 .weight_decay = config_.weight_decay});
  {
    std::vector<nn::Parameter*> params;
    mlp_.CollectParameters(params);
    adam.Register(params);
  }

  // Hard-label CE restricted to V_l, soft KD over all training rows — the
  // same mixture as Eq. 17, with the GNN teacher's soft targets.
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    adam.ZeroGrad();
    const tensor::Matrix logits = mlp_.Forward(features, /*train=*/true,
                                               &rng_);
    tensor::Matrix grad =
        nn::SoftTargetCrossEntropyGrad(logits, teacher_soft, T);
    tensor::ScaleInPlace(grad, config_.lambda * T * T);
    // Masked hard-label term.
    const tensor::Matrix probs = tensor::SoftmaxRows(logits);
    const float w = (1.0f - config_.lambda) /
                    static_cast<float>(labeled.size());
    for (const std::int32_t i : labeled) {
      float* g = grad.row(i);
      const float* p = probs.row(i);
      for (std::size_t j = 0; j < logits.cols(); ++j) g[j] += w * p[j];
      g[labels[i]] -= w;
    }
    mlp_.Backward(grad, /*input_grad=*/false);
    adam.Step();
  }
}

GlnnResult Glnn::Infer(const tensor::Matrix& features) {
  GlnnResult out;
  eval::Timer timer;
  const tensor::Matrix logits = mlp_.Forward(features, /*train=*/false);
  out.predictions = tensor::ArgmaxRows(logits);
  out.cost.total_time_ms = timer.ElapsedMs();
  out.cost.total_macs = mlp_.ForwardMacs(features.rows());
  // No feature propagation at all: FP MACs and FP time are zero.
  return out;
}

}  // namespace nai::baselines
