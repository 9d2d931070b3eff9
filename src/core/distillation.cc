#include "src/core/distillation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "src/nn/adam.h"
#include "src/nn/loss.h"
#include "src/runtime/error.h"
#include "src/tensor/ops.h"

namespace nai::core {

namespace {

/// Gradient of the cross-entropy restricted to the `positions` rows of
/// `logits` (the V_l subset), averaged over |positions| (Eq. 16); gradient
/// rows outside `positions` are zero. No caller reads the loss value, so it
/// is not computed.
tensor::Matrix MaskedSoftmaxCrossEntropy(
    const tensor::Matrix& logits, const std::vector<std::int32_t>& labels,
    const std::vector<std::int32_t>& positions) {
  assert(!positions.empty());
  tensor::Matrix grad(logits.rows(), logits.cols());
  const tensor::Matrix probs = tensor::SoftmaxRows(logits);
  const float inv_n = 1.0f / static_cast<float>(positions.size());
  for (const std::int32_t i : positions) {
    float* g = grad.row(i);
    const float* p = probs.row(i);
    for (std::size_t j = 0; j < logits.cols(); ++j) g[j] = p[j] * inv_n;
    g[labels[i]] -= inv_n;
  }
  return grad;
}

}  // namespace

InceptionDistillation::InceptionDistillation(ClassifierStack& classifiers,
                                             const DistillConfig& config)
    : classifiers_(classifiers), config_(config) {
  // Softmax(z / T) and the T^2 loss weight divide by T.
  for (const float t : {config.temperature_single, config.temperature_multi}) {
    if (!(std::isfinite(t) && t > 0.0f)) {
      throw ValidationError(
          "InceptionDistillation: temperatures must be finite and > 0, got " +
          std::to_string(t));
    }
  }
}

void InceptionDistillation::TrainHeadPlain(
    int l, const GatheredStack& train_feats,
    const std::vector<std::int32_t>& labels,
    const std::vector<std::int32_t>& labeled) {
  tensor::Rng rng(config_.seed + static_cast<std::uint64_t>(l) * 1315423911u);
  nn::Adam adam({.learning_rate = config_.learning_rate,
                 .weight_decay = config_.weight_decay});
  adam.Register(classifiers_.HeadParameters(l));
  for (int epoch = 0; epoch < config_.base_epochs; ++epoch) {
    adam.ZeroGrad();
    const tensor::Matrix logits =
        classifiers_.LogitsTrain(l, train_feats, rng);
    classifiers_.head(l).Backward(
        MaskedSoftmaxCrossEntropy(logits, labels, labeled));
    adam.Step();
  }
}

void InceptionDistillation::TrainBase(
    const GatheredStack& train_feats, const std::vector<std::int32_t>& labels,
    const std::vector<std::int32_t>& labeled) {
  TrainHeadPlain(classifiers_.depth(), train_feats, labels, labeled);
}

void InceptionDistillation::SingleScale(
    const GatheredStack& train_feats, const std::vector<std::int32_t>& labels,
    const std::vector<std::int32_t>& labeled) {
  const int k = classifiers_.depth();
  const float T = config_.temperature_single;
  const float lambda = config_.lambda_single;

  // Teacher soft targets p̃^(k) = softmax(z^(k)/T), fixed during this stage
  // (Eq. 14; the teacher was trained in step 2).
  const tensor::Matrix teacher_logits =
      classifiers_.Logits(k, train_feats);
  const tensor::Matrix teacher_soft = tensor::SoftmaxRows(teacher_logits, T);

  for (int l = 1; l <= k - 1; ++l) {
    tensor::Rng rng(config_.seed + 7777u * static_cast<std::uint64_t>(l));
    nn::Adam adam({.learning_rate = config_.learning_rate,
                   .weight_decay = config_.weight_decay});
    adam.Register(classifiers_.HeadParameters(l));
    for (int epoch = 0; epoch < config_.single_epochs; ++epoch) {
      adam.ZeroGrad();
      const tensor::Matrix logits =
          classifiers_.LogitsTrain(l, train_feats, rng);
      // L_single = (1-λ) L_c + λ T² L_d  (Eq. 17)
      tensor::Matrix grad = MaskedSoftmaxCrossEntropy(logits, labels, labeled);
      tensor::ScaleInPlace(grad, 1.0f - lambda);
      tensor::Axpy(grad, lambda * T * T,
                   nn::SoftTargetCrossEntropyGrad(logits, teacher_soft, T));
      classifiers_.head(l).Backward(grad);
      adam.Step();
    }
  }
}

void InceptionDistillation::MultiScale(
    const GatheredStack& train_feats, const std::vector<std::int32_t>& labels,
    const std::vector<std::int32_t>& labeled) {
  const int k = classifiers_.depth();
  const int r = std::min(config_.ensemble_size, k);
  const float T = config_.temperature_multi;
  const float lambda = config_.lambda_multi;
  const std::size_t c = classifiers_.config().num_classes;
  tensor::Rng rng(config_.seed * 31 + 5);

  // Ensemble teacher members: the r deepest classifiers (Eq. 18).
  std::vector<int> members;
  for (int l = k - r + 1; l <= k; ++l) members.push_back(l);

  nn::VectorAttention attention(members.size(), c, rng);

  // One optimizer over everything that trains jointly: all student heads,
  // the ensemble members (which overlap the students for l < k), and the
  // attention reference vectors (the "trainable regularization" of Eq. 19).
  nn::Adam adam({.learning_rate = config_.learning_rate,
                 .weight_decay = config_.weight_decay});
  {
    std::vector<nn::Parameter*> params;
    for (int l = 1; l <= k; ++l) {
      auto head_params = classifiers_.HeadParameters(l);
      params.insert(params.end(), head_params.begin(), head_params.end());
    }
    attention.CollectParameters(params);
    adam.Register(params);
  }

  const std::size_t n = train_feats.num_rows();
  for (int epoch = 0; epoch < config_.multi_epochs; ++epoch) {
    adam.ZeroGrad();

    // ---- Teacher path: forward members, build z̄, backprop L_t. ----------
    // Member forwards use train mode so L_t's gradient reaches them; this
    // happens *before* the student forwards overwrite the heads' caches.
    std::vector<tensor::Matrix> member_probs(members.size());
    models::FeatureViews prob_views;
    for (std::size_t mi = 0; mi < members.size(); ++mi) {
      const tensor::Matrix logits =
          classifiers_.LogitsTrain(members[mi], train_feats, rng);
      member_probs[mi] = tensor::SoftmaxRows(logits);
    }
    for (const auto& p : member_probs) prob_views.push_back(&p);

    const tensor::Matrix mixed = attention.Forward(prob_views, /*train=*/true);
    const tensor::Matrix ensemble = tensor::SoftmaxRows(mixed);  // z̄ (Eq. 18)

    // L_t = CE(z̄, y) over V_l (Eq. 20). Combined softmax+CE gradient,
    // masked to labeled rows.
    tensor::Matrix grad_mixed(n, c);
    {
      const float inv_l = 1.0f / static_cast<float>(labeled.size());
      for (const std::int32_t i : labeled) {
        const float* z = ensemble.row(i);
        float* g = grad_mixed.row(i);
        for (std::size_t j = 0; j < c; ++j) g[j] = z[j] * inv_l;
        g[labels[i]] -= inv_l;
      }
    }
    std::vector<tensor::Matrix> grad_views;
    attention.Backward(grad_mixed, &grad_views);
    for (std::size_t mi = 0; mi < members.size(); ++mi) {
      // Through ỹ = softmax(z): dz = ỹ ⊙ (dỹ − (dỹ·ỹ)).
      tensor::Matrix grad_logits(n, c);
      for (std::size_t i = 0; i < n; ++i) {
        const float* y = member_probs[mi].row(i);
        const float* dy = grad_views[mi].row(i);
        float mix = 0.0f;
        for (std::size_t j = 0; j < c; ++j) mix += dy[j] * y[j];
        float* g = grad_logits.row(i);
        for (std::size_t j = 0; j < c; ++j) g[j] = y[j] * (dy[j] - mix);
      }
      classifiers_.head(members[mi]).Backward(grad_logits);
    }

    // Teacher soft targets for the students: p̄ = softmax(z̄ / T) (Eq. 21),
    // detached — student losses do not push the teacher around directly.
    const tensor::Matrix teacher_soft = tensor::SoftmaxRows(ensemble, T);

    // ---- Student path: L_multi = L_t + (1-λ) L_c + λ T² L_e (Eq. 19). ----
    for (int l = 1; l <= k - 1; ++l) {
      const tensor::Matrix logits =
          classifiers_.LogitsTrain(l, train_feats, rng);
      tensor::Matrix grad = MaskedSoftmaxCrossEntropy(logits, labels, labeled);
      tensor::ScaleInPlace(grad, 1.0f - lambda);
      tensor::Axpy(grad, lambda * T * T,
                   nn::SoftTargetCrossEntropyGrad(logits, teacher_soft, T));
      classifiers_.head(l).Backward(grad);
    }
    adam.Step();
  }
}

void InceptionDistillation::TrainAll(
    const GatheredStack& train_feats, const std::vector<std::int32_t>& labels,
    const std::vector<std::int32_t>& labeled) {
  TrainBase(train_feats, labels, labeled);
  if (config_.enable_single) {
    SingleScale(train_feats, labels, labeled);
  } else {
    // Without Single-Scale Distillation the shallow classifiers still need
    // to be trained; plain CE is the "w/o SS" / "w/o ID" starting point.
    for (int l = 1; l <= classifiers_.depth() - 1; ++l) {
      TrainHeadPlain(l, train_feats, labels, labeled);
    }
  }
  if (config_.enable_multi) {
    MultiScale(train_feats, labels, labeled);
  }
}

}  // namespace nai::core
