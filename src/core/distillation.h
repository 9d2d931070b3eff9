#ifndef NAI_CORE_DISTILLATION_H_
#define NAI_CORE_DISTILLATION_H_

#include <cstdint>
#include <vector>

#include "src/core/classifier_stack.h"
#include "src/nn/attention.h"
#include "src/tensor/matrix.h"

namespace nai::core {

/// Hyper-parameters of classifier training + Inception Distillation
/// (paper §III-C; the T/λ values mirror Tables III-IV).
struct DistillConfig {
  int base_epochs = 150;    ///< CE training of the teacher f^(k) (step 2)
  int single_epochs = 100;  ///< Single-Scale Distillation (step 3)
  int multi_epochs = 100;   ///< Multi-Scale Distillation (step 4)
  float learning_rate = 1e-2f;
  float weight_decay = 0.0f;
  float temperature_single = 1.2f;  ///< T for Eq. 14
  float lambda_single = 0.5f;       ///< λ for Eq. 17
  float temperature_multi = 1.5f;   ///< T for Eq. 21
  float lambda_multi = 0.5f;        ///< λ for Eq. 19
  int ensemble_size = 3;            ///< r, teachers voting in Eq. 18
  bool enable_single = true;        ///< ablation: "NAI w/o SS"
  bool enable_multi = true;         ///< ablation: "NAI w/o MS"
  std::uint64_t seed = 99;
};

/// Trains the per-depth classifier bank with Inception Distillation
/// (paper Fig. 2, right): first the deepest classifier f^(k) on hard labels,
/// then Single-Scale Distillation of f^(k) into each shallower classifier
/// (Eqs. 14-17), then Multi-Scale Distillation from a trainable
/// self-attention ensemble of the r deepest classifiers (Eqs. 18-21).
///
/// All methods operate on a feature stack already gathered to the training
/// rows: `labels[i]` is the label of row i; `labeled` lists the rows of V_l
/// (hard supervision); every row participates as V_train in the KD terms.
class InceptionDistillation {
 public:
  /// Throws ValidationError unless both temperatures are finite and > 0.
  InceptionDistillation(ClassifierStack& classifiers,
                        const DistillConfig& config);

  /// Step 2: trains f^(k) with cross-entropy on the labeled rows.
  void TrainBase(const GatheredStack& train_feats,
                 const std::vector<std::int32_t>& labels,
                 const std::vector<std::int32_t>& labeled);

  /// Trains head `l` with plain cross-entropy (no distillation). Used for
  /// the "NAI w/o ID" ablation and as the fallback when both stages are
  /// disabled.
  void TrainHeadPlain(int l, const GatheredStack& train_feats,
                      const std::vector<std::int32_t>& labels,
                      const std::vector<std::int32_t>& labeled);

  /// Step 3: Single-Scale Distillation of f^(k) into f^(1..k-1).
  void SingleScale(const GatheredStack& train_feats,
                   const std::vector<std::int32_t>& labels,
                   const std::vector<std::int32_t>& labeled);

  /// Step 4: Multi-Scale Distillation from the r-member ensemble teacher.
  /// Students, attention vectors s^(l), and the ensemble update jointly.
  void MultiScale(const GatheredStack& train_feats,
                  const std::vector<std::int32_t>& labels,
                  const std::vector<std::int32_t>& labeled);

  /// Runs the full pipeline: base training, then the enabled stages; when
  /// both stages are disabled every shallow head is trained with plain CE
  /// so the bank is still usable (the "w/o ID" configuration).
  void TrainAll(const GatheredStack& train_feats,
                const std::vector<std::int32_t>& labels,
                const std::vector<std::int32_t>& labeled);

  const DistillConfig& config() const { return config_; }

 private:
  ClassifierStack& classifiers_;
  DistillConfig config_;
};

}  // namespace nai::core

#endif  // NAI_CORE_DISTILLATION_H_
