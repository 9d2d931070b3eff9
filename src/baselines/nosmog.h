#ifndef NAI_BASELINES_NOSMOG_H_
#define NAI_BASELINES_NOSMOG_H_

#include <cstdint>
#include <vector>

#include "src/eval/metrics.h"
#include "src/graph/graph.h"
#include "src/nn/mlp.h"
#include "src/tensor/matrix.h"

namespace nai::baselines {

/// NOSMOG (Tian et al., ICLR 2023): GLNN plus explicit structural position
/// features, so the MLP student is no longer blind to topology. Following
/// the paper's re-implementation note (footnote 3), position features for
/// unseen nodes are aggregated from their neighbors by sparse matrix
/// multiplication at inference time.
///
/// Substitution: DeepWalk embeddings are replaced
/// by a smoothed random-projection structural embedding — `walk_smoothing`
/// rounds of neighbor averaging of a random Gaussian code over the training
/// graph. Like DeepWalk it embeds co-occurrence structure, and it exercises
/// the identical inference code path (online 1-hop aggregation for unseen
/// nodes). Adversarial feature augmentation is approximated by Gaussian
/// input noise during training.
struct NosmogConfig {
  std::vector<std::size_t> hidden_dims;
  std::size_t position_dim = 16;
  int walk_smoothing = 4;
  float feature_noise = 0.05f;  ///< adversarial-augmentation stand-in
  float dropout = 0.1f;
  int epochs = 200;
  float learning_rate = 1e-2f;
  float weight_decay = 0.0f;
  float temperature = 1.0f;
  float lambda = 0.5f;
  std::uint64_t seed = 13;
};

struct NosmogResult {
  std::vector<std::int32_t> predictions;
  eval::CostCounters cost;
};

class Nosmog {
 public:
  Nosmog(std::size_t feature_dim, std::size_t num_classes,
         const NosmogConfig& config);

  /// Trains on the training graph: builds position features on
  /// `train_graph`, distills from `teacher_logits` (rows = train-graph
  /// local nodes).
  void Train(const graph::Graph& train_graph, const tensor::Matrix& features,
             const tensor::Matrix& teacher_logits,
             const std::vector<std::int32_t>& labels,
             const std::vector<std::int32_t>& labeled);

  /// Classifies nodes of the full graph. Position features of unseen nodes
  /// are aggregated online from training neighbors (the FP cost of NOSMOG).
  /// `train_nodes[i]` is the global id of train-graph local node i.
  NosmogResult Infer(const graph::Graph& full_graph,
                     const tensor::Matrix& full_features,
                     const std::vector<std::int32_t>& train_nodes,
                     const std::vector<std::int32_t>& query_nodes);

  const tensor::Matrix& train_positions() const { return train_positions_; }

 private:
  NosmogConfig config_;
  nn::Mlp mlp_;
  tensor::Rng rng_;
  tensor::Matrix train_positions_;  // train-local rows x position_dim
};

}  // namespace nai::baselines

#endif  // NAI_BASELINES_NOSMOG_H_
