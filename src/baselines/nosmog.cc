#include "src/baselines/nosmog.h"

#include <cassert>

#include "src/graph/normalize.h"
#include "src/nn/adam.h"
#include "src/nn/loss.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"

namespace nai::baselines {

Nosmog::Nosmog(std::size_t feature_dim, std::size_t num_classes,
               const NosmogConfig& config)
    : config_(config), rng_(config.seed) {
  mlp_ = nn::Mlp(feature_dim + config.position_dim, config.hidden_dims,
                 num_classes, config.dropout, rng_);
}

void Nosmog::Train(const graph::Graph& train_graph,
                   const tensor::Matrix& features,
                   const tensor::Matrix& teacher_logits,
                   const std::vector<std::int32_t>& labels,
                   const std::vector<std::int32_t>& labeled) {
  assert(static_cast<std::int64_t>(features.rows()) ==
         train_graph.num_nodes());

  // Structural embedding: random Gaussian code smoothed over the graph.
  train_positions_.Resize(train_graph.num_nodes(), config_.position_dim);
  tensor::FillGaussian(train_positions_, 1.0f, rng_);
  const graph::Csr adj = graph::NormalizedAdjacency(train_graph, 1.0f);
  for (int it = 0; it < config_.walk_smoothing; ++it) {
    train_positions_ = graph::SpMM(adj, train_positions_);
  }
  tensor::NormalizeRowsInPlace(train_positions_);

  const tensor::Matrix input =
      tensor::ConcatCols({&features, &train_positions_});
  const float T = config_.temperature;
  const tensor::Matrix teacher_soft = tensor::SoftmaxRows(teacher_logits, T);

  nn::Adam adam({.learning_rate = config_.learning_rate,
                 .weight_decay = config_.weight_decay});
  {
    std::vector<nn::Parameter*> params;
    mlp_.CollectParameters(params);
    adam.Register(params);
  }

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    adam.ZeroGrad();
    // Gaussian input perturbation as the adversarial-augmentation stand-in.
    tensor::Matrix noisy = input;
    if (config_.feature_noise > 0.0f) {
      float* d = noisy.data();
      for (std::size_t i = 0; i < noisy.size(); ++i) {
        d[i] += config_.feature_noise * rng_.NextGaussian();
      }
    }
    const tensor::Matrix logits = mlp_.Forward(noisy, /*train=*/true, &rng_);
    tensor::Matrix grad =
        nn::SoftTargetCrossEntropyGrad(logits, teacher_soft, T);
    tensor::ScaleInPlace(grad, config_.lambda * T * T);
    const tensor::Matrix probs = tensor::SoftmaxRows(logits);
    const float w =
        (1.0f - config_.lambda) / static_cast<float>(labeled.size());
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

NosmogResult Nosmog::Infer(const graph::Graph& full_graph,
                           const tensor::Matrix& full_features,
                           const std::vector<std::int32_t>& train_nodes,
                           const std::vector<std::int32_t>& query_nodes) {
  NosmogResult out;
  const std::size_t pd = config_.position_dim;

  // Scatter the trained position features to global ids once (setup cost,
  // not counted: a deployment would store them this way).
  std::vector<std::int32_t> global_to_train(full_graph.num_nodes(), -1);
  for (std::size_t i = 0; i < train_nodes.size(); ++i) {
    global_to_train[train_nodes[i]] = static_cast<std::int32_t>(i);
  }

  eval::Timer fp_timer;
  // Online position aggregation for the queried (unseen) nodes: mean of the
  // known neighbors' position features — one sparse matmul worth of work.
  tensor::Matrix positions(query_nodes.size(), pd);
  std::int64_t agg_macs = 0;
  for (std::size_t qi = 0; qi < query_nodes.size(); ++qi) {
    const std::int32_t v = query_nodes[qi];
    float* prow = positions.row(qi);
    if (global_to_train[v] >= 0) {
      const float* src = train_positions_.row(global_to_train[v]);
      for (std::size_t j = 0; j < pd; ++j) prow[j] = src[j];
      continue;
    }
    std::int64_t known = 0;
    for (const auto* it = full_graph.neighbors_begin(v);
         it != full_graph.neighbors_end(v); ++it) {
      const std::int32_t t = global_to_train[*it];
      if (t < 0) continue;
      const float* src = train_positions_.row(t);
      for (std::size_t j = 0; j < pd; ++j) prow[j] += src[j];
      ++known;
    }
    agg_macs += known * static_cast<std::int64_t>(pd);
    if (known > 0) {
      const float inv = 1.0f / static_cast<float>(known);
      for (std::size_t j = 0; j < pd; ++j) prow[j] *= inv;
    }
  }
  out.cost.fp_time_ms = fp_timer.ElapsedMs();
  out.cost.fp_macs = agg_macs;

  eval::Timer total_timer;
  const tensor::Matrix feats = full_features.GatherRows(query_nodes);
  const tensor::Matrix input = tensor::ConcatCols({&feats, &positions});
  const tensor::Matrix logits = mlp_.Forward(input, /*train=*/false);
  out.predictions = tensor::ArgmaxRows(logits);
  out.cost.total_time_ms = out.cost.fp_time_ms + total_timer.ElapsedMs();
  out.cost.total_macs =
      out.cost.fp_macs + mlp_.ForwardMacs(query_nodes.size());
  return out;
}

}  // namespace nai::baselines
