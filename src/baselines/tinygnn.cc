#include "src/baselines/tinygnn.h"

#include <cassert>
#include <cmath>

#include "src/nn/adam.h"
#include "src/nn/loss.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"

namespace nai::baselines {

TinyGnn::TinyGnn(std::size_t feature_dim, std::size_t num_classes,
                 const TinyGnnConfig& config)
    : feature_dim_(feature_dim), config_(config), rng_(config.seed) {
  wq_.Resize(feature_dim, config.attention_dim);
  wk_.Resize(feature_dim, config.attention_dim);
  wv_.Resize(feature_dim, config.attention_dim);
  tensor::FillGlorot(wq_.value, rng_);
  tensor::FillGlorot(wk_.value, rng_);
  tensor::FillGlorot(wv_.value, rng_);
  mlp_ = nn::Mlp(feature_dim + config.attention_dim, config.hidden_dims,
                 num_classes, config.dropout, rng_);
}

tensor::Matrix TinyGnn::AttentionForward(
    const graph::Graph& graph, const tensor::Matrix& features,
    const std::vector<std::int32_t>& targets, bool train,
    std::int64_t* macs) {
  const std::size_t d = config_.attention_dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  // Projections over all source nodes. (At inference the caller passes a
  // gathered feature matrix covering exactly the supporting set.)
  const tensor::Matrix q = tensor::MatMul(features, wq_.value);
  const tensor::Matrix k = tensor::MatMul(features, wk_.value);
  const tensor::Matrix v = tensor::MatMul(features, wv_.value);
  if (macs != nullptr) {
    *macs += 3 * static_cast<std::int64_t>(features.rows()) *
             static_cast<std::int64_t>(feature_dim_) *
             static_cast<std::int64_t>(d);
  }

  tensor::Matrix h(targets.size(), d);
  std::vector<std::vector<std::int32_t>> peers(targets.size());
  std::vector<std::vector<float>> alphas(targets.size());
  std::int64_t edge_work = 0;
  for (std::size_t ti = 0; ti < targets.size(); ++ti) {
    const std::int32_t i = targets[ti];
    // Peers: self + 1-hop neighbors.
    std::vector<std::int32_t>& peer = peers[ti];
    peer.push_back(i);
    for (const auto* it = graph.neighbors_begin(i);
         it != graph.neighbors_end(i); ++it) {
      peer.push_back(*it);
    }
    std::vector<float>& alpha = alphas[ti];
    alpha.resize(peer.size());
    const float* qi = q.row(i);
    float max_s = -1e30f;
    for (std::size_t pj = 0; pj < peer.size(); ++pj) {
      const float* kj = k.row(peer[pj]);
      float s = 0.0f;
      for (std::size_t t = 0; t < d; ++t) s += qi[t] * kj[t];
      alpha[pj] = s * scale;
      max_s = std::max(max_s, alpha[pj]);
    }
    float sum = 0.0f;
    for (float& a : alpha) {
      a = std::exp(a - max_s);
      sum += a;
    }
    float* hrow = h.row(ti);
    for (std::size_t pj = 0; pj < peer.size(); ++pj) {
      alpha[pj] /= sum;
      const float* vj = v.row(peer[pj]);
      for (std::size_t t = 0; t < d; ++t) hrow[t] += alpha[pj] * vj[t];
    }
    edge_work += static_cast<std::int64_t>(peer.size());
  }
  if (macs != nullptr) *macs += 2 * edge_work * static_cast<std::int64_t>(d);

  if (train) {
    cache_.features = features;
    cache_.q = q;
    cache_.k = k;
    cache_.v = v;
    cache_.targets = targets;
    cache_.peers = std::move(peers);
    cache_.alphas = std::move(alphas);
  }
  return h;
}

void TinyGnn::AttentionBackward(const tensor::Matrix& grad_h) {
  const std::size_t d = config_.attention_dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const std::size_t n = cache_.features.rows();
  tensor::Matrix dq(n, d), dk(n, d), dv(n, d);

  for (std::size_t ti = 0; ti < cache_.targets.size(); ++ti) {
    const std::int32_t i = cache_.targets[ti];
    const auto& peer = cache_.peers[ti];
    const auto& alpha = cache_.alphas[ti];
    const float* gh = grad_h.row(ti);

    // dα_ij = gh · v_j ; dv_j += α_ij gh
    std::vector<float> dalpha(peer.size());
    for (std::size_t pj = 0; pj < peer.size(); ++pj) {
      const float* vj = cache_.v.row(peer[pj]);
      float dot = 0.0f;
      float* dvj = dv.row(peer[pj]);
      for (std::size_t t = 0; t < d; ++t) {
        dot += gh[t] * vj[t];
        dvj[t] += alpha[pj] * gh[t];
      }
      dalpha[pj] = dot;
    }
    // softmax backward: ds_ij = α_ij (dα_ij − Σ_k dα_ik α_ik)
    float mix = 0.0f;
    for (std::size_t pj = 0; pj < peer.size(); ++pj) {
      mix += dalpha[pj] * alpha[pj];
    }
    const float* qi = cache_.q.row(i);
    float* dqi = dq.row(i);
    for (std::size_t pj = 0; pj < peer.size(); ++pj) {
      const float ds = alpha[pj] * (dalpha[pj] - mix) * scale;
      const float* kj = cache_.k.row(peer[pj]);
      float* dkj = dk.row(peer[pj]);
      for (std::size_t t = 0; t < d; ++t) {
        dqi[t] += ds * kj[t];
        dkj[t] += ds * qi[t];
      }
    }
  }
  tensor::AddInPlace(wq_.grad, tensor::MatMulTransposeA(cache_.features, dq));
  tensor::AddInPlace(wk_.grad, tensor::MatMulTransposeA(cache_.features, dk));
  tensor::AddInPlace(wv_.grad, tensor::MatMulTransposeA(cache_.features, dv));
}

void TinyGnn::Train(const graph::Graph& train_graph,
                    const tensor::Matrix& features,
                    const tensor::Matrix& teacher_logits,
                    const std::vector<std::int32_t>& labels,
                    const std::vector<std::int32_t>& labeled) {
  const std::size_t n = train_graph.num_nodes();
  assert(features.rows() == n);
  std::vector<std::int32_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<std::int32_t>(i);

  const float T = config_.temperature;
  const tensor::Matrix teacher_soft = tensor::SoftmaxRows(teacher_logits, T);

  nn::Adam adam({.learning_rate = config_.learning_rate,
                 .weight_decay = config_.weight_decay});
  {
    std::vector<nn::Parameter*> params{&wq_, &wk_, &wv_};
    mlp_.CollectParameters(params);
    adam.Register(params);
  }

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    adam.ZeroGrad();
    const tensor::Matrix h =
        AttentionForward(train_graph, features, all, /*train=*/true, nullptr);
    const tensor::Matrix input = tensor::ConcatCols({&features, &h});
    const tensor::Matrix logits = mlp_.Forward(input, /*train=*/true, &rng_);

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

    const tensor::Matrix grad_input =
        mlp_.Backward(grad, /*input_grad=*/true);
    // Split the input gradient: columns [f, f+d) feed the attention module.
    tensor::Matrix grad_h(n, config_.attention_dim);
    for (std::size_t i = 0; i < n; ++i) {
      const float* gi = grad_input.row(i) + feature_dim_;
      float* go = grad_h.row(i);
      for (std::size_t t = 0; t < config_.attention_dim; ++t) go[t] = gi[t];
    }
    AttentionBackward(grad_h);
    adam.Step();
  }
}

TinyGnnResult TinyGnn::Infer(const graph::Graph& full_graph,
                             const tensor::Matrix& full_features,
                             const std::vector<std::int32_t>& query_nodes) {
  TinyGnnResult out;
  eval::Timer fp_timer;
  std::int64_t fp_macs = 0;
  // The attention forward projects every row of the feature matrix it is
  // given; passing the full matrix here mirrors deployments that keep all
  // projections resident, but for a fair online-inference cost we restrict
  // the projection to the supporting set: queries + their 1-hop peers.
  std::vector<std::int32_t> support;
  std::vector<std::int32_t> mark(full_graph.num_nodes(), -1);
  for (const std::int32_t v : query_nodes) {
    if (mark[v] < 0) {
      mark[v] = static_cast<std::int32_t>(support.size());
      support.push_back(v);
    }
    for (const auto* it = full_graph.neighbors_begin(v);
         it != full_graph.neighbors_end(v); ++it) {
      if (mark[*it] < 0) {
        mark[*it] = static_cast<std::int32_t>(support.size());
        support.push_back(*it);
      }
    }
  }
  const tensor::Matrix support_feats = full_features.GatherRows(support);
  // Build the local 1-hop graph over the supporting set.
  std::vector<std::pair<std::int32_t, std::int32_t>> local_edges;
  for (const std::int32_t v : query_nodes) {
    for (const auto* it = full_graph.neighbors_begin(v);
         it != full_graph.neighbors_end(v); ++it) {
      local_edges.emplace_back(mark[v], mark[*it]);
    }
  }
  const graph::Graph local =
      graph::Graph::FromEdges(support.size(), local_edges);
  std::vector<std::int32_t> local_targets(query_nodes.size());
  for (std::size_t i = 0; i < query_nodes.size(); ++i) {
    local_targets[i] = mark[query_nodes[i]];
  }
  const tensor::Matrix h = AttentionForward(local, support_feats,
                                            local_targets, /*train=*/false,
                                            &fp_macs);
  out.cost.fp_time_ms = fp_timer.ElapsedMs();
  out.cost.fp_macs = fp_macs;

  eval::Timer cls_timer;
  const tensor::Matrix query_feats = full_features.GatherRows(query_nodes);
  const tensor::Matrix input = tensor::ConcatCols({&query_feats, &h});
  const tensor::Matrix logits = mlp_.Forward(input, /*train=*/false);
  out.predictions = tensor::ArgmaxRows(logits);
  out.cost.total_time_ms = out.cost.fp_time_ms + cls_timer.ElapsedMs();
  out.cost.total_macs = fp_macs + mlp_.ForwardMacs(query_nodes.size());
  return out;
}

}  // namespace nai::baselines
