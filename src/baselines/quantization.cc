#include "src/baselines/quantization.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/graph/normalize.h"
#include "src/graph/sampler.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/ops.h"

namespace nai::baselines {

QuantizedInferResult QuantizedScalableInfer(
    const graph::Graph& full_graph, const tensor::Matrix& features,
    float gamma, int depth, models::DepthHead& head,
    const nn::QuantizedMlp& qmlp, const std::vector<std::int32_t>& nodes,
    std::size_t batch_size) {
  QuantizedInferResult out;
  out.predictions.resize(nodes.size());

  const graph::Csr norm_adj = graph::NormalizedAdjacency(full_graph, gamma);
  graph::SupportSampler sampler(norm_adj);
  const std::size_t f = features.cols();

  const std::size_t bs = std::max<std::size_t>(1, batch_size);
  for (std::size_t begin = 0; begin < nodes.size(); begin += bs) {
    const std::size_t end = std::min(nodes.size(), begin + bs);
    const std::vector<std::int32_t> batch(nodes.begin() + begin,
                                          nodes.begin() + end);

    eval::Timer sample_timer;
    graph::BatchSupport support = sampler.SampleMapped(batch, depth);
    const std::vector<std::int32_t>& g2l = sampler.global_to_local();
    tensor::Matrix cur = features.GatherRows(support.nodes);
    std::vector<std::int64_t> prefix_nnz(support.nodes.size() + 1, 0);
    for (std::size_t r = 0; r < support.nodes.size(); ++r) {
      prefix_nnz[r + 1] = prefix_nnz[r] + norm_adj.RowNnz(support.nodes[r]);
    }
    const double sample_ms = sample_timer.ElapsedMs();

    std::vector<std::int32_t> batch_locals(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch_locals[i] = static_cast<std::int32_t>(i);
    }
    std::vector<tensor::Matrix> batch_stack;
    batch_stack.push_back(cur.GatherRows(batch_locals));

    // Fixed-depth propagation, exactly the vanilla path.
    eval::Timer fp_timer;
    tensor::Matrix next(support.nodes.size(), f);
    std::int64_t fp_macs = 0;
    for (int l = 1; l <= depth; ++l) {
      const std::int64_t limit = support.layer_counts[depth - l];
      graph::SpMMMappedPrefix(norm_adj, support.nodes, g2l, cur, limit,
                              next);
      fp_macs += prefix_nnz[limit] * static_cast<std::int64_t>(f);
      std::swap(cur, next);
      batch_stack.push_back(cur.GatherRows(batch_locals));
    }
    const double fp_ms = fp_timer.ElapsedMs();
    out.cost.fp_time_ms += fp_ms;
    out.cost.fp_macs += fp_macs;

    eval::Timer cls_timer;
    models::FeatureViews views;
    for (const auto& m : batch_stack) views.push_back(&m);
    const tensor::Matrix reduced = head.Reduce(views);
    const tensor::Matrix logits = qmlp.Forward(reduced);
    const std::vector<std::int32_t> pred = tensor::ArgmaxRows(logits);
    std::copy(pred.begin(), pred.end(), out.predictions.begin() + begin);
    out.cost.total_time_ms += sample_ms + fp_ms + cls_timer.ElapsedMs();
    out.cost.total_macs += fp_macs + qmlp.ForwardMacs(batch.size());
  }
  return out;
}

}  // namespace nai::baselines
