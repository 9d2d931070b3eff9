#ifndef NAI_BASELINES_QUANTIZATION_H_
#define NAI_BASELINES_QUANTIZATION_H_

#include <cstdint>
#include <vector>

#include "src/core/classifier_stack.h"
#include "src/eval/metrics.h"
#include "src/graph/graph.h"
#include "src/nn/quantized.h"
#include "src/tensor/matrix.h"

namespace nai::baselines {

/// The paper's FP32->INT8 comparison: only the classifier arithmetic
/// (nn::QuantizedMlp, shared with the serving stack's kThroughputFirst QoS
/// tier) changes; the propagation stays in float, which is why its
/// acceleration is limited.
struct QuantizedInferResult {
  std::vector<std::int32_t> predictions;
  eval::CostCounters cost;
};

/// The Quantization baseline end to end: full fixed-depth online
/// propagation (identical to the vanilla Scalable GNN) followed by the
/// INT8 classifier. The family-specific stack reduction of `head` runs in
/// float; only its MLP is replaced by `qmlp`.
QuantizedInferResult QuantizedScalableInfer(
    const graph::Graph& full_graph, const tensor::Matrix& features,
    float gamma, int depth, models::DepthHead& head,
    const nn::QuantizedMlp& qmlp, const std::vector<std::int32_t>& nodes,
    std::size_t batch_size);

}  // namespace nai::baselines

#endif  // NAI_BASELINES_QUANTIZATION_H_
