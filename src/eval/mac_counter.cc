#include "src/eval/mac_counter.h"

#include <cassert>

namespace nai::eval {

std::int64_t FixedDepthPropagationMacs(const graph::BatchSupport& support,
                                       int depth, std::int64_t feature_dim) {
  assert(depth + 1 <= static_cast<int>(support.layer_counts.size()));
  std::int64_t macs = 0;
  for (int l = 1; l <= depth; ++l) {
    const std::int64_t limit = support.layer_counts[depth - l];
    macs += support.sub_adj.row_ptr[limit] * feature_dim;
  }
  return macs;
}

core::ComplexityParams ParamsFromStats(const core::InferenceStats& stats,
                                       std::int64_t feature_dim,
                                       std::int64_t classifier_layers,
                                       int t_max) {
  core::ComplexityParams p;
  p.n = stats.num_nodes;
  p.f = feature_dim;
  p.p = classifier_layers;
  p.k = static_cast<double>(t_max);
  p.q = stats.average_depth();
  // propagation_macs ≈ q * m * f  =>  m ≈ propagation_macs / (q * f).
  const double qf = p.q * static_cast<double>(feature_dim);
  p.m = qf > 0.0 ? static_cast<std::int64_t>(
                       static_cast<double>(stats.propagation_macs) / qf)
                 : 0;
  return p;
}

}  // namespace nai::eval
