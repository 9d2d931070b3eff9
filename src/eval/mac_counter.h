#ifndef NAI_EVAL_MAC_COUNTER_H_
#define NAI_EVAL_MAC_COUNTER_H_

#include <cstdint>

#include "src/core/complexity.h"
#include "src/core/inference.h"
#include "src/graph/sampler.h"

namespace nai::eval {

/// Analytic MACs of fixed-depth propagation over one batch's supporting
/// structure: sum over hops l of nnz(rows within depth-l hops) * f.
/// This is the exact work SpMMPrefix performs (Table I's "kmf" with m the
/// touched-edge count).
std::int64_t FixedDepthPropagationMacs(const graph::BatchSupport& support,
                                       int depth, std::int64_t feature_dim);

/// Builds Table-I symbolic parameters from a measured inference run, so the
/// analytic formulas can be cross-checked against engine counters:
/// n = nodes classified, f = feature dim, p = classifier layers,
/// k = t_max, q = measured average depth, and m = touched edges per unit
/// depth inferred from the measured propagation MACs.
core::ComplexityParams ParamsFromStats(const core::InferenceStats& stats,
                                       std::int64_t feature_dim,
                                       std::int64_t classifier_layers,
                                       int t_max);

}  // namespace nai::eval

#endif  // NAI_EVAL_MAC_COUNTER_H_
