#include "src/graph/normalize.h"

#include <cassert>
#include <cmath>

#include "src/tensor/ops.h"
#include "src/tensor/random.h"

namespace nai::graph {

void NormalizedDegreeScalers(CsrView adjacency, std::vector<float>& left,
                             std::vector<float>& right, float gamma) {
  const std::int64_t n = adjacency.rows;
  left.resize(n);
  right.resize(n);
  for (std::int64_t v = 0; v < n; ++v) {
    DegreeScalers(adjacency.RowNnz(v), gamma, left[v], right[v]);
  }
}

void DegreeScalers(std::int64_t degree, float gamma, float& left,
                   float& right) {
  const float dt = static_cast<float>(degree + 1);
  left = std::pow(dt, gamma - 1.0f);
  right = std::pow(dt, -gamma);
}

void WriteNormalizedRow(CsrView adjacency, std::int64_t v,
                        const std::vector<float>& left,
                        const std::vector<float>& right, std::int32_t* col_out,
                        float* val_out) {
  std::int64_t q = 0;
  bool self_written = false;
  for (std::int64_t p = adjacency.row_ptr[v]; p < adjacency.row_ptr[v + 1];
       ++p) {
    const std::int32_t u = adjacency.col_idx[p];
    if (!self_written && u > v) {
      col_out[q] = static_cast<std::int32_t>(v);
      val_out[q] = left[v] * right[v];
      ++q;
      self_written = true;
    }
    col_out[q] = u;
    val_out[q] = left[v] * right[u];
    ++q;
  }
  if (!self_written) {
    col_out[q] = static_cast<std::int32_t>(v);
    val_out[q] = left[v] * right[v];
    ++q;
  }
  assert(q == adjacency.RowNnz(v) + 1);
}

Csr NormalizedAdjacency(const Graph& graph, float gamma) {
  assert(gamma >= 0.0f && gamma <= 1.0f);
  const Csr& adj = graph.adjacency();
  const std::int64_t n = graph.num_nodes();

  std::vector<float> left, right;  // d̃^(γ-1) and d̃^(-γ)
  NormalizedDegreeScalers(adj, left, right, gamma);

  Csr out;
  out.rows = n;
  out.cols = n;
  out.row_ptr.assign(n + 1, 0);
  // Each row gains exactly one self-loop entry.
  for (std::int64_t v = 0; v < n; ++v) {
    out.row_ptr[v + 1] = out.row_ptr[v] + adj.RowNnz(v) + 1;
  }
  out.col_idx.resize(out.row_ptr.back());
  out.values.resize(out.row_ptr.back());
  for (std::int64_t v = 0; v < n; ++v) {
    WriteNormalizedRow(adj, v, left, right, out.col_idx.data() + out.row_ptr[v],
                       out.values.data() + out.row_ptr[v]);
  }
  return out;
}

tensor::Matrix PooledStationaryVector(const Graph& graph,
                                      const tensor::Matrix& features,
                                      float gamma) {
  const std::int64_t n = graph.num_nodes();
  assert(static_cast<std::int64_t>(features.rows()) == n);
  const double denom = static_cast<double>(2 * graph.num_edges() + n);
  tensor::Matrix pooled(1, features.cols());
  float* g = pooled.data();
  for (std::int64_t j = 0; j < n; ++j) {
    const float vj = static_cast<float>(
        std::pow(static_cast<double>(graph.degree(j) + 1), 1.0 - gamma) /
        denom);
    const float* row = features.row(j);
    for (std::size_t f = 0; f < features.cols(); ++f) g[f] += vj * row[f];
  }
  return pooled;
}

std::vector<float> DegreesWithSelfLoops(const Graph& graph) {
  std::vector<float> out(graph.num_nodes());
  for (std::int64_t v = 0; v < graph.num_nodes(); ++v) {
    out[v] = static_cast<float>(graph.degree(v) + 1);
  }
  return out;
}

float EstimateSecondEigenvalue(const Csr& norm_adj, int iterations,
                               std::uint64_t seed) {
  const std::int64_t n = norm_adj.rows;
  if (n < 2) return 0.0f;

  // Dominant eigenvector first (power iteration), then deflate.
  tensor::Rng rng(seed);
  tensor::Matrix v1(n, 1);
  tensor::FillGaussian(v1, 1.0f, rng);
  for (int it = 0; it < iterations; ++it) {
    v1 = SpMM(norm_adj, v1);
    tensor::NormalizeRowsInPlace(v1, 0.0f);  // no-op guard
    const float norm = tensor::FrobeniusNorm(v1);
    if (norm > 0.0f) tensor::ScaleInPlace(v1, 1.0f / norm);
  }

  tensor::Matrix v2(n, 1);
  tensor::FillGaussian(v2, 1.0f, rng);
  float lambda2 = 0.0f;
  for (int it = 0; it < iterations; ++it) {
    // Deflate: v2 <- v2 - (v1·v2) v1.
    float dot = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) dot += v1.at(i, 0) * v2.at(i, 0);
    for (std::int64_t i = 0; i < n; ++i) v2.at(i, 0) -= dot * v1.at(i, 0);
    v2 = SpMM(norm_adj, v2);
    lambda2 = tensor::FrobeniusNorm(v2);
    if (lambda2 > 0.0f) tensor::ScaleInPlace(v2, 1.0f / lambda2);
  }
  return lambda2;
}

}  // namespace nai::graph
