#ifndef NAI_GRAPH_NORMALIZE_H_
#define NAI_GRAPH_NORMALIZE_H_

#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/tensor/matrix.h"

namespace nai::graph {

/// Builds the normalized adjacency with self-loops used by every Scalable
/// GNN in the paper (Eq. 1):
///
///   Â = D̃^(γ-1) Ã D̃^(-γ),   Ã = A + I,   D̃ = diag(d_i + 1)
///
/// γ = 0.5 gives the symmetric normalization D̃^(-1/2) Ã D̃^(-1/2) (GCN/SGC,
/// the paper's experimental setting); γ = 1 the transition matrix Ã D̃^(-1);
/// γ = 0 the reverse transition matrix D̃^(-1) Ã.
Csr NormalizedAdjacency(const Graph& graph, float gamma);

/// The two degree scalers of Eq. 1, evaluated per node: left[v] =
/// (d_v+1)^(γ-1), right[v] = (d_v+1)^(-γ). One formula shared by the
/// full-matrix build and the incremental per-row rebuild of the snapshot
/// layer — identical inputs produce bit-identical entries, which is what
/// lets SnapshotBuilder copy untouched rows verbatim.
void NormalizedDegreeScalers(CsrView adjacency, std::vector<float>& left,
                             std::vector<float>& right, float gamma);
/// The per-node body of NormalizedDegreeScalers for a node with `degree`
/// neighbors (self-loop excluded). Builders that know the degrees before
/// the adjacency exists (graph::GenerateScaled) call it directly.
void DegreeScalers(std::int64_t degree, float gamma, float& left,
                   float& right);
inline void NormalizedDegreeScalers(const Csr& adjacency,
                                    std::vector<float>& left,
                                    std::vector<float>& right, float gamma) {
  NormalizedDegreeScalers(adjacency.view(), left, right, gamma);
}

/// Writes the normalized row of node `v` — its sorted neighbors plus the
/// self-loop entry inserted in sorted position — into col_out/val_out
/// (adjacency.RowNnz(v) + 1 entries). `adjacency` is the *unnormalized*
/// symmetric adjacency; left/right come from NormalizedDegreeScalers.
/// This is the single row writer behind NormalizedAdjacency; the
/// incremental SnapshotBuilder calls it for exactly the rows a delta
/// dirtied.
void WriteNormalizedRow(CsrView adjacency, std::int64_t v,
                        const std::vector<float>& left,
                        const std::vector<float>& right, std::int32_t* col_out,
                        float* val_out);
inline void WriteNormalizedRow(const Csr& adjacency, std::int64_t v,
                               const std::vector<float>& left,
                               const std::vector<float>& right,
                               std::int32_t* col_out, float* val_out) {
  WriteNormalizedRow(adjacency.view(), v, left, right, col_out, val_out);
}

/// The pooled stationary vector g = v^T X of the rank-1 stationary state
/// (Eqs. 6-7): g = Σ_j (d_j+1)^(1-γ) / (2m+n) · X_j, returned as 1 x f.
/// The summation order is fixed (ascending node id), so rebuilding on a
/// merged graph is bit-identical to a from-scratch build —
/// core::StationaryState delegates here and SnapshotBuilder recomputes it
/// per snapshot.
tensor::Matrix PooledStationaryVector(const Graph& graph,
                                      const tensor::Matrix& features,
                                      float gamma);

/// Degrees-with-self-loop vector d̃_i = d_i + 1 as floats.
std::vector<float> DegreesWithSelfLoops(const Graph& graph);

/// Estimates the second largest eigenvalue magnitude of Â by power
/// iteration on the component orthogonal to the dominant eigenvector.
/// Used by the personalized-depth upper-bound diagnostics (Eq. 10).
/// `iterations` power steps; deterministic given `seed`.
float EstimateSecondEigenvalue(const Csr& norm_adj, int iterations,
                               std::uint64_t seed);

}  // namespace nai::graph

#endif  // NAI_GRAPH_NORMALIZE_H_
