#ifndef NAI_GRAPH_CSR_H_
#define NAI_GRAPH_CSR_H_

#include <cstdint>
#include <vector>

#include "src/runtime/exec_context.h"
#include "src/tensor/matrix.h"

namespace nai::graph {

/// Non-owning view of a CSR matrix — the access type every consumer of
/// graph storage reads through, so the same inference kernels run over
/// pooled in-memory vectors (Csr) and memory-mapped file sections
/// (storage::MmapStore) without copies or virtual dispatch in the inner
/// loops. `values` may be nullptr for unweighted matrices (raw adjacency,
/// where every stored entry is implicitly 1.0).
struct CsrView {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  const std::int64_t* row_ptr = nullptr;  ///< rows + 1 entries
  const std::int32_t* col_idx = nullptr;  ///< nnz() entries
  const float* values = nullptr;          ///< nnz() entries, or nullptr

  std::int64_t nnz() const { return rows == 0 ? 0 : row_ptr[rows]; }

  /// Number of stored entries in row `r`.
  std::int64_t RowNnz(std::int64_t r) const {
    return row_ptr[r + 1] - row_ptr[r];
  }

  bool empty() const { return rows == 0; }
};

/// Compressed sparse row matrix with float values. Row pointers are 64-bit
/// so graphs with >2^31 edges are representable; column indices are 32-bit
/// node ids (the paper's largest graph has 2.4M nodes).
///
/// Invariants (checked by Validate()):
///   * row_ptr.size() == rows + 1, row_ptr.front() == 0,
///     row_ptr.back() == col_idx.size() == values.size()
///   * row_ptr is non-decreasing
///   * column indices are in [0, cols) and strictly increasing within a row
struct Csr {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int64_t> row_ptr;
  std::vector<std::int32_t> col_idx;
  std::vector<float> values;

  std::int64_t nnz() const { return static_cast<std::int64_t>(col_idx.size()); }

  /// Number of stored entries in row `r`.
  std::int64_t RowNnz(std::int64_t r) const {
    return row_ptr[r + 1] - row_ptr[r];
  }

  /// Non-owning view over this matrix's buffers. Stays valid across moves
  /// of the Csr (vector storage is heap-stable) but not across mutation.
  CsrView view() const {
    return CsrView{rows, cols, row_ptr.data(), col_idx.data(),
                   values.empty() ? nullptr : values.data()};
  }

  /// Returns true iff all structural invariants hold.
  bool Validate() const;
};

/// One (row, col, value) triple used when assembling a Csr.
struct Triplet {
  std::int32_t row = 0;
  std::int32_t col = 0;
  float value = 0.0f;
};

/// Builds a CSR from unordered triplets. Duplicate (row, col) entries are
/// summed. O(nnz log nnz).
Csr CsrFromTriplets(std::int64_t rows, std::int64_t cols,
                    std::vector<Triplet> triplets);

/// Sparse-dense multiply: out = csr * dense.
/// Shapes: (rows x cols) * (cols x f) -> (rows x f). Parallel over rows on
/// the context's pool; bit-exact for any thread count.
tensor::Matrix SpMM(const Csr& csr, const tensor::Matrix& dense,
                    const runtime::ExecContext& ctx = {});

/// Computes `out` rows [0, limit) of csr * dense, leaving other rows of
/// `out` untouched. `out` must already be (csr.rows x dense.cols).
/// Used by the layered batch propagation where only a prefix of local node
/// ids needs fresh values at each hop.
void SpMMPrefix(const Csr& csr, const tensor::Matrix& dense,
                std::int64_t limit, tensor::Matrix& out,
                const runtime::ExecContext& ctx = {});

/// Like SpMMPrefix but only recomputes the rows listed in `rows_to_compute`
/// (all < csr.rows). Rows not listed keep their previous contents.
void SpMMRows(const Csr& csr, const tensor::Matrix& dense,
              const std::vector<std::int32_t>& rows_to_compute,
              tensor::Matrix& out, const runtime::ExecContext& ctx = {});

/// Batch propagation against the *global* matrix through a local-id
/// mapping, avoiding the cost of materializing an induced submatrix per
/// batch. Computes, for each local row r in [0, limit):
///
///   out[r] = sum over entries (u, w) of global row nodes[r]:
///              w * dense_local[global_to_local[u]]
///
/// Every neighbor of a computed row must be present in the mapping
/// (global_to_local[u] >= 0) — the BFS prefix property guarantees this for
/// rows within depth-1 hops of the batch.
void SpMMMappedPrefix(CsrView global, const std::vector<std::int32_t>& nodes,
                      const std::vector<std::int32_t>& global_to_local,
                      const tensor::Matrix& dense_local, std::int64_t limit,
                      tensor::Matrix& out,
                      const runtime::ExecContext& ctx = {});
inline void SpMMMappedPrefix(const Csr& global,
                             const std::vector<std::int32_t>& nodes,
                             const std::vector<std::int32_t>& global_to_local,
                             const tensor::Matrix& dense_local,
                             std::int64_t limit, tensor::Matrix& out,
                             const runtime::ExecContext& ctx = {}) {
  SpMMMappedPrefix(global.view(), nodes, global_to_local, dense_local, limit,
                   out, ctx);
}

/// Row-list propagation through the same mapping, with each local row's
/// source values found through a pointer table instead of one dense
/// matrix. Writes, for each i in [0, rows.size()), the f floats at
/// out + i * f:
///
///   out[i] = sum over entries (u, w) of global row nodes[rows[i]]:
///              w * src_rows[global_to_local[u]]
///
/// — SpMMMappedPrefix's per-row formula (entries in global row order, the
/// same axpy kernel), so a row's values are bit-identical whichever kernel
/// computes it. Every neighbor must be mapped to a local with a non-null
/// source row. Parallel over the listed rows; bit-exact for any thread
/// count.
void SpMMMappedGather(CsrView global, const std::vector<std::int32_t>& nodes,
                      const std::vector<std::int32_t>& global_to_local,
                      const std::vector<const float*>& src_rows,
                      const std::vector<std::int32_t>& rows, std::size_t f,
                      float* out, const runtime::ExecContext& ctx = {});

/// Transpose. O(nnz).
Csr Transpose(const Csr& csr);

/// Extracts the induced submatrix csr[ids, ids] with local indices matching
/// the order of `ids`. `global_to_local` must map every global id in `ids`
/// to its position and everything else to -1 (caller-provided scratch to
/// avoid rebuilding a hash map per batch). A view with null `values` is
/// treated as all-1.0 (unweighted adjacency).
Csr InducedSubmatrix(CsrView csr, const std::vector<std::int32_t>& ids,
                     const std::vector<std::int32_t>& global_to_local);
inline Csr InducedSubmatrix(const Csr& csr,
                            const std::vector<std::int32_t>& ids,
                            const std::vector<std::int32_t>& global_to_local) {
  return InducedSubmatrix(csr.view(), ids, global_to_local);
}

/// Dense copy (tests only; quadratic memory).
tensor::Matrix ToDense(const Csr& csr);

}  // namespace nai::graph

#endif  // NAI_GRAPH_CSR_H_
