#include "src/graph/csr.h"

#include <algorithm>
#include <cassert>

#include "src/tensor/simd.h"

namespace nai::graph {

bool Csr::Validate() const {
  if (rows < 0 || cols < 0) return false;
  if (row_ptr.size() != static_cast<std::size_t>(rows) + 1) return false;
  if (row_ptr.empty() || row_ptr.front() != 0) return false;
  if (row_ptr.back() != nnz()) return false;
  if (values.size() != col_idx.size()) return false;
  for (std::int64_t r = 0; r < rows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) return false;
    for (std::int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      if (col_idx[p] < 0 || col_idx[p] >= cols) return false;
      if (p > row_ptr[r] && col_idx[p] <= col_idx[p - 1]) return false;
    }
  }
  return true;
}

Csr CsrFromTriplets(std::int64_t rows, std::int64_t cols,
                    std::vector<Triplet> triplets) {
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  Csr out;
  out.rows = rows;
  out.cols = cols;
  out.row_ptr.assign(rows + 1, 0);
  out.col_idx.reserve(triplets.size());
  out.values.reserve(triplets.size());
  for (std::size_t i = 0; i < triplets.size();) {
    const Triplet& t = triplets[i];
    assert(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols);
    float sum = 0.0f;
    std::size_t j = i;
    while (j < triplets.size() && triplets[j].row == t.row &&
           triplets[j].col == t.col) {
      sum += triplets[j].value;
      ++j;
    }
    out.col_idx.push_back(t.col);
    out.values.push_back(sum);
    ++out.row_ptr[t.row + 1];
    i = j;
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    out.row_ptr[r + 1] += out.row_ptr[r];
  }
  return out;
}

namespace {

/// Approximate scalar-op cost of one SpMM output row: average stored
/// entries per row times the dense width. A heuristic for chunk sizing
/// only — correctness never depends on it.
std::size_t SpMMGrain(const Csr& csr, std::size_t f) {
  const std::int64_t avg =
      csr.rows > 0 ? csr.nnz() / csr.rows + 1 : 1;
  return static_cast<std::size_t>(avg) * std::max<std::size_t>(1, f);
}

std::size_t SpMMGrain(CsrView csr, std::size_t f) {
  const std::int64_t avg =
      csr.rows > 0 ? csr.nnz() / csr.rows + 1 : 1;
  return static_cast<std::size_t>(avg) * std::max<std::size_t>(1, f);
}

void SpMMRowRange(const Csr& csr, const tensor::Matrix& dense,
                  std::int64_t r0, std::int64_t r1, tensor::Matrix& out) {
  const std::size_t f = dense.cols();
  const tensor::simd::KernelSet& ks = tensor::simd::ActiveKernels();
  for (std::int64_t r = r0; r < r1; ++r) {
    float* orow = out.row(r);
    std::fill(orow, orow + f, 0.0f);
    for (std::int64_t p = csr.row_ptr[r]; p < csr.row_ptr[r + 1]; ++p) {
      ks.axpy(csr.values[p], dense.row(csr.col_idx[p]), orow, f);
    }
  }
}

}  // namespace

tensor::Matrix SpMM(const Csr& csr, const tensor::Matrix& dense,
                    const runtime::ExecContext& ctx) {
  assert(static_cast<std::int64_t>(dense.rows()) == csr.cols);
  tensor::Matrix out(csr.rows, dense.cols());
  ctx.ParallelFor(0, csr.rows, SpMMGrain(csr, dense.cols()),
                  [&](std::size_t r0, std::size_t r1) {
    SpMMRowRange(csr, dense, static_cast<std::int64_t>(r0),
                 static_cast<std::int64_t>(r1), out);
  });
  return out;
}

void SpMMPrefix(const Csr& csr, const tensor::Matrix& dense,
                std::int64_t limit, tensor::Matrix& out,
                const runtime::ExecContext& ctx) {
  assert(static_cast<std::int64_t>(dense.rows()) == csr.cols);
  assert(static_cast<std::int64_t>(out.rows()) == csr.rows);
  assert(out.cols() == dense.cols());
  assert(limit <= csr.rows);
  ctx.ParallelFor(0, limit, SpMMGrain(csr, dense.cols()),
                  [&](std::size_t r0, std::size_t r1) {
    SpMMRowRange(csr, dense, static_cast<std::int64_t>(r0),
                 static_cast<std::int64_t>(r1), out);
  });
}

void SpMMRows(const Csr& csr, const tensor::Matrix& dense,
              const std::vector<std::int32_t>& rows_to_compute,
              tensor::Matrix& out, const runtime::ExecContext& ctx) {
  assert(static_cast<std::int64_t>(dense.rows()) == csr.cols);
  const std::size_t f = dense.cols();
  const tensor::simd::KernelSet& ks = tensor::simd::ActiveKernels();
  ctx.ParallelFor(0, rows_to_compute.size(), SpMMGrain(csr, f),
                  [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const std::int64_t r = rows_to_compute[i];
      float* orow = out.row(r);
      std::fill(orow, orow + f, 0.0f);
      for (std::int64_t p = csr.row_ptr[r]; p < csr.row_ptr[r + 1]; ++p) {
        ks.axpy(csr.values[p], dense.row(csr.col_idx[p]), orow, f);
      }
    }
  });
}

namespace {

/// One mapped output row: orow = sum over entries (u, w) of global row g of
/// w * row_of(local of u), entries in global row order.
template <typename RowOf>
void SpMMMappedRow(CsrView global, std::int32_t g,
                   const std::vector<std::int32_t>& global_to_local,
                   RowOf row_of, std::size_t f,
                   const tensor::simd::KernelSet& ks, float* orow) {
  std::fill(orow, orow + f, 0.0f);
  for (std::int64_t p = global.row_ptr[g]; p < global.row_ptr[g + 1]; ++p) {
    const std::int32_t local = global_to_local[global.col_idx[p]];
    assert(local >= 0 && "neighbor outside the supporting set");
    ks.axpy(global.values[p], row_of(local), orow, f);
  }
}

}  // namespace

void SpMMMappedPrefix(CsrView global, const std::vector<std::int32_t>& nodes,
                      const std::vector<std::int32_t>& global_to_local,
                      const tensor::Matrix& dense_local, std::int64_t limit,
                      tensor::Matrix& out, const runtime::ExecContext& ctx) {
  assert(limit <= static_cast<std::int64_t>(nodes.size()));
  assert(out.rows() == dense_local.rows());
  assert(global.values != nullptr && "mapped SpMM needs a weighted matrix");
  const tensor::simd::KernelSet& ks = tensor::simd::ActiveKernels();
  const std::size_t f = dense_local.cols();
  const auto row_of = [&](std::int32_t local) {
    return dense_local.row(local);
  };
  ctx.ParallelFor(0, limit, SpMMGrain(global, f),
                  [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      SpMMMappedRow(global, nodes[r], global_to_local, row_of, f, ks,
                    out.row(r));
    }
  });
}

void SpMMMappedGather(CsrView global, const std::vector<std::int32_t>& nodes,
                      const std::vector<std::int32_t>& global_to_local,
                      const std::vector<const float*>& src_rows,
                      const std::vector<std::int32_t>& rows, std::size_t f,
                      float* out, const runtime::ExecContext& ctx) {
  assert(global.values != nullptr && "mapped SpMM needs a weighted matrix");
  const tensor::simd::KernelSet& ks = tensor::simd::ActiveKernels();
  const auto row_of = [&](std::int32_t local) {
    assert(src_rows[local] != nullptr && "source row not computed");
    return src_rows[local];
  };
  ctx.ParallelFor(0, rows.size(), SpMMGrain(global, f),
                  [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      SpMMMappedRow(global, nodes[rows[i]], global_to_local, row_of, f, ks,
                    out + i * f);
    }
  });
}

Csr Transpose(const Csr& csr) {
  Csr out;
  out.rows = csr.cols;
  out.cols = csr.rows;
  out.row_ptr.assign(out.rows + 1, 0);
  out.col_idx.resize(csr.nnz());
  out.values.resize(csr.nnz());
  for (std::int64_t p = 0; p < csr.nnz(); ++p) {
    ++out.row_ptr[csr.col_idx[p] + 1];
  }
  for (std::int64_t r = 0; r < out.rows; ++r) {
    out.row_ptr[r + 1] += out.row_ptr[r];
  }
  std::vector<std::int64_t> cursor(out.row_ptr.begin(), out.row_ptr.end() - 1);
  for (std::int64_t r = 0; r < csr.rows; ++r) {
    for (std::int64_t p = csr.row_ptr[r]; p < csr.row_ptr[r + 1]; ++p) {
      const std::int64_t q = cursor[csr.col_idx[p]]++;
      out.col_idx[q] = static_cast<std::int32_t>(r);
      out.values[q] = csr.values[p];
    }
  }
  return out;
}

Csr InducedSubmatrix(CsrView csr, const std::vector<std::int32_t>& ids,
                     const std::vector<std::int32_t>& global_to_local) {
  Csr out;
  out.rows = static_cast<std::int64_t>(ids.size());
  out.cols = out.rows;
  out.row_ptr.assign(out.rows + 1, 0);
  // First pass: count surviving entries per row.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::int32_t g = ids[i];
    for (std::int64_t p = csr.row_ptr[g]; p < csr.row_ptr[g + 1]; ++p) {
      if (global_to_local[csr.col_idx[p]] >= 0) ++out.row_ptr[i + 1];
    }
  }
  for (std::int64_t r = 0; r < out.rows; ++r) {
    out.row_ptr[r + 1] += out.row_ptr[r];
  }
  out.col_idx.resize(out.row_ptr.back());
  out.values.resize(out.row_ptr.back());
  // Second pass: fill. Local ids preserve the global column order only if
  // `ids` is monotone, so rows are sorted explicitly afterwards.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::int32_t g = ids[i];
    std::int64_t q = out.row_ptr[i];
    for (std::int64_t p = csr.row_ptr[g]; p < csr.row_ptr[g + 1]; ++p) {
      const std::int32_t local = global_to_local[csr.col_idx[p]];
      if (local >= 0) {
        out.col_idx[q] = local;
        out.values[q] = csr.values == nullptr ? 1.0f : csr.values[p];
        ++q;
      }
    }
    // Sort the row's (col, value) pairs by local column id.
    std::vector<std::pair<std::int32_t, float>> entries;
    entries.reserve(q - out.row_ptr[i]);
    for (std::int64_t t = out.row_ptr[i]; t < q; ++t) {
      entries.emplace_back(out.col_idx[t], out.values[t]);
    }
    std::sort(entries.begin(), entries.end());
    for (std::int64_t t = out.row_ptr[i]; t < q; ++t) {
      out.col_idx[t] = entries[t - out.row_ptr[i]].first;
      out.values[t] = entries[t - out.row_ptr[i]].second;
    }
  }
  return out;
}

tensor::Matrix ToDense(const Csr& csr) {
  tensor::Matrix out(csr.rows, csr.cols);
  for (std::int64_t r = 0; r < csr.rows; ++r) {
    for (std::int64_t p = csr.row_ptr[r]; p < csr.row_ptr[r + 1]; ++p) {
      out.at(r, csr.col_idx[p]) += csr.values[p];
    }
  }
  return out;
}

}  // namespace nai::graph
