#include "src/tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/tensor/simd.h"

namespace nai::tensor {

Matrix MatMul(const Matrix& a, const Matrix& b,
              const runtime::ExecContext& ctx) {
  assert(a.cols() == b.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix out(m, n);
  // ikj accumulation dispatched per row range (simd::KernelSet fixes the
  // per-element summation order, so every level is bit-exact). Grain: one
  // output row costs k*n MACs, so wide products fan out even with few rows.
  const simd::KernelSet& ks = simd::ActiveKernels();
  ctx.ParallelFor(0, m, k * n, [&](std::size_t r0, std::size_t r1) {
    ks.matmul_rows(a.data(), b.data(), out.data(), r0, r1, k, n);
  });
  return out;
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b,
                        const runtime::ExecContext& ctx) {
  assert(a.cols() == b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix out(m, n);
  const simd::KernelSet& ks = simd::ActiveKernels();
  ctx.ParallelFor(0, m, k * n, [&](std::size_t r0, std::size_t r1) {
    ks.matmul_tb_rows(a.data(), b.data(), out.data(), r0, r1, k, n);
  });
  return out;
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  Matrix out(m, n);
  // One dispatched call over the whole product (the training shapes are
  // tall: k = rows of a batch, m x n = a weight gradient), bit-exact at
  // every level; see simd::KernelSet::matmul_ta.
  simd::ActiveKernels().matmul_ta(a.data(), b.data(), out.data(), k, m, n);
  return out;
}

void AddInPlace(Matrix& dst, const Matrix& src) {
  assert(dst.SameShape(src));
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] += s[i];
}

void Axpy(Matrix& dst, float alpha, const Matrix& src) {
  assert(dst.SameShape(src));
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] += alpha * s[i];
}

void ScaleInPlace(Matrix& dst, float alpha) {
  float* d = dst.data();
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] *= alpha;
}

Matrix Subtract(const Matrix& a, const Matrix& b) {
  assert(a.SameShape(b));
  Matrix out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::size_t i = 0; i < a.size(); ++i) po[i] = pa[i] - pb[i];
  return out;
}

void AddRowBias(Matrix& m, const Matrix& bias) {
  assert(bias.rows() == 1 && bias.cols() == m.cols());
  const float* b = bias.data();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    float* row = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) row[j] += b[j];
  }
}

void ReluInPlace(Matrix& m) {
  float* d = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) d[i] = std::max(0.0f, d[i]);
}

void ReluBackwardInPlace(const Matrix& z, Matrix& grad) {
  assert(z.SameShape(grad));
  const float* zp = z.data();
  float* gp = grad.data();
  // A select, not a branch: ReLU pre-activations are zero half the time.
  for (std::size_t i = 0; i < z.size(); ++i) {
    gp[i] = zp[i] <= 0.0f ? 0.0f : gp[i];
  }
}

void SigmoidInPlace(Matrix& m) {
  float* d = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    d[i] = 1.0f / (1.0f + std::exp(-d[i]));
  }
}

Matrix SoftmaxRows(const Matrix& m, float temperature,
                   const runtime::ExecContext& ctx) {
  assert(temperature > 0.0f);
  Matrix out(m.rows(), m.cols());
  // exp() dominates; weight the per-row cost well above `cols` plain flops.
  ctx.ParallelFor(0, m.rows(), m.cols() * 8, [&](std::size_t r0,
                                                 std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const float* in = m.row(i);
      float* o = out.row(i);
      float maxv = -std::numeric_limits<float>::infinity();
      for (std::size_t j = 0; j < m.cols(); ++j) {
        maxv = std::max(maxv, in[j] / temperature);
      }
      float sum = 0.0f;
      for (std::size_t j = 0; j < m.cols(); ++j) {
        o[j] = std::exp(in[j] / temperature - maxv);
        sum += o[j];
      }
      const float inv = 1.0f / sum;
      for (std::size_t j = 0; j < m.cols(); ++j) o[j] *= inv;
    }
  });
  return out;
}

Matrix LogSoftmaxRows(const Matrix& m, const runtime::ExecContext& ctx) {
  Matrix out(m.rows(), m.cols());
  ctx.ParallelFor(0, m.rows(), m.cols() * 8, [&](std::size_t r0,
                                                 std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const float* in = m.row(i);
      float* o = out.row(i);
      float maxv = -std::numeric_limits<float>::infinity();
      for (std::size_t j = 0; j < m.cols(); ++j) maxv = std::max(maxv, in[j]);
      float sum = 0.0f;
      for (std::size_t j = 0; j < m.cols(); ++j) sum += std::exp(in[j] - maxv);
      const float lse = maxv + std::log(sum);
      for (std::size_t j = 0; j < m.cols(); ++j) o[j] = in[j] - lse;
    }
  });
  return out;
}

std::vector<std::int32_t> ArgmaxRows(const Matrix& m) {
  std::vector<std::int32_t> out(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.row(i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < m.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<std::int32_t>(best);
  }
  return out;
}

Matrix ConcatCols(const std::vector<const Matrix*>& parts) {
  assert(!parts.empty());
  const std::size_t rows = parts[0]->rows();
  std::size_t total_cols = 0;
  for (const Matrix* p : parts) {
    assert(p->rows() == rows);
    total_cols += p->cols();
  }
  Matrix out(rows, total_cols);
  for (std::size_t i = 0; i < rows; ++i) {
    float* orow = out.row(i);
    std::size_t offset = 0;
    for (const Matrix* p : parts) {
      std::copy(p->row(i), p->row(i) + p->cols(), orow + offset);
      offset += p->cols();
    }
  }
  return out;
}

Matrix Mean(const std::vector<const Matrix*>& parts) {
  assert(!parts.empty());
  Matrix out(parts[0]->rows(), parts[0]->cols());
  for (const Matrix* p : parts) AddInPlace(out, *p);
  ScaleInPlace(out, 1.0f / static_cast<float>(parts.size()));
  return out;
}

std::vector<float> RowL2Distance(const Matrix& a, const Matrix& b,
                                 const runtime::ExecContext& ctx) {
  assert(a.SameShape(b));
  std::vector<float> out(a.rows());
  ctx.ParallelFor(0, a.rows(), a.cols() * 3, [&](std::size_t r0,
                                                 std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const float* pa = a.row(i);
      const float* pb = b.row(i);
      float acc = 0.0f;
      for (std::size_t j = 0; j < a.cols(); ++j) {
        const float d = pa[j] - pb[j];
        acc += d * d;
      }
      out[i] = std::sqrt(acc);
    }
  });
  return out;
}

std::vector<float> RowL2Norms(const Matrix& m) {
  std::vector<float> out(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    out[i] = std::sqrt(m.RowSquaredNorm(i));
  }
  return out;
}

void NormalizeRowsInPlace(Matrix& m, float eps) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float norm = std::sqrt(m.RowSquaredNorm(i));
    if (norm < eps) continue;
    float* row = m.row(i);
    const float inv = 1.0f / norm;
    for (std::size_t j = 0; j < m.cols(); ++j) row[j] *= inv;
  }
}

Matrix ColumnSums(const Matrix& m) {
  Matrix out(1, m.cols());
  float* o = out.data();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) o[j] += row[j];
  }
  return out;
}

float FrobeniusNorm(const Matrix& m) {
  double acc = 0.0;
  const float* d = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    acc += static_cast<double>(d[i]) * d[i];
  }
  return static_cast<float>(std::sqrt(acc));
}

void DropoutInPlace(Matrix& m, float rate, Matrix& mask, Rng& rng) {
  mask.Resize(m.rows(), m.cols());
  if (rate <= 0.0f) {
    mask.Fill(1.0f);
    return;
  }
  assert(rate < 1.0f);
  const float keep_scale = 1.0f / (1.0f - rate);
  float* d = m.data();
  float* mk = mask.data();
  // The draws first (one per entry, in index order), then one branch-free
  // pass that turns each into its multiplier: a branch on a coin flip
  // mispredicts on every other draw. A dropped entry is masked to +0 by its
  // bits, so the pass vectorizes without speculating a conditional multiply.
  for (std::size_t i = 0; i < m.size(); ++i) mk[i] = rng.NextFloat();
  const std::uint32_t scale_bits = std::bit_cast<std::uint32_t>(keep_scale);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const std::uint32_t keep = mk[i] < rate ? 0u : ~0u;
    const float scaled = d[i] * keep_scale;
    d[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(scaled) & keep);
    mk[i] = std::bit_cast<float>(scale_bits & keep);
  }
}

}  // namespace nai::tensor
