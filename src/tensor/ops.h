#ifndef NAI_TENSOR_OPS_H_
#define NAI_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "src/runtime/exec_context.h"
#include "src/tensor/matrix.h"
#include "src/tensor/random.h"

namespace nai::tensor {

/// out = a * b. Shapes: (m x k) * (k x n) -> (m x n).
/// Rows of `out` are computed in parallel on the context's thread pool;
/// results are bit-exact for any thread count.
Matrix MatMul(const Matrix& a, const Matrix& b,
              const runtime::ExecContext& ctx = {});

/// out = a * b^T. Shapes: (m x k) * (n x k)^T -> (m x n).
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b,
                        const runtime::ExecContext& ctx = {});

/// out = a^T * b. Shapes: (k x m)^T * (k x n) -> (m x n). Runs on the
/// calling thread; bit-exact at every SIMD level.
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);

/// dst += src (elementwise). Shapes must match.
void AddInPlace(Matrix& dst, const Matrix& src);

/// dst += alpha * src (elementwise). Shapes must match.
void Axpy(Matrix& dst, float alpha, const Matrix& src);

/// dst *= alpha.
void ScaleInPlace(Matrix& dst, float alpha);

/// Returns a - b.
Matrix Subtract(const Matrix& a, const Matrix& b);

/// Adds row-vector `bias` (1 x cols) to every row of `m`.
void AddRowBias(Matrix& m, const Matrix& bias);

/// ReLU in place.
void ReluInPlace(Matrix& m);

/// Given pre-activation `z` and upstream gradient `grad`, zeroes gradient
/// entries where z <= 0 (ReLU backward), in place on `grad`.
void ReluBackwardInPlace(const Matrix& z, Matrix& grad);

/// Sigmoid in place.
void SigmoidInPlace(Matrix& m);

/// Row-wise softmax with optional temperature: softmax(m[i] / temperature).
Matrix SoftmaxRows(const Matrix& m, float temperature = 1.0f,
                   const runtime::ExecContext& ctx = {});

/// Row-wise log-softmax (numerically stable).
Matrix LogSoftmaxRows(const Matrix& m, const runtime::ExecContext& ctx = {});

/// Argmax of each row.
std::vector<std::int32_t> ArgmaxRows(const Matrix& m);

/// Concatenates matrices horizontally (same row count).
Matrix ConcatCols(const std::vector<const Matrix*>& parts);

/// Elementwise mean of equally-shaped matrices.
Matrix Mean(const std::vector<const Matrix*>& parts);

/// Per-row L2 distance between equally-shaped a and b:
/// out[i] = ||a[i] - b[i]||_2.
std::vector<float> RowL2Distance(const Matrix& a, const Matrix& b,
                                 const runtime::ExecContext& ctx = {});

/// Per-row L2 norms.
std::vector<float> RowL2Norms(const Matrix& m);

/// Normalizes each row to unit L2 norm (rows with norm < eps are left as-is).
void NormalizeRowsInPlace(Matrix& m, float eps = 1e-12f);

/// Sum over rows -> 1 x cols.
Matrix ColumnSums(const Matrix& m);

/// Frobenius norm.
float FrobeniusNorm(const Matrix& m);

/// Dropout forward: zeroes each entry with probability `rate` and rescales
/// survivors by 1/(1-rate). `mask` receives the kept/rescale multipliers so
/// the caller can replay the same mask in the backward pass. `rate` = 0 is a
/// no-op. Draws one rng.NextFloat() per entry in row-major order (entry i
/// is dropped when its draw is < rate), so a seeded Rng fixes the mask.
void DropoutInPlace(Matrix& m, float rate, Matrix& mask, Rng& rng);

}  // namespace nai::tensor

#endif  // NAI_TENSOR_OPS_H_
