#include "src/tensor/ops.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "gtest/gtest.h"
#include "src/tensor/random.h"
#include "tests/tensor/kernel_shapes.h"
#include "tests/test_util.h"

namespace nai::tensor {
namespace {

using nai::testing::ExpectMatrixNear;
using nai::testing::RandomMatrix;

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        acc += a.at(i, p) * b.at(p, j);
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

TEST(OpsTest, MatMulSmallKnown) {
  Matrix a{{1.0f, 2.0f}, {3.0f, 4.0f}};
  Matrix b{{5.0f, 6.0f}, {7.0f, 8.0f}};
  Matrix c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

// Property sweep: MatMul and the transpose variants agree with the naive
// reference over a range of shapes.
class MatMulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = RandomMatrix(m, k, 1234 + m * 100 + k * 10 + n);
  const Matrix b = RandomMatrix(k, n, 4321 + m + k + n);
  ExpectMatrixNear(MatMul(a, b), NaiveMatMul(a, b), 1e-3f);
}

TEST_P(MatMulShapes, TransposeBMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = RandomMatrix(m, k, 99 + m);
  const Matrix bt = RandomMatrix(n, k, 77 + n);  // holds b^T
  // Build b from bt to feed naive.
  Matrix b(k, n);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) b.at(i, j) = bt.at(j, i);
  }
  ExpectMatrixNear(MatMulTransposeB(a, bt), NaiveMatMul(a, b), 1e-3f);
}

TEST_P(MatMulShapes, TransposeAMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix at = RandomMatrix(k, m, 55 + k);  // holds a^T
  const Matrix b = RandomMatrix(k, n, 66 + n);
  Matrix a(m, k);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) a.at(i, j) = at.at(j, i);
  }
  ExpectMatrixNear(MatMulTransposeA(at, b), NaiveMatMul(a, b), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(8, 8, 8), std::make_tuple(17, 3, 9),
                      std::make_tuple(64, 32, 16),
                      std::make_tuple(100, 1, 100)));

// Serial-vs-parallel bit-exactness: the pool-backed MatMul family must
// produce bit-identical results for every thread count, because chunking
// never changes the per-output-row summation order.
TEST(OpsTest, MatMulBitExactAcrossThreadCounts) {
  const Matrix a = RandomMatrix(67, 48, 11);
  const Matrix b = RandomMatrix(48, 33, 12);
  const Matrix bt = RandomMatrix(33, 48, 13);
  const Matrix at = RandomMatrix(48, 67, 14);
  runtime::ThreadPool::SetDefaultThreads(1);
  const Matrix serial = MatMul(a, b);
  const Matrix serial_tb = MatMulTransposeB(a, bt);
  const Matrix serial_ta = MatMulTransposeA(at, b);
  for (const int threads : {2, 8}) {
    runtime::ThreadPool::SetDefaultThreads(threads);
    const Matrix par = MatMul(a, b);
    const Matrix par_tb = MatMulTransposeB(a, bt);
    const Matrix par_ta = MatMulTransposeA(at, b);
    ASSERT_EQ(par.rows(), serial.rows());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(par.data()[i], serial.data()[i]) << "threads=" << threads;
    }
    for (std::size_t i = 0; i < serial_tb.size(); ++i) {
      ASSERT_EQ(par_tb.data()[i], serial_tb.data()[i]);
    }
    for (std::size_t i = 0; i < serial_ta.size(); ++i) {
      ASSERT_EQ(par_ta.data()[i], serial_ta.data()[i]);
    }
  }
  runtime::ThreadPool::SetDefaultThreads(0);
}

TEST(OpsTest, SoftmaxAndRowDistanceBitExactAcrossThreadCounts) {
  const Matrix m = RandomMatrix(200, 24, 21);
  const Matrix m2 = RandomMatrix(200, 24, 22);
  runtime::ThreadPool::SetDefaultThreads(1);
  const Matrix soft = SoftmaxRows(m, 1.3f);
  const Matrix logsoft = LogSoftmaxRows(m);
  const std::vector<float> dist = RowL2Distance(m, m2);
  for (const int threads : {2, 8}) {
    runtime::ThreadPool::SetDefaultThreads(threads);
    const Matrix soft_p = SoftmaxRows(m, 1.3f);
    const Matrix logsoft_p = LogSoftmaxRows(m);
    for (std::size_t i = 0; i < soft.size(); ++i) {
      ASSERT_EQ(soft_p.data()[i], soft.data()[i]);
      ASSERT_EQ(logsoft_p.data()[i], logsoft.data()[i]);
    }
    EXPECT_EQ(RowL2Distance(m, m2), dist);
  }
  runtime::ThreadPool::SetDefaultThreads(0);
}

TEST(OpsTest, AddAxpyScaleSubtract) {
  Matrix a{{1.0f, 2.0f}};
  Matrix b{{10.0f, 20.0f}};
  AddInPlace(a, b);
  EXPECT_FLOAT_EQ(a.at(0, 1), 22.0f);
  Axpy(a, 0.5f, b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 16.0f);
  ScaleInPlace(a, 2.0f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 32.0f);
  Matrix d = Subtract(a, b);
  EXPECT_FLOAT_EQ(d.at(0, 0), 22.0f);
}

TEST(OpsTest, AddRowBias) {
  Matrix m(2, 3);
  Matrix bias{{1.0f, 2.0f, 3.0f}};
  AddRowBias(m, bias);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(1, 2), 3.0f);
}

TEST(OpsTest, ReluForwardBackward) {
  Matrix z{{-1.0f, 0.0f, 2.0f}};
  Matrix m = z;
  ReluInPlace(m);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m.at(0, 2), 2.0f);
  Matrix g{{5.0f, 5.0f, 5.0f}};
  ReluBackwardInPlace(z, g);
  EXPECT_FLOAT_EQ(g.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(g.at(0, 1), 0.0f);  // z == 0 kills the gradient too
  EXPECT_FLOAT_EQ(g.at(0, 2), 5.0f);
}

TEST(OpsTest, SigmoidValues) {
  Matrix m{{0.0f, 100.0f, -100.0f}};
  SigmoidInPlace(m);
  EXPECT_NEAR(m.at(0, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(m.at(0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(m.at(0, 2), 0.0f, 1e-6f);
}

// Property: softmax rows are distributions for any temperature.
class SoftmaxProperty : public ::testing::TestWithParam<float> {};

TEST_P(SoftmaxProperty, RowsSumToOne) {
  const float temp = GetParam();
  const Matrix m = RandomMatrix(13, 9, 2024, 5.0f);
  const Matrix s = SoftmaxRows(m, temp);
  for (std::size_t i = 0; i < s.rows(); ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < s.cols(); ++j) {
      EXPECT_GE(s.at(i, j), 0.0f);
      sum += s.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST_P(SoftmaxProperty, LogSoftmaxConsistent) {
  const float temp = GetParam();
  if (temp != 1.0f) GTEST_SKIP() << "log-softmax has no temperature arg";
  const Matrix m = RandomMatrix(7, 5, 11, 3.0f);
  const Matrix s = SoftmaxRows(m);
  const Matrix ls = LogSoftmaxRows(m);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      EXPECT_NEAR(std::log(s.at(i, j)), ls.at(i, j), 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Temperatures, SoftmaxProperty,
                         ::testing::Values(0.5f, 1.0f, 2.0f, 10.0f));

TEST(OpsTest, SoftmaxNumericallyStableAtLargeLogits) {
  Matrix m{{1000.0f, 1000.0f, -1000.0f}};
  const Matrix s = SoftmaxRows(m);
  EXPECT_NEAR(s.at(0, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(s.at(0, 2), 0.0f, 1e-5f);
  EXPECT_FALSE(std::isnan(s.at(0, 0)));
}

TEST(OpsTest, ArgmaxRows) {
  Matrix m{{0.0f, 3.0f, 1.0f}, {9.0f, 1.0f, 2.0f}};
  const auto idx = ArgmaxRows(m);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(OpsTest, ConcatCols) {
  Matrix a{{1.0f}, {2.0f}};
  Matrix b{{3.0f, 4.0f}, {5.0f, 6.0f}};
  const Matrix c = ConcatCols({&a, &b});
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_FLOAT_EQ(c.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(c.at(1, 2), 6.0f);
}

TEST(OpsTest, MeanOfMatrices) {
  Matrix a{{2.0f}};
  Matrix b{{4.0f}};
  Matrix c{{6.0f}};
  const Matrix m = Mean({&a, &b, &c});
  EXPECT_FLOAT_EQ(m.at(0, 0), 4.0f);
}

TEST(OpsTest, RowL2DistanceAndNorms) {
  Matrix a{{0.0f, 0.0f}, {1.0f, 1.0f}};
  Matrix b{{3.0f, 4.0f}, {1.0f, 1.0f}};
  const auto d = RowL2Distance(a, b);
  EXPECT_NEAR(d[0], 5.0f, 1e-6f);
  EXPECT_NEAR(d[1], 0.0f, 1e-6f);
  const auto n = RowL2Norms(b);
  EXPECT_NEAR(n[0], 5.0f, 1e-6f);
}

TEST(OpsTest, NormalizeRows) {
  Matrix m{{3.0f, 4.0f}, {0.0f, 0.0f}};
  NormalizeRowsInPlace(m);
  EXPECT_NEAR(m.at(0, 0), 0.6f, 1e-6f);
  EXPECT_NEAR(m.at(1, 0), 0.0f, 1e-6f);  // zero row untouched
}

TEST(OpsTest, ColumnSums) {
  Matrix m{{1.0f, 2.0f}, {3.0f, 4.0f}};
  const Matrix s = ColumnSums(m);
  EXPECT_FLOAT_EQ(s.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(s.at(0, 1), 6.0f);
}

TEST(OpsTest, FrobeniusNorm) {
  Matrix m{{3.0f, 4.0f}};
  EXPECT_NEAR(FrobeniusNorm(m), 5.0f, 1e-6f);
}

TEST(OpsTest, DropoutZeroRateIsIdentity) {
  Matrix m = RandomMatrix(4, 4, 3);
  const Matrix before = m;
  Matrix mask;
  Rng rng(1);
  DropoutInPlace(m, 0.0f, mask, rng);
  ExpectMatrixNear(m, before, 0.0f);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    EXPECT_FLOAT_EQ(mask.data()[i], 1.0f);
  }
}

TEST(OpsTest, DropoutDropsAndRescales) {
  Matrix m(1, 4);
  m.Fill(2.0f);
  Matrix mask;
  Rng rng(5);
  DropoutInPlace(m, 0.5f, mask, rng);
  for (std::size_t i = 0; i < m.size(); ++i) {
    // Survivors are rescaled by 2x, dropped are exactly 0.
    EXPECT_TRUE(m.data()[i] == 0.0f || m.data()[i] == 4.0f);
    EXPECT_FLOAT_EQ(m.data()[i], 2.0f * mask.data()[i]);
  }
}

TEST(OpsTest, DropoutExpectationPreserved) {
  // E[dropout(x)] == x: check the empirical mean over many entries.
  Matrix m(100, 100);
  m.Fill(1.0f);
  Matrix mask;
  Rng rng(7);
  DropoutInPlace(m, 0.3f, mask, rng);
  const double mean =
      std::accumulate(m.data(), m.data() + m.size(), 0.0) / m.size();
  EXPECT_NEAR(mean, 1.0, 0.05);
}

/// Raw bit patterns, so -0 vs +0 and NaN payloads count as differences.
std::vector<std::uint32_t> RawBits(const Matrix& m) {
  std::vector<std::uint32_t> out(m.size());
  if (!out.empty()) std::memcpy(out.data(), m.data(), m.size() * sizeof(float));
  return out;
}

/// A row-major matrix of kernel-stream values (zeros, -0, denormals) with
/// a NaN and a -inf planted.
Matrix StreamMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  nai::testing::KernelValueStream stream(seed);
  std::vector<float> v(rows * cols);
  nai::testing::FillFloats(stream, v, /*poison=*/true);
  Matrix m(rows, cols);
  std::copy(v.begin(), v.end(), m.data());
  return m;
}

TEST(OpsTest, ReluBackwardMatchesNaiveBitwise) {
  // z carries +-0, denormals, NaN and -inf; grad carries the same. The
  // naive loop zeroes exactly where z <= 0 (so -0 and +0 both kill, NaN
  // does not) and leaves every other bit alone.
  for (const std::size_t cols : {1u, 7u, 8u, 20u, 64u, 65u}) {
    const Matrix z = StreamMatrix(37, cols, 3 + cols);
    Matrix grad = StreamMatrix(37, cols, 1000 + cols);
    Matrix ref = grad;
    for (std::size_t i = 0; i < z.size(); ++i) {
      if (z.data()[i] <= 0.0f) ref.data()[i] = 0.0f;
    }
    ReluBackwardInPlace(z, grad);
    EXPECT_EQ(RawBits(grad), RawBits(ref)) << "cols=" << cols;
  }
}

TEST(OpsTest, DropoutMatchesNaiveBitwise) {
  // The naive loop: one NextFloat() per entry in index order, dropped when
  // the draw is < rate. Values and mask must match bit for bit (NaN, -inf
  // and -0 inputs included), and both runs leave the Rng in the same state.
  for (const float rate : {0.1f, 0.3f, 0.5f, 0.9f}) {
    for (const std::size_t cols : {1u, 20u, 64u, 67u}) {
      const Matrix input = StreamMatrix(33, cols, 7 + cols);
      Rng rng(42);
      Rng naive_rng(42);
      Matrix m = input;
      Matrix mask;
      DropoutInPlace(m, rate, mask, rng);

      Matrix ref = input;
      Matrix ref_mask(input.rows(), input.cols());
      const float keep_scale = 1.0f / (1.0f - rate);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (naive_rng.NextFloat() < rate) {
          ref_mask.data()[i] = 0.0f;
          ref.data()[i] = 0.0f;
        } else {
          ref_mask.data()[i] = keep_scale;
          ref.data()[i] *= keep_scale;
        }
      }
      EXPECT_EQ(RawBits(m), RawBits(ref))
          << "rate=" << rate << " cols=" << cols;
      EXPECT_EQ(RawBits(mask), RawBits(ref_mask))
          << "rate=" << rate << " cols=" << cols;
      EXPECT_EQ(rng.NextUint64(), naive_rng.NextUint64());
    }
  }
}

}  // namespace
}  // namespace nai::tensor
