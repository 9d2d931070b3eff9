// Kernel-parity harness: every compiled-and-supported SIMD level must
// reproduce the scalar reference kernels byte-for-byte on floats (the
// dispatch contract of src/tensor/simd.h — fixed per-element summation
// order, separate mul/add rounding, the matmul_rows zero-skip) and exactly
// on int8/int32. The sweep runs every shape in tests/tensor/kernel_shapes.h
// — lane-group boundaries, register-block boundaries, empty matrices, wide
// serving shapes — with unaligned operand bases, planted denormals, NaNs
// and infinities, ReLU-sparse zero-skipped operands and -0 accumulators;
// the transposed-A kernel is also held to a naive loop, on the tall
// training shapes too. On a scalar-only host the per-level loops degenerate to
// scalar-vs-scalar and the suite still passes (and still checks the
// dispatched entry points).

#include "src/tensor/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/csr.h"
#include "src/tensor/matrix.h"
#include "src/tensor/ops.h"
#include "src/runtime/thread_pool.h"
#include "tests/tensor/kernel_shapes.h"

namespace nai::tensor::simd {
namespace {

using nai::testing::FillFloats;
using nai::testing::FillInt8;
using nai::testing::GemmShape;
using nai::testing::KernelValueStream;
using nai::testing::ParityShapes;

/// Restores the auto-detected dispatch level when a test returns (parity
/// tests pin levels; nothing after them should inherit the pin).
struct ActiveLevelGuard {
  ~ActiveLevelGuard() { SetActiveLevelForTesting(BestSupportedLevel()); }
};

std::string ShapeLabel(const GemmShape& s, Level level) {
  return "m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
         " n=" + std::to_string(s.n) + " level=" + LevelName(level);
}

/// Bit patterns of a float buffer. Comparing these vectors is bitwise
/// equality for every non-NaN value (including signed zeros, denormals and
/// infinities, which ordinary float == would conflate or miss). NaNs are
/// canonicalized to one quiet pattern first: when two NaNs meet in an add
/// (a propagated NaN accumulator plus a fresh inf*0 indefinite), IEEE 754
/// leaves *which* payload survives unspecified, and the scalar reference's
/// choice is literally the compiler's register allocation for `acc += x` —
/// so the dispatch contract is NaN-for-NaN positional agreement, not NaN
/// payload equality (see the simd.h KernelSet comment).
std::vector<std::uint32_t> Bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  if (!v.empty()) std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  for (std::uint32_t& b : out) {
    if ((b & 0x7F800000u) == 0x7F800000u && (b & 0x007FFFFFu) != 0) {
      b = 0x7FC00000u;
    }
  }
  return out;
}

std::vector<std::uint32_t> Bits(const Matrix& m) {
  return Bits(std::vector<float>(m.data(), m.data() + m.size()));
}

/// An operand buffer whose payload starts one float past an aligned
/// allocation base, so vector kernels cannot rely on any alignment.
struct Unaligned {
  explicit Unaligned(std::size_t n) : storage(n + 1) {}
  float* data() { return storage.data() + 1; }
  const float* data() const { return storage.data() + 1; }
  std::size_t size() const { return storage.size() - 1; }
  std::vector<float> payload() const {
    return std::vector<float>(storage.begin() + 1, storage.end());
  }
  std::vector<float> storage;
};

TEST(KernelParityTest, AxpyMatchesScalarBitwise) {
  const std::size_t lengths[] = {0,  1,  2,  7,   8,   9,    15,  16,
                                 17, 31, 32, 33,  63,  64,   65,  100,
                                 127, 128, 1000, 4096};
  for (const bool poison : {false, true}) {
    for (const std::size_t n : lengths) {
      KernelValueStream stream(11 + n + (poison ? 1000 : 0));
      Unaligned src(n), dst_init(n);
      std::vector<float> sv(n), dv(n);
      FillFloats(stream, sv, poison);
      FillFloats(stream, dv);
      std::copy(sv.begin(), sv.end(), src.data());
      std::copy(dv.begin(), dv.end(), dst_init.data());
      const float weights[] = {0.0f, 1.0f, -0.75f, 1e-38f,
                               std::numeric_limits<float>::quiet_NaN()};
      for (const float w : weights) {
        if (std::isnan(w) && !poison) continue;
        Unaligned ref(n);
        std::copy(dv.begin(), dv.end(), ref.data());
        Kernels(Level::kScalar).axpy(w, src.data(), ref.data(), n);
        for (const Level level : SupportedLevels()) {
          Unaligned out(n);
          std::copy(dv.begin(), dv.end(), out.data());
          Kernels(level).axpy(w, src.data(), out.data(), n);
          EXPECT_EQ(Bits(out.payload()), Bits(ref.payload()))
              << "axpy n=" << n << " w=" << w << " poison=" << poison
              << " level=" << LevelName(level);
        }
      }
    }
  }
}

/// How a test fills the zero-skipped operand `a`: the plain stream (exact
/// zeros, -0 and denormals among ordinary values), or a ReLU output (about
/// half of it zero, the sparsity of a hidden activation in training).
enum class AFill { kStream, kReluLike };

/// The initial contents of an accumulated output: stream values, or -0
/// everywhere (a skipped product must leave -0 as -0, not add +0 to it).
enum class OutInit { kStream, kNegativeZero };

std::string VariantLabel(AFill fill, OutInit init, bool poison) {
  return std::string(fill == AFill::kReluLike ? " a=relu" : " a=stream") +
         (init == OutInit::kNegativeZero ? " out=-0" : " out=stream") +
         " poison=" + (poison ? "1" : "0");
}

void FillA(KernelValueStream& stream, std::vector<float>& v, AFill fill) {
  if (fill == AFill::kReluLike) {
    nai::testing::FillReluLike(stream, v);
  } else {
    FillFloats(stream, v);
  }
}

void FillInit(KernelValueStream& stream, std::vector<float>& v,
              OutInit init) {
  if (init == OutInit::kNegativeZero) {
    std::fill(v.begin(), v.end(), -0.0f);
  } else {
    FillFloats(stream, v);
  }
}

TEST(KernelParityTest, MatMulRowsMatchesScalarBitwise) {
  for (const bool poison : {false, true}) {
    for (const AFill fill : {AFill::kStream, AFill::kReluLike}) {
      for (const OutInit init_kind :
           {OutInit::kStream, OutInit::kNegativeZero}) {
        for (const GemmShape& s : ParityShapes()) {
          KernelValueStream stream(17 + s.m * 31 + s.k * 7 + s.n +
                                   (poison ? 5000 : 0));
          Unaligned a(s.m * s.k), b(s.k * s.n);
          std::vector<float> av(a.size()), bv(b.size()), init(s.m * s.n);
          FillA(stream, av, fill);
          // Poison only b: the zero-skip contract says a[i][p] == 0 must
          // also skip 0 * NaN, so planting NaN/Inf in b (opposite the
          // exact zeros in a) exercises exactly that path.
          FillFloats(stream, bv, poison);
          FillInit(stream, init, init_kind);
          std::copy(av.begin(), av.end(), a.data());
          std::copy(bv.begin(), bv.end(), b.data());

          Unaligned ref(s.m * s.n);
          std::copy(init.begin(), init.end(), ref.data());
          Kernels(Level::kScalar)
              .matmul_rows(a.data(), b.data(), ref.data(), 0, s.m, s.k, s.n);
          for (const Level level : SupportedLevels()) {
            Unaligned out(s.m * s.n);
            std::copy(init.begin(), init.end(), out.data());
            // Split the row range unevenly to cover the r0 > 0 entry as
            // the threaded ParallelFor would.
            const std::size_t mid = s.m / 3;
            const KernelSet& ks = Kernels(level);
            ks.matmul_rows(a.data(), b.data(), out.data(), 0, mid, s.k, s.n);
            ks.matmul_rows(a.data(), b.data(), out.data(), mid, s.m, s.k,
                           s.n);
            EXPECT_EQ(Bits(out.payload()), Bits(ref.payload()))
                << ShapeLabel(s, level) << VariantLabel(fill, init_kind,
                                                        poison);
          }
        }
      }
    }
  }
}

/// The transposed-A contract written as the plainest loop: out(m, n) +=
/// a(k, m)^T * b(k, n), p ascending, a[p][i] == 0 skipped. The product is
/// its own statement so no compiler can contract it into an FMA.
void NaiveMatMulTransposeA(const float* a, const float* b, float* out,
                           std::size_t k, std::size_t m, std::size_t n) {
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t i = 0; i < m; ++i) {
      const float av = a[p * m + i];
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const float prod = av * b[p * n + j];
        out[i * n + j] = out[i * n + j] + prod;
      }
    }
  }
}

TEST(KernelParityTest, MatMulTransposeAMatchesNaiveBitwise) {
  // GemmShape {m, k, n} reads as out(m, n) = a(k, m)^T * b(k, n) here; the
  // tall shapes are the training weight gradients.
  std::vector<GemmShape> shapes = ParityShapes();
  for (const GemmShape& s : nai::testing::TallTransposeAShapes()) {
    shapes.push_back(s);
  }
  for (const bool poison : {false, true}) {
    for (const AFill fill : {AFill::kStream, AFill::kReluLike}) {
      for (const OutInit init_kind :
           {OutInit::kStream, OutInit::kNegativeZero}) {
        for (const GemmShape& s : shapes) {
          KernelValueStream stream(53 + s.m * 19 + s.k * 5 + s.n +
                                   (poison ? 9000 : 0));
          Unaligned a(s.k * s.m), b(s.k * s.n);
          std::vector<float> av(a.size()), bv(b.size()), init(s.m * s.n);
          FillA(stream, av, fill);
          FillFloats(stream, bv, poison);
          FillInit(stream, init, init_kind);
          std::copy(av.begin(), av.end(), a.data());
          std::copy(bv.begin(), bv.end(), b.data());

          std::vector<float> ref = init;
          NaiveMatMulTransposeA(a.data(), b.data(), ref.data(), s.k, s.m,
                                s.n);
          for (const Level level : SupportedLevels()) {
            Unaligned out(s.m * s.n);
            std::copy(init.begin(), init.end(), out.data());
            Kernels(level).matmul_ta(a.data(), b.data(), out.data(), s.k,
                                     s.m, s.n);
            EXPECT_EQ(Bits(out.payload()), Bits(ref))
                << ShapeLabel(s, level) << VariantLabel(fill, init_kind,
                                                        poison);
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, MatMulTransposeBRowsMatchesScalarBitwise) {
  for (const bool poison : {false, true}) {
    for (const GemmShape& s : ParityShapes()) {
      KernelValueStream stream(29 + s.m * 13 + s.k * 3 + s.n +
                               (poison ? 7000 : 0));
      Unaligned a(s.m * s.k), b(s.n * s.k);  // b is (n x k): out = a * b^T
      std::vector<float> av(a.size()), bv(b.size());
      FillFloats(stream, av, poison);
      FillFloats(stream, bv);
      std::copy(av.begin(), av.end(), a.data());
      std::copy(bv.begin(), bv.end(), b.data());

      Unaligned ref(s.m * s.n);
      Kernels(Level::kScalar)
          .matmul_tb_rows(a.data(), b.data(), ref.data(), 0, s.m, s.k, s.n);
      for (const Level level : SupportedLevels()) {
        Unaligned out(s.m * s.n);
        const std::size_t mid = (2 * s.m) / 3;
        const KernelSet& ks = Kernels(level);
        ks.matmul_tb_rows(a.data(), b.data(), out.data(), 0, mid, s.k, s.n);
        ks.matmul_tb_rows(a.data(), b.data(), out.data(), mid, s.m, s.k,
                          s.n);
        EXPECT_EQ(Bits(out.payload()), Bits(ref.payload()))
            << ShapeLabel(s, level) << " poison=" << poison;
      }
    }
  }
}

TEST(KernelParityTest, GemmS8ExactAcrossLevels) {
  // Integer kernel: every level must produce *identical* int32 accumulators
  // (not merely close — there is no rounding in int8 x int8 -> int32).
  for (const GemmShape& s : ParityShapes()) {
    KernelValueStream stream(43 + s.k * 5 + s.n);
    std::vector<std::int8_t> x(s.k), w(s.k * s.n);
    FillInt8(stream, x);
    FillInt8(stream, w);
    std::vector<std::int32_t> init(s.n);
    for (std::size_t j = 0; j < s.n; ++j) {
      init[j] = static_cast<std::int32_t>(j * 97) - 300;
    }
    std::vector<std::int32_t> ref = init;
    Kernels(Level::kScalar).gemm_s8(x.data(), w.data(), ref.data(), s.k, s.n);
    for (const Level level : SupportedLevels()) {
      std::vector<std::int32_t> acc = init;
      Kernels(level).gemm_s8(x.data(), w.data(), acc.data(), s.k, s.n);
      EXPECT_EQ(acc, ref) << ShapeLabel(s, level);
    }
    // Saturation extreme: all-(-127) operands over the full reduction must
    // accumulate without overflow at every level (k * 127^2 fits int32 for
    // every sweep shape).
    std::fill(x.begin(), x.end(), static_cast<std::int8_t>(-127));
    std::fill(w.begin(), w.end(), static_cast<std::int8_t>(-127));
    ref.assign(s.n, 0);
    Kernels(Level::kScalar).gemm_s8(x.data(), w.data(), ref.data(), s.k, s.n);
    for (const Level level : SupportedLevels()) {
      std::vector<std::int32_t> acc(s.n, 0);
      Kernels(level).gemm_s8(x.data(), w.data(), acc.data(), s.k, s.n);
      EXPECT_EQ(acc, ref) << ShapeLabel(s, level) << " saturation";
      if (s.k > 0 && s.n > 0) {
        EXPECT_EQ(acc[0], static_cast<std::int32_t>(s.k) * 127 * 127);
      }
    }
  }
}

TEST(KernelParityTest, GemmS8WithinToleranceOfFloatReference) {
  // The int8 path's declared contract vs *float* arithmetic: symmetric
  // absmax/127 per-tensor quantization bounds each product's error, so the
  // dequantized accumulator lands within k * (ax*aw) * (2/127 + 1/127^2)
  // of the float dot product (each factor off by at most scale/2 ignoring
  // rounding direction; we test the conservative full-step bound).
  for (const GemmShape& s : ParityShapes()) {
    if (s.k == 0 || s.n == 0) continue;
    KernelValueStream stream(71 + s.k * 11 + s.n);
    std::vector<float> x(s.k), w(s.k * s.n);
    FillFloats(stream, x);
    FillFloats(stream, w);
    float ax = 0.0f, aw = 0.0f;
    for (const float v : x) ax = std::max(ax, std::fabs(v));
    for (const float v : w) aw = std::max(aw, std::fabs(v));
    if (ax == 0.0f || aw == 0.0f) continue;
    const float sx = ax / 127.0f, sw = aw / 127.0f;
    std::vector<std::int8_t> xq(s.k), wq(s.k * s.n);
    auto quant = [](float v, float scale) {
      const long q = std::lround(v / scale);
      return static_cast<std::int8_t>(std::min(127L, std::max(-127L, q)));
    };
    for (std::size_t p = 0; p < s.k; ++p) xq[p] = quant(x[p], sx);
    for (std::size_t i = 0; i < w.size(); ++i) wq[i] = quant(w[i], sw);

    const double bound = static_cast<double>(s.k) * ax * aw *
                         (2.0 / 127.0 + 1.0 / (127.0 * 127.0));
    for (const Level level : SupportedLevels()) {
      std::vector<std::int32_t> acc(s.n, 0);
      Kernels(level).gemm_s8(xq.data(), wq.data(), acc.data(), s.k, s.n);
      for (std::size_t j = 0; j < s.n; ++j) {
        double exact = 0.0;
        for (std::size_t p = 0; p < s.k; ++p) {
          exact += static_cast<double>(x[p]) * static_cast<double>(w[p * s.n + j]);
        }
        const double dequant = static_cast<double>(acc[j]) * sx * sw;
        EXPECT_LE(std::fabs(dequant - exact), bound)
            << ShapeLabel(s, level) << " col=" << j;
      }
    }
  }
}

TEST(KernelParityTest, DispatchedMatMulBitExactAcrossLevels) {
  // The public entry points (tensor::MatMul / MatMulTransposeB /
  // MatMulTransposeA) under the test pin: every supported level must
  // reproduce the scalar-pinned product byte-for-byte, single- and
  // multi-threaded.
  ActiveLevelGuard guard;
  for (const GemmShape& s : ParityShapes()) {
    KernelValueStream stream(101 + s.m + s.k + s.n);
    Matrix a(s.m, s.k), b(s.k, s.n), bt(s.n, s.k), c(s.m, s.n);
    for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = stream.Next();
    for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = stream.Next();
    for (std::size_t i = 0; i < bt.size(); ++i) bt.data()[i] = stream.Next();
    for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] = stream.Next();

    SetActiveLevelForTesting(Level::kScalar);
    runtime::ThreadPool::SetDefaultThreads(1);
    const Matrix ref = MatMul(a, b);
    const Matrix ref_tb = MatMulTransposeB(a, bt);
    const Matrix ref_ta = MatMulTransposeA(a, c);  // (k x n) = a^T * c
    for (const Level level : SupportedLevels()) {
      SetActiveLevelForTesting(level);
      for (const int threads : {1, 8}) {
        runtime::ThreadPool::SetDefaultThreads(threads);
        const Matrix out = MatMul(a, b);
        const Matrix out_tb = MatMulTransposeB(a, bt);
        const Matrix out_ta = MatMulTransposeA(a, c);
        const std::string label = ShapeLabel(s, level) +
                                  " threads=" + std::to_string(threads);
        ASSERT_EQ(out.rows(), ref.rows());
        ASSERT_EQ(out.cols(), ref.cols());
        EXPECT_EQ(Bits(out), Bits(ref)) << "MatMul " << label;
        EXPECT_EQ(Bits(out_tb), Bits(ref_tb))
            << "MatMulTransposeB " << label;
        EXPECT_EQ(Bits(out_ta), Bits(ref_ta))
            << "MatMulTransposeA " << label;
      }
    }
  }
  runtime::ThreadPool::SetDefaultThreads(0);
}

TEST(KernelParityTest, DispatchedSpMMBitExactAcrossLevels) {
  // graph::SpMM routes its accumulation through the dispatched axpy. A
  // CSR with empty rows, single-entry rows and dense-ish rows over feature
  // widths straddling lane boundaries must be byte-identical at every
  // level (empty rows stay exactly zero).
  ActiveLevelGuard guard;
  constexpr std::int64_t kNodes = 37;
  std::vector<graph::Triplet> trips;
  KernelValueStream stream(131);
  for (std::int32_t r = 0; r < kNodes; ++r) {
    if (r % 5 == 3) continue;  // empty rows
    const int deg = 1 + (r * 7) % 6;
    for (int d = 0; d < deg; ++d) {
      trips.push_back({r, static_cast<std::int32_t>((r * 13 + d * 5) % kNodes),
                       stream.Next()});
    }
  }
  const graph::Csr csr = graph::CsrFromTriplets(kNodes, kNodes, trips);
  for (const std::size_t f : {1u, 7u, 8u, 9u, 16u, 33u}) {
    Matrix dense(kNodes, f);
    for (std::size_t i = 0; i < dense.size(); ++i) {
      dense.data()[i] = stream.Next();
    }
    SetActiveLevelForTesting(Level::kScalar);
    runtime::ThreadPool::SetDefaultThreads(1);
    const Matrix ref = graph::SpMM(csr, dense);
    for (std::int64_t r = 0; r < kNodes; ++r) {
      if (r % 5 == 3) {
        for (std::size_t c = 0; c < f; ++c) EXPECT_EQ(ref.at(r, c), 0.0f);
      }
    }
    for (const Level level : SupportedLevels()) {
      SetActiveLevelForTesting(level);
      for (const int threads : {1, 8}) {
        runtime::ThreadPool::SetDefaultThreads(threads);
        const Matrix out = graph::SpMM(csr, dense);
        EXPECT_EQ(Bits(out), Bits(ref))
            << "SpMM f=" << f << " level=" << LevelName(level)
            << " threads=" << threads;
      }
    }
  }
  runtime::ThreadPool::SetDefaultThreads(0);
}

}  // namespace
}  // namespace nai::tensor::simd
