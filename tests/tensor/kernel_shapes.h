#ifndef NAI_TESTS_TENSOR_KERNEL_SHAPES_H_
#define NAI_TESTS_TENSOR_KERNEL_SHAPES_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace nai::testing {

/// One GEMM problem: out(m, n) from a(m, k) and b(k, n) (or b(n, k) for the
/// transposed-B kernel). Shared by the kernel parity suite and the kernel
/// benches so both sweep the same dispatch-relevant sizes.
struct GemmShape {
  std::size_t m, k, n;
};

/// The parity sweep. Dimensions are chosen around every vector-width
/// boundary the compiled kernels care about: below one lane group (1, 2,
/// 7), exactly one 8-wide group (8), one past it (9), around the 16-wide
/// double-pumped axpy body (15..17), around the 4-row register block times
/// 8-wide tiles (63..65 in all roles), plus empty matrices in each role and
/// two skinny/wide serving-style shapes (a few rows against a large hidden
/// or output dimension, the 1000x4096 flavor scaled to test runtime).
inline std::vector<GemmShape> ParityShapes() {
  std::vector<GemmShape> shapes;
  const std::size_t dims[] = {1, 2, 7, 8, 9, 15, 16, 17};
  for (const std::size_t m : dims) {
    for (const std::size_t k : dims) {
      for (const std::size_t n : dims) {
        // Full cross product of the small dims is 512 shapes; keep every
        // boundary pairing but prune the interior by requiring at least
        // one dimension to sit on a lane-group edge.
        if (m % 8 == 0 || n % 8 == 0 || k % 8 == 0 || m == 1 || n == 1 ||
            k == 1 || m == n || n == k) {
          shapes.push_back({m, k, n});
        }
      }
    }
  }
  // The register-block boundary (4 rows x 8 cols) in every role.
  shapes.push_back({63, 64, 65});
  shapes.push_back({64, 65, 63});
  shapes.push_back({65, 63, 64});
  // Edges of the AVX2 4-row x 16-column tile: row counts on and past a
  // 4-row block against column counts on a 16-column tile, with masked
  // tails of 4, 8 and 1 columns (20, 24, 65); k = 9 and 20 leave 1 and 4
  // p steps past the 8-step zero-check chunks.
  for (const std::size_t m : {4, 5, 8, 67}) {
    for (const std::size_t n : {16, 20, 24, 64, 65}) {
      for (const std::size_t k : {9, 20}) shapes.push_back({m, k, n});
    }
  }
  // Empty matrices: each dimension zero in turn.
  shapes.push_back({0, 8, 8});
  shapes.push_back({8, 0, 8});
  shapes.push_back({8, 8, 0});
  shapes.push_back({0, 0, 0});
  // Wide serving shapes (the 1000x4096 flavor, scaled for test runtime):
  // few rows, large reduction or output dimension.
  shapes.push_back({3, 1000, 33});
  shapes.push_back({2, 17, 1000});
  shapes.push_back({1, 8, 4096});
  return shapes;
}

/// Tall-k shapes of the training weight gradient dW = X^T * dY, for the
/// transposed-A kernel: out(m, n) from a(k, m) and b(k, n), with k the
/// batch rows, m the layer input width and n its output width (a hidden
/// layer and a 20-class head).
inline std::vector<GemmShape> TallTransposeAShapes() {
  return {{64, 10800, 20}, {64, 10800, 64}};
}

/// Deterministic value stream for filling operands: a mix of ordinary
/// magnitudes, exact zeros (to exercise the matmul zero-skip contract),
/// negative zeros and denormals. Plain LCG so the fixture has no
/// dependencies and the same (seed, index) always yields the same float.
class KernelValueStream {
 public:
  explicit KernelValueStream(std::uint64_t seed) : state_(seed * 2862933555777941757ULL + 3037000493ULL) {}

  float Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint32_t bits = static_cast<std::uint32_t>(state_ >> 33);
    switch (bits % 16) {
      case 0:
        return 0.0f;  // exact zero: the matmul_rows zero-skip path
      case 1:
        return -0.0f;
      case 2:
        return std::numeric_limits<float>::denorm_min() *
               static_cast<float>(1 + bits % 7);
      default:
        break;
    }
    // Uniform in [-4, 4) with a spread of exponents.
    const float u =
        static_cast<float>(bits % 65536) / 65536.0f * 8.0f - 4.0f;
    return (bits % 3 == 0) ? u * 1e-3f : u;
  }

  std::int8_t NextInt8() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint32_t bits = static_cast<std::uint32_t>(state_ >> 33);
    if (bits % 11 == 0) return 0;  // gemm_s8 x-zero skip path
    return static_cast<std::int8_t>(static_cast<int>(bits % 255) - 127);
  }

 private:
  std::uint64_t state_;
};

/// Fills `v` (already sized) from the stream. `poison` plants a NaN and an
/// infinity at deterministic positions so special values flow through the
/// fixed-order arithmetic identically at every SIMD level.
inline void FillFloats(KernelValueStream& stream, std::vector<float>& v,
                       bool poison = false) {
  for (float& x : v) x = stream.Next();
  if (poison && v.size() >= 2) {
    v[v.size() / 3] = std::numeric_limits<float>::quiet_NaN();
    v[(2 * v.size()) / 3] = -std::numeric_limits<float>::infinity();
  }
}

/// Fills `v` like a ReLU output: every negative stream value becomes +0,
/// so about half the entries are zero, and the stream's -0, denormals and
/// positive magnitudes are kept.
inline void FillReluLike(KernelValueStream& stream, std::vector<float>& v) {
  for (float& x : v) {
    x = stream.Next();
    if (x < 0.0f) x = 0.0f;
  }
}

inline void FillInt8(KernelValueStream& stream, std::vector<std::int8_t>& v) {
  for (std::int8_t& x : v) x = stream.NextInt8();
}

}  // namespace nai::testing

#endif  // NAI_TESTS_TENSOR_KERNEL_SHAPES_H_
