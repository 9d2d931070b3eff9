#include "src/tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

// Compile-time availability of each vector path. AVX2 kernels are built as
// per-function `target("avx2")` specializations, so the translation unit
// itself stays at the baseline ISA and the binary still runs on CPUs
// without AVX2 (runtime detection picks the path). This file is compiled
// with -ffp-contract=off (see CMakeLists.txt): the bit-exactness contract
// requires separate multiply and add roundings, and on targets where fused
// multiply-add exists at the baseline ISA (AArch64) the compiler would
// otherwise be free to contract them.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define NAI_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#else
#define NAI_SIMD_HAVE_AVX2 0
#endif

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#define NAI_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#else
#define NAI_SIMD_HAVE_NEON 0
#endif

namespace nai::tensor::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the exact loops the tensor and graph
// entry points ran before dispatch existed; NAI_SIMD=scalar therefore
// reproduces historical outputs byte for byte.
// ---------------------------------------------------------------------------

void AxpyScalar(float w, const float* src, float* dst, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) dst[j] += w * src[j];
}

void MatMulRowsScalar(const float* a, const float* b, float* out,
                      std::size_t r0, std::size_t r1, std::size_t k,
                      std::size_t n) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void MatMulTbRowsScalar(const float* a, const float* b, float* out,
                        std::size_t r0, std::size_t r1, std::size_t k,
                        std::size_t n) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] = acc;
    }
  }
}

void GemmS8Scalar(const std::int8_t* x, const std::int8_t* w,
                  std::int32_t* acc, std::size_t k, std::size_t n) {
  for (std::size_t p = 0; p < k; ++p) {
    const std::int32_t xv = x[p];
    if (xv == 0) continue;
    const std::int8_t* wr = w + p * n;
    for (std::size_t j = 0; j < n; ++j) {
      acc[j] += xv * static_cast<std::int32_t>(wr[j]);
    }
  }
}

/// Column tail of the blocked MatMul paths: identical to the scalar kernel
/// restricted to columns [j0, n). Kept at the baseline ISA so the vector
/// kernels' remainder columns round exactly like the reference.
inline void MatMulRowTail(const float* arow, const float* b, float* orow,
                          std::size_t k, std::size_t n, std::size_t j0) {
  for (std::size_t p = 0; p < k; ++p) {
    const float av = arow[p];
    if (av == 0.0f) continue;
    const float* brow = b + p * n;
    for (std::size_t j = j0; j < n; ++j) orow[j] += av * brow[j];
  }
}

/// A^T * B as a sequence of row updates: for p ascending, out row i +=
/// a[p][i] * b row p unless a[p][i] == 0. Bit-exact at every level because
/// each level's axpy is.
template <void (*kAxpy)(float, const float*, float*, std::size_t)>
void MatMulTaByAxpy(const float* a, const float* b, float* out, std::size_t k,
                    std::size_t m, std::size_t n) {
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      kAxpy(av, brow, out + i * n, n);
    }
  }
}

constexpr KernelSet kScalarKernels = {AxpyScalar, MatMulRowsScalar,
                                      MatMulTbRowsScalar,
                                      MatMulTaByAxpy<AxpyScalar>,
                                      GemmS8Scalar};

// ---------------------------------------------------------------------------
// AVX2 kernels. Vectorization is over the output-column dimension only, so
// each output element still accumulates its products over p in ascending
// order; multiplies and adds are separate intrinsics (target("avx2") does
// not enable FMA, so the compiler cannot fuse them either). Both together
// make every float result bit-identical to the scalar reference.
// ---------------------------------------------------------------------------

#if NAI_SIMD_HAVE_AVX2

__attribute__((target("avx2"))) void AxpyAvx2(float w, const float* src,
                                              float* dst, std::size_t n) {
  const __m256 vw = _mm256_set1_ps(w);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 d0 = _mm256_loadu_ps(dst + j);
    __m256 d1 = _mm256_loadu_ps(dst + j + 8);
    d0 = _mm256_add_ps(d0, _mm256_mul_ps(vw, _mm256_loadu_ps(src + j)));
    d1 = _mm256_add_ps(d1, _mm256_mul_ps(vw, _mm256_loadu_ps(src + j + 8)));
    _mm256_storeu_ps(dst + j, d0);
    _mm256_storeu_ps(dst + j + 8, d1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 d = _mm256_loadu_ps(dst + j);
    d = _mm256_add_ps(d, _mm256_mul_ps(vw, _mm256_loadu_ps(src + j)));
    _mm256_storeu_ps(dst + j, d);
  }
  for (; j < n; ++j) dst[j] += w * src[j];
}

// Shorthand for the AVX2 helpers below: compiled for AVX2 and always
// inlined into the target("avx2") kernels that call them.
#define NAI_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline

/// Lane mask selecting the first `count` (1..8) floats of a vector, for the
/// maskload/maskstore column tails.
NAI_AVX2_INLINE __m256i TailMask(std::size_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// One output row of a register tile: kVecs vectors of 8 columns. With
/// kMasked the last vector covers only the lanes of `tail`: masked lanes
/// are never loaded from or stored to memory, and whatever they accumulate
/// is discarded. A tile keeps up to four of these as separate locals, each
/// small enough for the compiler to hold in registers (one aggregate for
/// the whole tile is kept in memory and stored back on every step).
template <int kVecs>
struct Avx2Row {
  __m256 v[kVecs];
};

template <int kVecs, bool kMasked>
NAI_AVX2_INLINE void LoadRow(Avx2Row<kVecs>& c, const float* o,
                             __m256i tail) {
  for (int v = 0; v < kVecs; ++v) {
    c.v[v] = kMasked && v == kVecs - 1 ? _mm256_maskload_ps(o + 8 * v, tail)
                                       : _mm256_loadu_ps(o + 8 * v);
  }
}

template <int kVecs, bool kMasked>
NAI_AVX2_INLINE void StoreRow(const Avx2Row<kVecs>& c, float* o,
                              __m256i tail) {
  for (int v = 0; v < kVecs; ++v) {
    if (kMasked && v == kVecs - 1) {
      _mm256_maskstore_ps(o + 8 * v, tail, c.v[v]);
    } else {
      _mm256_storeu_ps(o + 8 * v, c.v[v]);
    }
  }
}

/// One p step of one row: c += a * b. kSkipZeros applies the scalar
/// zero-skip as a select: the sum is computed and then discarded for
/// a == 0, so the skipped element keeps its exact bits (-0, and no
/// 0 * inf NaN). Without it the caller has shown a nonzero, where the
/// reference always adds.
template <bool kSkipZeros, int kVecs>
NAI_AVX2_INLINE void StepRow(Avx2Row<kVecs>& c, const float* a,
                             const Avx2Row<kVecs>& b) {
  const __m256 av = _mm256_broadcast_ss(a);
  const __m256 skip = _mm256_cmp_ps(av, _mm256_setzero_ps(), _CMP_EQ_OQ);
  for (int v = 0; v < kVecs; ++v) {
    const __m256 sum = _mm256_add_ps(c.v[v], _mm256_mul_ps(av, b.v[v]));
    c.v[v] = kSkipZeros ? _mm256_blendv_ps(sum, c.v[v], skip) : sum;
  }
}

/// A kRows x (8 * kVecs) register tile (kRows <= 4; rows past kRows are
/// left untouched). Output rows are `ldo` floats apart.
template <int kRows, int kVecs, bool kMasked>
struct Avx2Tile {
  using Row = Avx2Row<kVecs>;

  NAI_AVX2_INLINE static void Load(Row& c0, Row& c1, Row& c2, Row& c3,
                                   const float* o, std::size_t ldo,
                                   __m256i tail) {
    LoadRow<kVecs, kMasked>(c0, o, tail);
    if constexpr (kRows > 1) LoadRow<kVecs, kMasked>(c1, o + ldo, tail);
    if constexpr (kRows > 2) LoadRow<kVecs, kMasked>(c2, o + 2 * ldo, tail);
    if constexpr (kRows > 3) LoadRow<kVecs, kMasked>(c3, o + 3 * ldo, tail);
  }

  NAI_AVX2_INLINE static void Store(const Row& c0, const Row& c1,
                                    const Row& c2, const Row& c3, float* o,
                                    std::size_t ldo, __m256i tail) {
    StoreRow<kVecs, kMasked>(c0, o, tail);
    if constexpr (kRows > 1) StoreRow<kVecs, kMasked>(c1, o + ldo, tail);
    if constexpr (kRows > 2) StoreRow<kVecs, kMasked>(c2, o + 2 * ldo, tail);
    if constexpr (kRows > 3) StoreRow<kVecs, kMasked>(c3, o + 3 * ldo, tail);
  }

  /// One p step of every row: row r accumulates av[r * as] * brow.
  template <bool kSkipZeros>
  NAI_AVX2_INLINE static void Step(Row& c0, Row& c1, Row& c2, Row& c3,
                                   const float* av, std::size_t as,
                                   const float* brow, __m256i tail) {
    Row bv;
    LoadRow<kVecs, kMasked>(bv, brow, tail);
    StepRow<kSkipZeros>(c0, av, bv);
    if constexpr (kRows > 1) StepRow<kSkipZeros>(c1, av + as, bv);
    if constexpr (kRows > 2) StepRow<kSkipZeros>(c2, av + 2 * as, bv);
    if constexpr (kRows > 3) StepRow<kSkipZeros>(c3, av + 3 * as, bv);
  }
};

/// True when none of the kRows runs of 8 floats starting at a (rows `lda`
/// apart) holds a zero (+0 or -0).
template <int kRows>
NAI_AVX2_INLINE bool NoZeros8(const float* a, std::size_t lda) {
  int zeros = 0;
  for (int r = 0; r < kRows; ++r) {
    zeros |= _mm256_movemask_ps(_mm256_cmp_ps(
        _mm256_loadu_ps(a + r * lda), _mm256_setzero_ps(), _CMP_EQ_OQ));
  }
  return zeros == 0;
}

template <int kValue>
using IntConstant = std::integral_constant<int, kValue>;

/// Covers output rows [r0, r1) x columns [0, n) with register tiles: 4-row
/// blocks and one block of the 1-3 remaining rows; in each block,
/// 16-column tiles and one masked tile of the n % 16 remaining columns.
/// `tile(rows, vecs, masked, i, j, tail_cols)` gets the tile shape as
/// constants (kRows, kVecs 8-column vectors, a masked last vector holding
/// tail_cols columns) and its first row and column.
template <typename TileFn>
void ForEachTile(std::size_t r0, std::size_t r1, std::size_t n,
                 const TileFn& tile) {
  const auto row_block = [&](auto rows, std::size_t i) {
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      tile(rows, IntConstant<2>{}, std::false_type{}, i, j, 8);
    }
    const std::size_t rem = n - j;
    if (rem > 8) {
      tile(rows, IntConstant<2>{}, std::true_type{}, i, j, rem - 8);
    } else if (rem > 0) {
      tile(rows, IntConstant<1>{}, std::true_type{}, i, j, rem);
    }
  };
  std::size_t i = r0;
  for (; i + 4 <= r1; i += 4) row_block(IntConstant<4>{}, i);
  switch (r1 - i) {
    case 3:
      row_block(IntConstant<3>{}, i);
      break;
    case 2:
      row_block(IntConstant<2>{}, i);
      break;
    case 1:
      row_block(IntConstant<1>{}, i);
      break;
    default:
      break;
  }
}

/// One MatMul tile: rows [0, kRows) of out (rows n apart, starting at the
/// tile's first row) += a * b over columns [j, j + 8 * kVecs). p runs in
/// chunks of 8: a chunk whose a values are all nonzero (dense features)
/// takes the blend-free step, any other chunk (ReLU-sparse activations)
/// the blend step. Both add exactly what the reference adds.
template <int kRows, int kVecs, bool kMasked>
__attribute__((target("avx2"))) void MatMulTile(const float* a, const float* b,
                                                float* out, std::size_t k,
                                                std::size_t n, std::size_t j,
                                                std::size_t tail_cols) {
  using Tile = Avx2Tile<kRows, kVecs, kMasked>;
  const __m256i tail = TailMask(tail_cols);
  typename Tile::Row c0, c1, c2, c3;
  Tile::Load(c0, c1, c2, c3, out + j, n, tail);
  const float* bj = b + j;
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    if (NoZeros8<kRows>(a + p, k)) {
      for (std::size_t q = p; q < p + 8; ++q) {
        Tile::template Step<false>(c0, c1, c2, c3, a + q, k, bj + q * n,
                                   tail);
      }
    } else {
      for (std::size_t q = p; q < p + 8; ++q) {
        Tile::template Step<true>(c0, c1, c2, c3, a + q, k, bj + q * n, tail);
      }
    }
  }
  for (; p < k; ++p) {
    Tile::template Step<true>(c0, c1, c2, c3, a + p, k, bj + p * n, tail);
  }
  Tile::Store(c0, c1, c2, c3, out + j, n, tail);
}

/// Register-tiled MatMul: 4 output rows x 16 columns per tile held in
/// registers across the whole p sweep (each b row-slice load is reused by
/// all four rows), with the zero-skip applied per (row, p) as above.
__attribute__((target("avx2"))) void MatMulRowsAvx2(const float* a,
                                                    const float* b, float* out,
                                                    std::size_t r0,
                                                    std::size_t r1,
                                                    std::size_t k,
                                                    std::size_t n) {
  ForEachTile(r0, r1, n,
              [&](auto rows, auto vecs, auto masked, std::size_t i,
                  std::size_t j, std::size_t tail_cols) {
                MatMulTile<rows, vecs, masked>(a + i * k, b, out + i * n, k,
                                               n, j, tail_cols);
              });
}

/// One A^T * B tile: out rows [i, i + kRows) (a's columns) += the products
/// of a's rows [p0, p1) over columns [j, j + 8 * kVecs). The four a values
/// of one p sit side by side, so a full tile checks them with one compare
/// and takes the blend-free step when all four are nonzero — a branch that
/// is predictable on dense inputs and on ReLU-sparse ones alike.
template <int kRows, int kVecs, bool kMasked>
__attribute__((target("avx2"))) void MatMulTaTile(
    const float* a, const float* b, float* out, std::size_t p0,
    std::size_t p1, std::size_t m, std::size_t n, std::size_t i,
    std::size_t j, std::size_t tail_cols) {
  using Tile = Avx2Tile<kRows, kVecs, kMasked>;
  const __m256i tail = TailMask(tail_cols);
  typename Tile::Row c0, c1, c2, c3;
  Tile::Load(c0, c1, c2, c3, out + i * n + j, n, tail);
  for (std::size_t p = p0; p < p1; ++p) {
    const float* av = a + p * m + i;
    const float* brow = b + p * n + j;
    if (kRows == 4 &&
        _mm_movemask_ps(_mm_cmpeq_ps(_mm_loadu_ps(av), _mm_setzero_ps())) ==
            0) {
      Tile::template Step<false>(c0, c1, c2, c3, av, 1, brow, tail);
    } else {
      Tile::template Step<true>(c0, c1, c2, c3, av, 1, brow, tail);
    }
  }
  Tile::Store(c0, c1, c2, c3, out + i * n + j, n, tail);
}

/// Tiled A^T * B: p is swept in blocks of kTaBlock rows so the block's
/// rows of a and b stay in cache while every 4 x 16 output tile passes
/// over them; a tile is stored between blocks and reloaded, which keeps
/// each element's p-ascending order.
__attribute__((target("avx2"))) void MatMulTaAvx2(const float* a,
                                                  const float* b, float* out,
                                                  std::size_t k, std::size_t m,
                                                  std::size_t n) {
  constexpr std::size_t kTaBlock = 256;
  for (std::size_t p0 = 0; p0 < k; p0 += kTaBlock) {
    const std::size_t p1 = std::min(k, p0 + kTaBlock);
    ForEachTile(0, m, n,
                [&](auto rows, auto vecs, auto masked, std::size_t i,
                    std::size_t j, std::size_t tail_cols) {
                  MatMulTaTile<rows, vecs, masked>(a, b, out, p0, p1, m, n, i,
                                                   j, tail_cols);
                });
  }
}

/// kRows rows of A * B^T against one packed 8-column tile: kRows
/// independent dot-product chains, each broadcast(a[r][p]) * pack[p] added
/// over p ascending from +0 — the scalar dot product's mul-then-add
/// sequence. A partial tile (fewer than 8 columns) stores only its lanes.
template <int kRows>
__attribute__((target("avx2"))) void MatMulTbTile(const float* a,
                                                  const float* pack,
                                                  float* out, std::size_t k,
                                                  std::size_t n,
                                                  std::size_t cols,
                                                  __m256i tail) {
  __m256 acc[kRows];
  for (int r = 0; r < kRows; ++r) acc[r] = _mm256_setzero_ps();
  for (std::size_t p = 0; p < k; ++p) {
    const __m256 bv = _mm256_loadu_ps(pack + p * 8);
    for (int r = 0; r < kRows; ++r) {
      acc[r] = _mm256_add_ps(
          acc[r], _mm256_mul_ps(_mm256_broadcast_ss(a + r * k + p), bv));
    }
  }
  for (int r = 0; r < kRows; ++r) {
    if (cols == 8) {
      _mm256_storeu_ps(out + r * n, acc[r]);
    } else {
      _mm256_maskstore_ps(out + r * n, tail, acc[r]);
    }
  }
}

/// Cache-tiled A * B^T: each 8-column tile of b is packed once into a
/// k x 8 interleaved scratch (zero-padded past n, amortized over all rows
/// of the range), then rows run four at a time against it.
__attribute__((target("avx2"))) void MatMulTbRowsAvx2(
    const float* a, const float* b, float* out, std::size_t r0, std::size_t r1,
    std::size_t k, std::size_t n) {
  if (r0 >= r1) return;
  std::vector<float> pack(k * 8);
  for (std::size_t j0 = 0; j0 < n; j0 += 8) {
    const std::size_t cols = std::min<std::size_t>(8, n - j0);
    for (std::size_t jj = 0; jj < 8; ++jj) {
      const float* brow = jj < cols ? b + (j0 + jj) * k : nullptr;
      for (std::size_t p = 0; p < k; ++p) {
        pack[p * 8 + jj] = brow != nullptr ? brow[p] : 0.0f;
      }
    }
    const __m256i tail = TailMask(cols);
    std::size_t i = r0;
    for (; i + 4 <= r1; i += 4) {
      MatMulTbTile<4>(a + i * k, pack.data(), out + i * n + j0, k, n, cols,
                      tail);
    }
    for (; i < r1; ++i) {
      MatMulTbTile<1>(a + i * k, pack.data(), out + i * n + j0, k, n, cols,
                      tail);
    }
  }
}

/// int8 x int8 -> int32 row update, 8 accumulators per register. Integer
/// arithmetic is associative, so this is exact (not just bit-exact-by-
/// construction like the float paths).
__attribute__((target("avx2"))) void GemmS8Avx2(const std::int8_t* x,
                                                const std::int8_t* w,
                                                std::int32_t* acc,
                                                std::size_t k, std::size_t n) {
  const std::size_t n8 = n - n % 8;
  for (std::size_t j = 0; j < n8; j += 8) {
    __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + j));
    for (std::size_t p = 0; p < k; ++p) {
      const std::int32_t xv = x[p];
      if (xv == 0) continue;
      const __m128i w8 =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + p * n + j));
      const __m256i wv = _mm256_cvtepi8_epi32(w8);
      c = _mm256_add_epi32(c, _mm256_mullo_epi32(_mm256_set1_epi32(xv), wv));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + j), c);
  }
  if (n8 < n) {
    for (std::size_t p = 0; p < k; ++p) {
      const std::int32_t xv = x[p];
      if (xv == 0) continue;
      const std::int8_t* wr = w + p * n;
      for (std::size_t j = n8; j < n; ++j) {
        acc[j] += xv * static_cast<std::int32_t>(wr[j]);
      }
    }
  }
}

const KernelSet kAvx2Kernels = {AxpyAvx2, MatMulRowsAvx2, MatMulTbRowsAvx2,
                                MatMulTaAvx2, GemmS8Avx2};

#endif  // NAI_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// NEON kernels (4-wide). Same construction as AVX2: column-dimension
// vectorization, explicit vmulq + vaddq (never vfma), scalar column tails.
// ---------------------------------------------------------------------------

#if NAI_SIMD_HAVE_NEON

void AxpyNeon(float w, const float* src, float* dst, std::size_t n) {
  const float32x4_t vw = vdupq_n_f32(w);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    float32x4_t d0 = vld1q_f32(dst + j);
    float32x4_t d1 = vld1q_f32(dst + j + 4);
    d0 = vaddq_f32(d0, vmulq_f32(vw, vld1q_f32(src + j)));
    d1 = vaddq_f32(d1, vmulq_f32(vw, vld1q_f32(src + j + 4)));
    vst1q_f32(dst + j, d0);
    vst1q_f32(dst + j + 4, d1);
  }
  for (; j + 4 <= n; j += 4) {
    float32x4_t d = vld1q_f32(dst + j);
    d = vaddq_f32(d, vmulq_f32(vw, vld1q_f32(src + j)));
    vst1q_f32(dst + j, d);
  }
  for (; j < n; ++j) dst[j] += w * src[j];
}

void MatMulRowsNeon(const float* a, const float* b, float* out, std::size_t r0,
                    std::size_t r1, std::size_t k, std::size_t n) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      float32x4_t c = vld1q_f32(orow + j);
      for (std::size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        c = vaddq_f32(c, vmulq_f32(vdupq_n_f32(av), vld1q_f32(b + p * n + j)));
      }
      vst1q_f32(orow + j, c);
    }
    if (j < n) MatMulRowTail(arow, b, orow, k, n, j);
  }
}

void MatMulTbRowsNeon(const float* a, const float* b, float* out,
                      std::size_t r0, std::size_t r1, std::size_t k,
                      std::size_t n) {
  if (r0 >= r1) return;
  const std::size_t n4 = n - n % 4;
  std::vector<float> pack(k * 4);
  for (std::size_t j0 = 0; j0 < n4; j0 += 4) {
    for (std::size_t jj = 0; jj < 4; ++jj) {
      const float* brow = b + (j0 + jj) * k;
      for (std::size_t p = 0; p < k; ++p) pack[p * 4 + jj] = brow[p];
    }
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = a + i * k;
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (std::size_t p = 0; p < k; ++p) {
        acc = vaddq_f32(
            acc, vmulq_f32(vdupq_n_f32(arow[p]), vld1q_f32(pack.data() + p * 4)));
      }
      vst1q_f32(out + i * n + j0, acc);
    }
  }
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (std::size_t j = n4; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] = acc;
    }
  }
}

void GemmS8Neon(const std::int8_t* x, const std::int8_t* w, std::int32_t* acc,
                std::size_t k, std::size_t n) {
  const std::size_t n8 = n - n % 8;
  for (std::size_t j = 0; j < n8; j += 8) {
    int32x4_t c0 = vld1q_s32(acc + j);
    int32x4_t c1 = vld1q_s32(acc + j + 4);
    for (std::size_t p = 0; p < k; ++p) {
      const std::int8_t xv = x[p];
      if (xv == 0) continue;
      const int8x8_t w8 = vld1_s8(w + p * n + j);
      const int16x8_t prod = vmull_s8(vdup_n_s8(xv), w8);
      c0 = vaddw_s16(c0, vget_low_s16(prod));
      c1 = vaddw_s16(c1, vget_high_s16(prod));
    }
    vst1q_s32(acc + j, c0);
    vst1q_s32(acc + j + 4, c1);
  }
  if (n8 < n) {
    for (std::size_t p = 0; p < k; ++p) {
      const std::int32_t xv = x[p];
      if (xv == 0) continue;
      const std::int8_t* wr = w + p * n;
      for (std::size_t j = n8; j < n; ++j) {
        acc[j] += xv * static_cast<std::int32_t>(wr[j]);
      }
    }
  }
}

const KernelSet kNeonKernels = {AxpyNeon, MatMulRowsNeon, MatMulTbRowsNeon,
                                MatMulTaByAxpy<AxpyNeon>, GemmS8Neon};

#endif  // NAI_SIMD_HAVE_NEON

/// The process-wide active level: -1 until first resolution. A benign
/// double-resolution race is fine (both writers store the same value);
/// SetActiveLevelForTesting overwrites it from the test's thread before
/// the kernels under test run.
std::atomic<int> g_active{-1};

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "unknown";
}

std::optional<Level> ParseLevel(std::string_view token) {
  if (token == "scalar") return Level::kScalar;
  if (token == "avx2") return Level::kAvx2;
  if (token == "neon") return Level::kNeon;
  return std::nullopt;
}

bool LevelCompiled(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
      return NAI_SIMD_HAVE_AVX2 != 0;
    case Level::kNeon:
      return NAI_SIMD_HAVE_NEON != 0;
  }
  return false;
}

bool LevelSupported(Level level) {
  if (!LevelCompiled(level)) return false;
#if NAI_SIMD_HAVE_AVX2
  if (level == Level::kAvx2) return __builtin_cpu_supports("avx2") != 0;
#endif
  // Scalar always runs; a binary compiled with NEON enabled implies the
  // target executes it (NEON is baseline on AArch64).
  return true;
}

Level BestSupportedLevel() {
  if (LevelSupported(Level::kAvx2)) return Level::kAvx2;
  if (LevelSupported(Level::kNeon)) return Level::kNeon;
  return Level::kScalar;
}

std::vector<Level> SupportedLevels() {
  std::vector<Level> out;
  for (const Level level : {Level::kScalar, Level::kAvx2, Level::kNeon}) {
    if (LevelSupported(level)) out.push_back(level);
  }
  return out;
}

Level ResolveLevel(const char* value) {
  if (value != nullptr) {
    const std::optional<Level> parsed = ParseLevel(value);
    if (parsed.has_value() && LevelSupported(*parsed)) return *parsed;
  }
  return BestSupportedLevel();
}

Level ActiveLevel() {
  int v = g_active.load(std::memory_order_acquire);
  if (v < 0) {
    v = static_cast<int>(ResolveLevel(std::getenv("NAI_SIMD")));
    g_active.store(v, std::memory_order_release);
  }
  return static_cast<Level>(v);
}

void SetActiveLevelForTesting(Level level) {
  if (!LevelSupported(level)) {
    throw std::invalid_argument(
        std::string("simd::SetActiveLevelForTesting: level not supported on "
                    "this host: ") +
        LevelName(level));
  }
  g_active.store(static_cast<int>(level), std::memory_order_release);
}

const KernelSet& Kernels(Level level) {
  switch (level) {
    case Level::kScalar:
      return kScalarKernels;
    case Level::kAvx2:
#if NAI_SIMD_HAVE_AVX2
      return kAvx2Kernels;
#else
      break;
#endif
    case Level::kNeon:
#if NAI_SIMD_HAVE_NEON
      return kNeonKernels;
#else
      break;
#endif
  }
  throw std::invalid_argument(
      std::string("simd::Kernels: level not compiled into this binary: ") +
      LevelName(level));
}

const KernelSet& ActiveKernels() { return Kernels(ActiveLevel()); }

}  // namespace nai::tensor::simd
