#ifndef NAI_TENSOR_SIMD_H_
#define NAI_TENSOR_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace nai::tensor::simd {

/// The vector instruction sets the kernel layer can dispatch to. kScalar is
/// always compiled and is the bit-exactness reference: every vector kernel
/// must produce byte-identical float results (fixed per-element summation
/// order, mul-then-add — never fused — arithmetic) and exact int8/int32
/// integer results.
enum class Level {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// Stable lowercase name ("scalar" / "avx2" / "neon") — also the accepted
/// NAI_SIMD spellings.
const char* LevelName(Level level);

/// Strict parse of an NAI_SIMD token: exactly "scalar", "avx2" or "neon"
/// (case-sensitive, no surrounding whitespace). Anything else — including
/// "AVX2", "avx2 " or "best" — is rejected with nullopt, mirroring the
/// whole-token rejection of NAI_THREADS / NAI_SCALE.
std::optional<Level> ParseLevel(std::string_view token);

/// True when kernels for `level` were compiled into this binary (a build
/// for x86-64 carries scalar + AVX2; an ARM build scalar + NEON).
bool LevelCompiled(Level level);

/// True when `level` is compiled in *and* the running CPU executes it
/// (runtime CPUID/feature detection; kScalar is always supported).
bool LevelSupported(Level level);

/// The fastest supported level on this host (what NAI_SIMD-less startup
/// selects).
Level BestSupportedLevel();

/// Every supported level, kScalar first — the sweep axis of the kernel
/// parity suite.
std::vector<Level> SupportedLevels();

/// The level all dispatched kernels currently run at. Resolved once on
/// first use: NAI_SIMD overrides auto-detection when it names a *supported*
/// level; an unset, invalid or unsupported value falls back to
/// BestSupportedLevel() (never an error — serving must come up on any
/// host).
Level ActiveLevel();

/// Re-resolution of `value` exactly as first-use startup would resolve the
/// NAI_SIMD environment variable (nullptr = unset). Exposed for property
/// tests; does not change the active level.
Level ResolveLevel(const char* value);

/// Pins the active level for the current process — the parity suite's
/// lever for exercising each path on one host. Throws
/// std::invalid_argument when `level` is not supported here.
void SetActiveLevelForTesting(Level level);

/// The dispatched kernels of one level. All pointers are non-null for
/// every compiled level; matrices are dense row-major with contiguous rows
/// (leading dimension == column count), no alignment requirement. The
/// float contracts fix the per-element operation sequence, which is what
/// makes every level bit-exact to kScalar. One carve-out: when an element
/// combines two distinct NaNs (e.g. a propagated NaN accumulator added to
/// a fresh inf*0 indefinite), IEEE 754 leaves the surviving payload/sign
/// unspecified and even the scalar reference's choice is a codegen
/// artifact, so the contract there is NaN-for-NaN positional agreement
/// only. Every value that is not such a NaN — including signed zeros,
/// denormals, infinities and single-source NaNs — is bit-identical:
///   * axpy:            dst[j] += w * src[j], j ascending.
///   * matmul_rows:     rows [r0,r1) of out(m,n) += a(m,k) * b(k,n); for
///                      each output element, products accumulate over p
///                      ascending and every a[i][p] == 0.0f contributes
///                      nothing (the scalar zero-skip — it also skips
///                      0 * NaN, so it is part of the numeric contract).
///   * matmul_tb_rows:  rows [r0,r1) of out(m,n) = a(m,k) * b(n,k)^T; each
///                      element is a fresh dot product over p ascending
///                      with no zero-skip.
///   * matmul_ta:       out(m,n) += a(k,m)^T * b(k,n); for each output
///                      element, products accumulate over p ascending and
///                      every a[p][i] == 0.0f contributes nothing (the
///                      same zero-skip as matmul_rows).
///   * gemm_s8:         acc[j] += x[p] * w[p*n + j] (int32) over p
///                      ascending, skipping x[p] == 0; integer arithmetic,
///                      so exact at every level.
struct KernelSet {
  void (*axpy)(float w, const float* src, float* dst, std::size_t n);
  void (*matmul_rows)(const float* a, const float* b, float* out,
                      std::size_t r0, std::size_t r1, std::size_t k,
                      std::size_t n);
  void (*matmul_tb_rows)(const float* a, const float* b, float* out,
                         std::size_t r0, std::size_t r1, std::size_t k,
                         std::size_t n);
  void (*matmul_ta)(const float* a, const float* b, float* out,
                    std::size_t k, std::size_t m, std::size_t n);
  void (*gemm_s8)(const std::int8_t* x, const std::int8_t* w,
                  std::int32_t* acc, std::size_t k, std::size_t n);
};

/// Kernel table of one level. Throws std::invalid_argument for a level not
/// compiled into this binary.
const KernelSet& Kernels(Level level);

/// Kernel table of ActiveLevel() — what the tensor/graph entry points
/// fetch once per op call.
const KernelSet& ActiveKernels();

}  // namespace nai::tensor::simd

#endif  // NAI_TENSOR_SIMD_H_
