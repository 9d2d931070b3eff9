#ifndef NAI_TENSOR_RANDOM_H_
#define NAI_TENSOR_RANDOM_H_

#include <cstdint>
#include <vector>

#include "src/tensor/matrix.h"

namespace nai::tensor {

/// Deterministic 64-bit PRNG (xoshiro256** seeded via splitmix64).
///
/// Every stochastic component of the library (weight init, graph generation,
/// Gumbel noise, dropout masks) draws from an explicitly seeded Rng so runs
/// are exactly reproducible. We intentionally avoid <random> distribution
/// objects because their output is not specified across standard-library
/// implementations; all sampling algorithms here are self-contained.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit integer. Defined inline: dropout draws one per
  /// activation.
  std::uint64_t NextUint64() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). `bound` must be > 0.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform float in [0, 1): the 24 high bits of NextUint64(), scaled.
  float NextFloat() {
    return static_cast<float>(NextUint64() >> 40) * 0x1.0p-24f;
  }

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Standard normal via Box-Muller.
  float NextGaussian();

  /// Gumbel(0, 1) sample: -log(-log(U)).
  float NextGumbel();

  /// Fisher-Yates shuffle of `values`.
  void Shuffle(std::vector<std::int32_t>& values);

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  float cached_gaussian_ = 0.0f;
};

/// Fills `m` with N(0, stddev) entries.
void FillGaussian(Matrix& m, float stddev, Rng& rng);

/// Fills `m` with Glorot/Xavier-uniform entries for a (fan_in, fan_out)
/// weight matrix: U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))).
void FillGlorot(Matrix& m, Rng& rng);

/// Returns `count` distinct indices sampled without replacement from
/// [0, population). Requires count <= population.
std::vector<std::int32_t> SampleWithoutReplacement(std::int64_t population,
                                                   std::int64_t count,
                                                   Rng& rng);

}  // namespace nai::tensor

#endif  // NAI_TENSOR_RANDOM_H_
