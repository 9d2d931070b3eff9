#include "src/tensor/random.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace nai::tensor {

namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the four xoshiro words from splitmix64, per the reference
  // implementation's recommendation, so that seed=0 is safe.
  for (auto& word : s_) word = SplitMix64(seed);
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    const std::uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

float Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller with guards against log(0).
  float u1 = NextFloat();
  while (u1 <= 1e-12f) u1 = NextFloat();
  const float u2 = NextFloat();
  const float radius = std::sqrt(-2.0f * std::log(u1));
  const float angle = 2.0f * std::numbers::pi_v<float> * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

float Rng::NextGumbel() {
  float u = NextFloat();
  while (u <= 1e-12f) u = NextFloat();
  return -std::log(-std::log(u));
}

void Rng::Shuffle(std::vector<std::int32_t>& values) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const std::size_t j = NextBounded(i);
    std::swap(values[i - 1], values[j]);
  }
}

void FillGaussian(Matrix& m, float stddev, Rng& rng) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = stddev * rng.NextGaussian();
  }
}

void FillGlorot(Matrix& m, Rng& rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(m.rows() + m.cols()));
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = limit * (2.0f * rng.NextFloat() - 1.0f);
  }
}

std::vector<std::int32_t> SampleWithoutReplacement(std::int64_t population,
                                                   std::int64_t count,
                                                   Rng& rng) {
  assert(count <= population);
  std::vector<std::int32_t> all(population);
  for (std::int64_t i = 0; i < population; ++i) {
    all[i] = static_cast<std::int32_t>(i);
  }
  // Partial Fisher-Yates: only the first `count` positions need to be final.
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t j =
        i + static_cast<std::int64_t>(rng.NextBounded(population - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

}  // namespace nai::tensor
