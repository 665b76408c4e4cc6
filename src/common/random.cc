#include "common/random.h"

#include <cmath>

#include "common/macros.h"

namespace uuq {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
  // All-zero state is the one invalid configuration for xoshiro.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  UUQ_CHECK(bound > 0);
  // Lemire's multiply-shift with rejection: the high word of r·bound is the
  // draw, rejected iff the low word is below threshold = 2^64 mod bound.
  // threshold < bound, so a low word >= bound is accepted without computing
  // it: the division runs with probability bound/2^64, not on every call.
  // Outputs and stream consumption equal the always-divide form.
  __uint128_t m = static_cast<__uint128_t>(NextUint64()) * bound;
  if (static_cast<uint64_t>(m) < bound) {
    const uint64_t threshold = (-bound) % bound;
    while (static_cast<uint64_t>(m) < threshold) {
      m = static_cast<__uint128_t>(NextUint64()) * bound;
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  UUQ_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 is kept away from 0 so log() stays finite.
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  double u2 = NextDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::NextExponential(double lambda) {
  UUQ_CHECK(lambda > 0.0);
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / lambda;
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

Rng Rng::Split() {
  // A fresh generator seeded from this stream; streams are statistically
  // independent for xoshiro-family generators seeded via SplitMix64.
  return Rng(NextUint64());
}

std::vector<Rng> Rng::SplitStreams(int count) {
  std::vector<Rng> streams;
  streams.reserve(count > 0 ? static_cast<size_t>(count) : 0);
  for (int i = 0; i < count; ++i) streams.push_back(Split());
  return streams;
}

}  // namespace uuq
