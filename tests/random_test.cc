#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace uuq {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBoundedRespectsBound) {
  Rng rng(13);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, NextBoundedOneAlwaysZero) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Rng, NextBoundedIsRoughlyUniform) {
  Rng rng(19);
  const int buckets = 10, draws = 100000;
  std::vector<int> counts(buckets, 0);
  for (int i = 0; i < draws; ++i) ++counts[rng.NextBounded(buckets)];
  for (int count : counts) {
    EXPECT_NEAR(count, draws / buckets, draws / buckets * 0.1);
  }
}

// The always-divide form NextBounded replaced: threshold = 2^64 mod bound
// computed on every call, accept iff the low word of r·bound >= threshold.
uint64_t ReferenceNextBounded(Rng* rng, uint64_t bound) {
  const uint64_t threshold = (-bound) % bound;
  for (;;) {
    const __uint128_t m = static_cast<__uint128_t>(rng->NextUint64()) * bound;
    if (static_cast<uint64_t>(m) >= threshold) {
      return static_cast<uint64_t>(m >> 64);
    }
  }
}

TEST(Rng, NextBoundedMatchesTheAlwaysDivideForm) {
  // Same outputs and the same stream consumption (the next raw draw agrees
  // after every call). 2^63 + 1 and the random 64-bit bounds reject often,
  // so the slow path and its retry loop run too.
  std::vector<uint64_t> bounds = {1,
                                  2,
                                  3,
                                  500,
                                  (uint64_t{1} << 32) + 1,
                                  uint64_t{1} << 63,
                                  (uint64_t{1} << 63) + 1,
                                  ~uint64_t{0}};
  Rng bound_rng(29);
  for (int i = 0; i < 40; ++i) {
    const int shift = static_cast<int>(bound_rng.NextUint64() % 64);
    bounds.push_back((bound_rng.NextUint64() >> shift) | 1);
  }
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    Rng reference(seed);
    for (uint64_t bound : bounds) {
      for (int i = 0; i < 200; ++i) {
        ASSERT_EQ(rng.NextBounded(bound),
                  ReferenceNextBounded(&reference, bound))
            << "bound " << bound << " draw " << i;
        Rng rng_next = rng;
        Rng reference_next = reference;
        ASSERT_EQ(rng_next.NextUint64(), reference_next.NextUint64())
            << "bound " << bound << " draw " << i;
      }
    }
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(23);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit in 1000 draws
}

TEST(Rng, NextIntDegenerateRange) {
  Rng rng(29);
  EXPECT_EQ(rng.NextInt(5, 5), 5);
}

TEST(Rng, NextUniformRange) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextUniform(-2.5, 4.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 4.5);
  }
}

TEST(Rng, GaussianMomentsAreStandard) {
  Rng rng(37);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(41);
  const int n = 200000;
  const double lambda = 2.5;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(43);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(47);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(53);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
}

TEST(Rng, ShuffleHandlesTinyInputs) {
  Rng rng(59);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(61);
  Rng child = parent.Split();
  // The child stream should not replicate the parent stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace uuq
