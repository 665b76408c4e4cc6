#include "core/chao92.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

namespace uuq {
namespace {

SampleStats StatsFromCounts(const std::vector<int64_t>& counts) {
  SampleStats stats;
  for (int64_t m : counts) {
    EntityStat e{"k" + std::to_string(stats.c), 1.0, m, ""};
    stats.Add(e);
  }
  return stats;
}

TEST(Chao92Nhat, EmptySampleIsZero) {
  EXPECT_DOUBLE_EQ(Chao92Nhat(SampleStats{}), 0.0);
}

TEST(Chao92Nhat, AllSingletonsIsInfinite) {
  EXPECT_TRUE(std::isinf(Chao92Nhat(StatsFromCounts({1, 1, 1}))));
}

TEST(Chao92Nhat, CompleteSampleEstimatesC) {
  // No singletons, uniform multiplicities: Ĉ = 1, γ̂² = 0 -> N̂ = c.
  const auto stats = StatsFromCounts({3, 3, 3, 3});
  EXPECT_DOUBLE_EQ(Chao92Nhat(stats), 4.0);
}

TEST(Chao92Nhat, ToyExampleBeforeFifthSource) {
  // Appendix F: counts {1,2,4} -> N̂ = 3.5 + 1.1667·0.1667 ≈ 3.694.
  const auto stats = StatsFromCounts({1, 2, 4});
  EXPECT_NEAR(Chao92Nhat(stats), 3.6944, 1e-3);
}

TEST(Chao92Nhat, ToyExampleAfterFifthSource) {
  // counts {2,2,4,1}: Ĉ = 8/9, γ̂² = 0 -> N̂ = 4.5.
  const auto stats = StatsFromCounts({2, 2, 4, 1});
  EXPECT_NEAR(Chao92Nhat(stats), 4.5, 1e-12);
}

TEST(Chao92Nhat, NeverBelowObservedDistinctCount) {
  const std::vector<std::vector<int64_t>> cases = {
      {2, 2, 2}, {1, 2, 3}, {1, 1, 5, 5}, {4}, {1, 10, 10, 10}};
  for (const auto& counts : cases) {
    const auto stats = StatsFromCounts(counts);
    EXPECT_GE(Chao92Nhat(stats), static_cast<double>(stats.c));
  }
}

TEST(Chao92Nhat, MoreSingletonsMeansLargerEstimate) {
  // Fixing c and adding singleton pressure raises N̂.
  const double low = Chao92Nhat(StatsFromCounts({3, 3, 3, 1}));
  const double high = Chao92Nhat(StatsFromCounts({3, 1, 1, 1}));
  EXPECT_GT(high, low);
}

TEST(Chao92Nhat, MatchesHandComputedSkewCase) {
  // counts {1,1,3,5}: n=10, c=4, f1=2, Ĉ=0.8, Σm(m−1)=0+0+6+20=26.
  // γ̂² = max(4/0.8·26/90 − 1, 0) = max(1.4444−1,0)=0.4444
  // N̂ = 4/0.8 + 10·0.2/0.8·0.4444 = 5 + 1.1111 = 6.1111.
  const auto stats = StatsFromCounts({1, 1, 3, 5});
  EXPECT_NEAR(Chao92Nhat(stats), 6.1111, 1e-3);
}

TEST(GoodTuringNhat, IgnoresSkewCorrection) {
  // Same case as above: c/Ĉ = 5 exactly.
  const auto stats = StatsFromCounts({1, 1, 3, 5});
  EXPECT_NEAR(GoodTuringNhat(stats), 5.0, 1e-12);
  EXPECT_LE(GoodTuringNhat(stats), Chao92Nhat(stats));
}

TEST(GoodTuringNhat, EmptyAndAllSingletonEdgeCases) {
  EXPECT_DOUBLE_EQ(GoodTuringNhat(SampleStats{}), 0.0);
  EXPECT_TRUE(std::isinf(GoodTuringNhat(StatsFromCounts({1, 1}))));
}

TEST(Chao92Nhat, FstatsOverloadAgrees) {
  const auto counts = std::vector<int64_t>{1, 2, 2, 3, 7};
  const auto from_scalar = Chao92Nhat(StatsFromCounts(counts));
  const auto from_fstats =
      Chao92Nhat(FrequencyStatistics::FromCounts(counts));
  EXPECT_DOUBLE_EQ(from_scalar, from_fstats);
}

TEST(Chao92Nhat, ZeroCoverageIsPositiveInfinityNotNan) {
  // Regression companion to the correction-layer clamp: the coverage <= 0
  // branch must yield a clean +inf (never NaN, never negative) so the
  // layers above can detect "unconstrained" with std::isfinite and the
  // estimators can mark finite = false. All-singleton stats of any size hit
  // the branch.
  for (int k = 1; k <= 6; ++k) {
    const auto stats = StatsFromCounts(std::vector<int64_t>(k, 1));
    const double chao = Chao92Nhat(stats);
    const double gt = GoodTuringNhat(stats);
    EXPECT_TRUE(std::isinf(chao) && chao > 0.0) << k;
    EXPECT_TRUE(std::isinf(gt) && gt > 0.0) << k;
    EXPECT_FALSE(std::isnan(chao)) << k;
  }
}

TEST(Chao92Nhat, ConvergesToTruthOnUniformResampling) {
  // Sanity: sampling 100 items uniformly with replacement 2000 times gives a
  // near-complete sample; Chao92 should estimate ≈ 100.
  // Multiplicities are deterministic here: each item seen 20 times.
  std::vector<int64_t> counts(100, 20);
  EXPECT_NEAR(Chao92Nhat(StatsFromCounts(counts)), 100.0, 1e-9);
}

// ---------------------------------------------------------------------------
// The branch-free lane (Chao92NhatLane, stats/coverage.h) against the scalar
// chain it replaced: Ĉ, c/Ĉ and γ̂² under early returns, then N̂. Kept here
// as the oracle the lane's bit-identity claim is checked against.
// ---------------------------------------------------------------------------

struct OracleChain {
  double coverage = 0.0;
  double c_over_coverage = 0.0;
  double gamma2 = 0.0;
};

OracleChain OracleCoverageGamma(int64_t n, int64_t c, int64_t f1,
                                int64_t sum_mm1) {
  OracleChain out;
  if (n == 0) return out;
  out.coverage =
      std::clamp(1.0 - static_cast<double>(f1) / static_cast<double>(n), 0.0,
                 1.0);
  if (out.coverage <= 0.0) return out;
  out.c_over_coverage = static_cast<double>(c) / out.coverage;
  if (n >= 2) {
    const double dispersion = static_cast<double>(sum_mm1) /
                              (static_cast<double>(n) * (n - 1));
    out.gamma2 = std::max(out.c_over_coverage * dispersion - 1.0, 0.0);
  }
  return out;
}

double OracleChao92Nhat(const SampleStats& s) {
  if (s.empty()) return 0.0;
  const OracleChain chain = OracleCoverageGamma(s.n, s.c, s.f1, s.sum_mm1);
  if (chain.coverage <= 0.0) return std::numeric_limits<double>::infinity();
  return chain.c_over_coverage + static_cast<double>(s.n) *
                                     (1.0 - chain.coverage) / chain.coverage *
                                     chain.gamma2;
}

double OracleGoodTuringNhat(const SampleStats& s) {
  if (s.empty()) return 0.0;
  const OracleChain chain = OracleCoverageGamma(s.n, s.c, s.f1, s.sum_mm1);
  if (chain.coverage <= 0.0) return std::numeric_limits<double>::infinity();
  return chain.c_over_coverage;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectMatchesOracle(const SampleStats& s) {
  const std::string what = "n=" + std::to_string(s.n) +
                           " c=" + std::to_string(s.c) +
                           " f1=" + std::to_string(s.f1) +
                           " sum_mm1=" + std::to_string(s.sum_mm1);
  const OracleChain chain = OracleCoverageGamma(s.n, s.c, s.f1, s.sum_mm1);
  EXPECT_EQ(Bits(Chao92Nhat(s)), Bits(OracleChao92Nhat(s))) << what;
  EXPECT_EQ(Bits(GoodTuringNhat(s)), Bits(OracleGoodTuringNhat(s))) << what;
  EXPECT_EQ(Bits(s.Gamma2()), Bits(chain.gamma2)) << what;
  EXPECT_EQ(Bits(s.Coverage()), Bits(chain.coverage)) << what;
}

SampleStats Scalars(int64_t n, int64_t c, int64_t f1, int64_t sum_mm1) {
  SampleStats s;
  s.n = n;
  s.c = c;
  s.f1 = f1;
  s.sum_mm1 = sum_mm1;
  return s;
}

TEST(Chao92Lane, EdgeCasesMatchScalarOracleBitForBit) {
  // n ∈ {0, 1, 2}: the empty guard, the undefined γ̂² (n < 2) and the
  // smallest defined one.
  ExpectMatchesOracle(Scalars(0, 0, 0, 0));
  ExpectMatchesOracle(Scalars(1, 1, 1, 0));
  ExpectMatchesOracle(Scalars(2, 1, 0, 2));
  ExpectMatchesOracle(Scalars(2, 2, 2, 0));
  ExpectMatchesOracle(Scalars(2, 2, 1, 0));
  ExpectMatchesOracle(Scalars(2, 2, 0, 2));  // hand-assembled: γ̂² = 1
  // f1 == n (Ĉ = 0, N̂ = +inf) and f1 == 0 (Ĉ = 1).
  for (const int64_t n : {3, 17, 1000}) {
    ExpectMatchesOracle(Scalars(n, n, n, 0));
    ExpectMatchesOracle(Scalars(n, 1, 0, n * (n - 1)));
    ExpectMatchesOracle(Scalars(n, n / 2, 0, n));
  }
  // Large n, up to the 2^53 cast-exact limit.
  for (const int64_t n : {int64_t{1} << 31, int64_t{1} << 40,
                          (int64_t{1} << 52) + 1, int64_t{1} << 53}) {
    ExpectMatchesOracle(Scalars(n, n / 3, n / 5, n * 3));
    ExpectMatchesOracle(Scalars(n, n - 1, n - 2, 2));
    ExpectMatchesOracle(Scalars(n, n, n, 0));
    ExpectMatchesOracle(Scalars(n, 7, 0, n));
  }
}

TEST(Chao92Lane, RandomStatsMatchScalarOracleBitForBit) {
  Rng rng(0xC4A092);
  for (int trial = 0; trial < 20000; ++trial) {
    // Mostly samples a crowd could produce (f1 ≤ c ≤ n, Σm(m−1) as the
    // multiplicities imply), some hand-assembled inconsistent ones.
    const int64_t scale = int64_t{1} << rng.NextBounded(44);
    const int64_t n = static_cast<int64_t>(rng.NextBounded(scale + 1));
    if (trial % 5 == 4) {
      ExpectMatchesOracle(
          Scalars(n, static_cast<int64_t>(rng.NextBounded(n + 1)),
                  static_cast<int64_t>(rng.NextBounded(n + 1)),
                  static_cast<int64_t>(rng.NextBounded(scale * 4 + 1))));
      continue;
    }
    SampleStats s;
    const int entities = static_cast<int>(rng.NextBounded(40));
    for (int e = 0; e < entities; ++e) {
      const int64_t m = rng.NextBounded(3) == 0
                            ? 1
                            : 1 + static_cast<int64_t>(rng.NextBounded(6));
      s.Add(EntityPoint{1.0, m});
    }
    ExpectMatchesOracle(s);
  }
}

}  // namespace
}  // namespace uuq
