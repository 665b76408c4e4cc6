#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/chao92.h"
#include "core/frequency.h"
#include "core/naive.h"

namespace uuq {
namespace {

SampleStats MakeStats(const std::vector<std::pair<double, int64_t>>& entities) {
  SampleStats stats;
  int i = 0;
  for (const auto& [value, mult] : entities) {
    stats.Add({"e" + std::to_string(i++), value, mult, ""});
  }
  return stats;
}

TEST(NaiveEstimator, EmptySampleGivesZero) {
  const Estimate est = NaiveEstimator().FromStats(SampleStats{});
  EXPECT_DOUBLE_EQ(est.delta, 0.0);
  EXPECT_FALSE(est.coverage_ok);
}

TEST(NaiveEstimator, UsesMeanSubstitution) {
  // Two entities, values 10 and 30: mean 20. One singleton.
  const auto stats = MakeStats({{10, 1}, {30, 3}});
  const Estimate est = NaiveEstimator().FromStats(stats);
  EXPECT_DOUBLE_EQ(est.missing_value, 20.0);
  EXPECT_NEAR(est.delta, est.missing_value * est.missing_count, 1e-12);
}

TEST(NaiveEstimator, MatchesClosedFormEquation8) {
  // Eq. 8: Δ = φK·f1·(c + γ̂²·n) / (c·(n − f1)). Cross-check random stats.
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<double, int64_t>> entities;
    const int c = 2 + static_cast<int>(rng.NextBounded(20));
    bool has_non_singleton = false;
    for (int i = 0; i < c; ++i) {
      const int64_t mult = 1 + static_cast<int64_t>(rng.NextBounded(6));
      if (mult > 1) has_non_singleton = true;
      entities.push_back({rng.NextUniform(1, 100), mult});
    }
    if (!has_non_singleton) entities[0].second = 2;
    const auto stats = MakeStats(entities);

    const Estimate est = NaiveEstimator().FromStats(stats);
    const double n = static_cast<double>(stats.n);
    const double f1 = static_cast<double>(stats.f1);
    const double closed_form = stats.value_sum * f1 *
                               (stats.c + stats.Gamma2() * n) /
                               (stats.c * (n - f1));
    EXPECT_NEAR(est.delta, closed_form, 1e-6 * std::fabs(closed_form) + 1e-9);
  }
}

TEST(NaiveEstimator, SingletonOnlySampleIsInfinite) {
  const auto stats = MakeStats({{10, 1}, {20, 1}});
  const Estimate est = NaiveEstimator().FromStats(stats);
  EXPECT_FALSE(est.finite);
  EXPECT_TRUE(std::isinf(est.delta));
}

TEST(NaiveEstimator, CompleteSampleNeedsNoCorrection) {
  const auto stats = MakeStats({{10, 3}, {20, 2}, {30, 4}});
  const Estimate est = NaiveEstimator().FromStats(stats);
  EXPECT_NEAR(est.delta, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(est.corrected_sum, 60.0);
}

TEST(NaiveEstimator, CoverageGateReflectsSingletonShare) {
  // Four singletons out of n = 6: Ĉ = 1/3 < 0.4.
  const auto low_coverage =
      MakeStats({{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 2}});
  EXPECT_FALSE(NaiveEstimator().FromStats(low_coverage).coverage_ok);
  const auto high_coverage = MakeStats({{1, 5}, {2, 5}, {3, 1}});
  EXPECT_TRUE(NaiveEstimator().FromStats(high_coverage).coverage_ok);
}

TEST(FrequencyEstimator, UsesSingletonMean) {
  // Singletons: 10 and 50 (mean 30); popular entity value 1000 must not
  // leak into the missing-value estimate.
  const auto stats = MakeStats({{10, 1}, {50, 1}, {1000, 5}});
  const Estimate est = FrequencyEstimator().FromStats(stats);
  EXPECT_DOUBLE_EQ(est.missing_value, 30.0);
}

TEST(FrequencyEstimator, MatchesClosedFormEquation9) {
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<double, int64_t>> entities;
    const int c = 2 + static_cast<int>(rng.NextBounded(20));
    bool has_non_singleton = false;
    for (int i = 0; i < c; ++i) {
      const int64_t mult = 1 + static_cast<int64_t>(rng.NextBounded(6));
      if (mult > 1) has_non_singleton = true;
      entities.push_back({rng.NextUniform(1, 100), mult});
    }
    if (!has_non_singleton) entities[0].second = 2;
    const auto stats = MakeStats(entities);

    const Estimate est = FrequencyEstimator().FromStats(stats);
    const double n = static_cast<double>(stats.n);
    const double f1 = static_cast<double>(stats.f1);
    const double closed_form =
        stats.singleton_sum * (stats.c + stats.Gamma2() * n) / (n - f1);
    EXPECT_NEAR(est.delta, closed_form, 1e-6 * std::fabs(closed_form) + 1e-9);
  }
}

TEST(FrequencyEstimator, NoSingletonsMeansNoCorrection) {
  const auto stats = MakeStats({{10, 2}, {20, 3}});
  const Estimate est = FrequencyEstimator().FromStats(stats);
  EXPECT_DOUBLE_EQ(est.delta, 0.0);
  EXPECT_DOUBLE_EQ(est.corrected_sum, 30.0);
}

TEST(FrequencyEstimator, GoodTuringVariantUsesSmallerNhat) {
  // A skewed sample where γ̂² > 0: the γ̂² = 0 variant must not exceed the
  // full Chao92-based one.
  const auto stats = MakeStats({{5, 1}, {6, 1}, {7, 3}, {8, 5}});
  const Estimate full = FrequencyEstimator(false).FromStats(stats);
  const Estimate uniform = FrequencyEstimator(true).FromStats(stats);
  EXPECT_LE(uniform.n_hat, full.n_hat);
  EXPECT_LE(uniform.delta, full.delta);
  EXPECT_EQ(uniform.estimator, "freq-gt");
}

TEST(FrequencyEstimator, RobustToPopularHighImpactItems) {
  // The paper's motivation: one giant popular company biases naive but not
  // frequency.
  const auto stats = MakeStats({{1e6, 10}, {10, 1}, {20, 1}, {30, 2}});
  const Estimate naive = NaiveEstimator().FromStats(stats);
  const Estimate freq = FrequencyEstimator().FromStats(stats);
  EXPECT_GT(naive.missing_value, 1e5);
  EXPECT_LT(freq.missing_value, 100.0);
  EXPECT_LT(freq.delta, naive.delta);
}

TEST(Estimators, DeltaEqualsValueTimesCount) {
  const auto stats = MakeStats({{10, 1}, {20, 2}, {30, 3}});
  for (const StatsSumEstimator* est :
       std::initializer_list<const StatsSumEstimator*>{
           new NaiveEstimator(), new FrequencyEstimator()}) {
    const Estimate e = est->FromStats(stats);
    EXPECT_NEAR(e.delta, e.missing_value * e.missing_count, 1e-9);
    EXPECT_NEAR(e.corrected_sum, stats.value_sum + e.delta, 1e-9);
    delete est;
  }
}

TEST(Estimators, NamesAreStable) {
  EXPECT_EQ(NaiveEstimator().name(), "naive");
  EXPECT_EQ(FrequencyEstimator().name(), "freq");
}

}  // namespace
}  // namespace uuq
