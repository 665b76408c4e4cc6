#include "core/bound.h"

#include <gtest/gtest.h>

#include <cmath>

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

// A large, well-covered sample (few singletons, large n).
SampleStats BigCoveredStats() {
  std::vector<std::pair<double, int64_t>> entities;
  for (int i = 0; i < 300; ++i) {
    entities.push_back({100.0 + (i % 50), 3 + (i % 4)});
  }
  entities.push_back({90.0, 1});
  return MakeStats(entities);
}

TEST(ComputeSumUpperBound, EmptySampleUnbounded) {
  const auto bound = ComputeSumUpperBound(SampleStats{});
  EXPECT_FALSE(bound.finite);
  EXPECT_TRUE(std::isinf(bound.phi_upper));
}

TEST(ComputeSumUpperBound, TinySampleUnbounded) {
  // With n small the tail term alone exceeds 1.
  const auto bound = ComputeSumUpperBound(MakeStats({{10, 1}, {20, 2}}));
  EXPECT_FALSE(bound.finite);
}

TEST(ComputeSumUpperBound, LargeSampleFinite) {
  const auto bound = ComputeSumUpperBound(BigCoveredStats());
  EXPECT_TRUE(bound.finite);
  EXPECT_GT(bound.phi_upper, 0.0);
}

TEST(ComputeSumUpperBound, M0MatchesFormula) {
  const SampleStats stats = BigCoveredStats();
  const BoundOptions options;
  const auto bound = ComputeSumUpperBound(stats, options);
  const double n = static_cast<double>(stats.n);
  const double expected =
      static_cast<double>(stats.f1) / n +
      (2.0 * std::sqrt(2.0) + std::sqrt(3.0)) *
          std::sqrt(std::log(3.0 / options.failure_probability) / n);
  EXPECT_NEAR(bound.m0_upper, expected, 1e-12);
}

TEST(ComputeSumUpperBound, BoundsDominateNaiveEstimate) {
  // The worst case must sit above the point estimate.
  const SampleStats stats = BigCoveredStats();
  const auto bound = ComputeSumUpperBound(stats);
  const Estimate naive = NaiveEstimator().FromStats(stats);
  ASSERT_TRUE(bound.finite);
  EXPECT_GT(bound.n_hat_upper, naive.n_hat);
  EXPECT_GT(bound.phi_upper, naive.corrected_sum);
  EXPECT_GT(bound.delta_upper, naive.delta);
}

TEST(ComputeSumUpperBound, TightensWithMoreData) {
  // Same shape, 4x the sample size: the bound must come down relative to
  // the observed sum.
  std::vector<std::pair<double, int64_t>> small_entities, large_entities;
  for (int i = 0; i < 100; ++i) small_entities.push_back({50.0, 3});
  for (int i = 0; i < 400; ++i) large_entities.push_back({50.0, 3});
  const SampleStats small = MakeStats(small_entities);
  const SampleStats large = MakeStats(large_entities);
  const auto bound_small = ComputeSumUpperBound(small);
  const auto bound_large = ComputeSumUpperBound(large);
  ASSERT_TRUE(bound_small.finite);
  ASSERT_TRUE(bound_large.finite);
  EXPECT_LT(bound_large.phi_upper / large.value_sum,
            bound_small.phi_upper / small.value_sum);
}

TEST(ComputeSumUpperBound, HigherConfidenceIsLooser) {
  const SampleStats stats = BigCoveredStats();
  BoundOptions strict;
  strict.failure_probability = 0.001;  // 99.9%
  BoundOptions loose;
  loose.failure_probability = 0.1;  // 90%
  const auto strict_bound = ComputeSumUpperBound(stats, strict);
  const auto loose_bound = ComputeSumUpperBound(stats, loose);
  EXPECT_GT(strict_bound.m0_upper, loose_bound.m0_upper);
  EXPECT_GT(strict_bound.phi_upper, loose_bound.phi_upper);
}

TEST(ComputeSumUpperBound, SigmaZWidensValueBound) {
  const SampleStats stats =
      MakeStats({{10, 3}, {20, 3}, {30, 3}, {40, 3}, {50, 3}});
  BoundOptions z1;
  z1.sigma_z = 1.0;
  BoundOptions z3;
  z3.sigma_z = 3.0;
  EXPECT_LT(ComputeSumUpperBound(stats, z1).value_upper,
            ComputeSumUpperBound(stats, z3).value_upper);
}

TEST(ComputeSumUpperBound, ValueUpperIsMeanPlusZSigma) {
  const SampleStats stats = MakeStats({{10, 2}, {20, 2}, {30, 2}});
  const auto bound = ComputeSumUpperBound(stats);
  EXPECT_NEAR(bound.value_upper, stats.ValueMean() + 3.0 * stats.ValueStdDev(),
              1e-12);
}

TEST(ComputeSumUpperBound, SampleOverloadAgrees) {
  IntegratedSample sample;
  for (int e = 0; e < 100; ++e) {
    for (int w = 0; w < 3; ++w) {
      sample.Add("w" + std::to_string(w), "e" + std::to_string(e), e);
    }
  }
  const auto a = ComputeSumUpperBound(sample);
  const auto b = ComputeSumUpperBound(SampleStats::FromSample(sample));
  EXPECT_DOUBLE_EQ(a.phi_upper, b.phi_upper);
}

TEST(ComputeSumUpperBoundDeathTest, BadFailureProbabilityAborts) {
  EXPECT_DEATH(
      ComputeSumUpperBound(SampleStats{}, BoundOptions{.failure_probability = 0.0,
                                                        .sigma_z = 3.0}),
      "probability");
}

}  // namespace
}  // namespace uuq
