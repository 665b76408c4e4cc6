#include "core/advisor.h"

#include <gtest/gtest.h>

#include "core/query_correction.h"
#include "stats/coverage.h"

namespace uuq {
namespace {

IntegratedSample EvenWellCoveredSample() {
  IntegratedSample sample;
  // 8 sources contributing evenly, every entity seen several times.
  for (int w = 0; w < 8; ++w) {
    for (int e = 0; e < 10; ++e) {
      sample.Add("w" + std::to_string(w), "e" + std::to_string(e), e * 10.0);
    }
  }
  return sample;
}

TEST(EstimatorAdvisor, RecommendsBucketForHealthySample) {
  const Advice advice = EstimatorAdvisor().Advise(EvenWellCoveredSample());
  EXPECT_EQ(advice.choice, EstimatorChoice::kBucket);
  EXPECT_GE(advice.coverage, 0.4);
  EXPECT_FALSE(advice.streaker_suspected);
  EXPECT_FALSE(advice.rationale.empty());
}

TEST(EstimatorAdvisor, LowCoverageAsksForMoreData) {
  IntegratedSample sample;
  for (int w = 0; w < 8; ++w) {
    for (int e = 0; e < 5; ++e) {
      sample.Add("w" + std::to_string(w),
                 "e" + std::to_string(w * 100 + e),  // all distinct
                 1.0);
    }
  }
  const Advice advice = EstimatorAdvisor().Advise(sample);
  EXPECT_EQ(advice.choice, EstimatorChoice::kCollectMoreData);
  EXPECT_LT(advice.coverage, 0.4);
}

TEST(EstimatorAdvisor, RationaleNamesTheConfiguredGate) {
  // Ĉ = 1 − 11/20 = 0.45: under a 0.5 gate, above the default one.
  IntegratedSample sample;
  for (int e = 0; e < 11; ++e) {
    sample.Add("w" + std::to_string(e % 8), "e" + std::to_string(e), 1.0);
  }
  for (int w = 0; w < 9; ++w) {
    sample.Add("w" + std::to_string(w % 8), "popular", 2.0);
  }
  EstimatorAdvisor::Options options;
  EXPECT_EQ(options.coverage_threshold, kCoverageRecommendationThreshold);
  options.coverage_threshold = 0.5;
  const Advice strict = EstimatorAdvisor(options).Advise(sample);
  EXPECT_DOUBLE_EQ(strict.coverage, 0.45);
  EXPECT_EQ(strict.choice, EstimatorChoice::kCollectMoreData);
  EXPECT_NE(strict.rationale.find("below the 0.5 reliability gate"),
            std::string::npos)
      << strict.rationale;
  EXPECT_NE(EstimatorAdvisor().Advise(sample).choice,
            EstimatorChoice::kCollectMoreData);
}

TEST(EstimatorAdvisor, StreakerTriggersMonteCarlo) {
  IntegratedSample sample = EvenWellCoveredSample();
  // One source floods the sample.
  for (int e = 0; e < 200; ++e) {
    sample.Add("streaker", "e" + std::to_string(e % 10), (e % 10) * 10.0);
  }
  const Advice advice = EstimatorAdvisor().Advise(sample);
  EXPECT_EQ(advice.choice, EstimatorChoice::kMonteCarlo);
  EXPECT_TRUE(advice.streaker_suspected);
}

TEST(EstimatorAdvisor, TooFewSourcesTriggersMonteCarlo) {
  IntegratedSample sample;
  for (int w = 0; w < 3; ++w) {
    for (int e = 0; e < 10; ++e) {
      sample.Add("w" + std::to_string(w), "e" + std::to_string(e), 1.0);
    }
  }
  const Advice advice = EstimatorAdvisor().Advise(sample);
  EXPECT_EQ(advice.choice, EstimatorChoice::kMonteCarlo);
  EXPECT_EQ(advice.num_sources, 3);
}

// QueryCorrector's kAuto estimator is the one place the advice becomes an
// estimator: dynamic bucket for a healthy sample, Monte-Carlo for few
// sources.
TEST(EstimatorAdvisor, CorrectorAutoEstimatorFollowsAdvice) {
  const QueryCorrector corrector;  // CorrectionEstimator::kAuto
  const auto healthy = EvenWellCoveredSample();
  ASSERT_EQ(EstimatorAdvisor().Advise(healthy).choice,
            EstimatorChoice::kBucket);
  auto answer = corrector.Correct(healthy, AggregateKind::kSum);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer.value().estimate.estimator, "bucket[dynamic]");

  IntegratedSample few_sources;
  for (int w = 0; w < 2; ++w) {
    for (int e = 0; e < 10; ++e) {
      few_sources.Add("w" + std::to_string(w), "e" + std::to_string(e), 1.0);
    }
  }
  ASSERT_EQ(EstimatorAdvisor().Advise(few_sources).choice,
            EstimatorChoice::kMonteCarlo);
  answer = corrector.Correct(few_sources, AggregateKind::kSum);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer.value().estimate.estimator, "monte-carlo");
}

TEST(EstimatorAdvisor, CustomThresholds) {
  EstimatorAdvisor::Options options;
  options.min_sources = 2;  // relax Appendix E gate
  const EstimatorAdvisor advisor(options);
  IntegratedSample sample;
  for (int w = 0; w < 3; ++w) {
    for (int e = 0; e < 10; ++e) {
      sample.Add("w" + std::to_string(w), "e" + std::to_string(e), 1.0);
    }
  }
  EXPECT_EQ(advisor.Advise(sample).choice, EstimatorChoice::kBucket);
}

TEST(EstimatorAdvisor, EmptySampleCollectsMore) {
  IntegratedSample sample;
  EXPECT_EQ(EstimatorAdvisor().Advise(sample).choice,
            EstimatorChoice::kCollectMoreData);
}

TEST(EstimatorChoiceName, Names) {
  EXPECT_STREQ(EstimatorChoiceName(EstimatorChoice::kBucket), "bucket");
  EXPECT_STREQ(EstimatorChoiceName(EstimatorChoice::kMonteCarlo),
               "monte-carlo");
  EXPECT_STREQ(EstimatorChoiceName(EstimatorChoice::kCollectMoreData),
               "collect-more-data");
}

}  // namespace
}  // namespace uuq
