#include "core/query_correction.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "common/cancel.h"

namespace uuq {
namespace {

// A healthy sample: 8 even sources over 30 entities with values 10..300,
// most entities seen 2+ times, a few singletons left.
IntegratedSample HealthySample() {
  IntegratedSample sample;
  for (int e = 0; e < 30; ++e) {
    const int copies = 1 + (e % 4);  // 1..4 observations per entity
    for (int k = 0; k < copies; ++k) {
      sample.Add("w" + std::to_string((e + k) % 8), "e" + std::to_string(e),
                 10.0 * (e + 1));
    }
  }
  return sample;
}

TEST(QueryCorrector, SumHasBoundAndAdvice) {
  const QueryCorrector corrector;
  auto answer = corrector.Correct(HealthySample(), AggregateKind::kSum);
  ASSERT_TRUE(answer.ok());
  EXPECT_GT(answer.value().observed, 0.0);
  EXPECT_GE(answer.value().corrected, answer.value().observed);
  EXPECT_TRUE(answer.value().bound_valid);
  EXPECT_FALSE(answer.value().advice.rationale.empty());
}

TEST(QueryCorrector, FixedEstimatorChoiceIsHonored) {
  QueryCorrector::Options options;
  options.estimator = CorrectionEstimator::kNaive;
  const QueryCorrector corrector(options);
  auto answer = corrector.Correct(HealthySample(), AggregateKind::kSum);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value().estimate.estimator, "naive");
}

TEST(QueryCorrector, CountCorrection) {
  const QueryCorrector corrector;
  auto answer = corrector.Correct(HealthySample(), AggregateKind::kCount);
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer.value().observed, 30.0);
  EXPECT_GE(answer.value().corrected, 30.0);
}

TEST(QueryCorrector, AvgCorrection) {
  const QueryCorrector corrector;
  auto answer = corrector.Correct(HealthySample(), AggregateKind::kAvg);
  ASSERT_TRUE(answer.ok());
  EXPECT_GT(answer.value().observed, 0.0);
}

TEST(QueryCorrector, MinMaxReportsClaim) {
  const QueryCorrector corrector;
  auto answer = corrector.Correct(HealthySample(), AggregateKind::kMax);
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer.value().observed, 300.0);
  EXPECT_DOUBLE_EQ(answer.value().corrected, 300.0);
}

TEST(QueryCorrector, SqlEndToEnd) {
  const QueryCorrector corrector;
  auto answer = corrector.CorrectSql(HealthySample(),
                                     "SELECT SUM(value) FROM integrated");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer.value().aggregate, AggregateKind::kSum);
  EXPECT_NE(answer.value().query_text.find("SUM"), std::string::npos);
}

TEST(QueryCorrector, SqlPredicateFiltersSample) {
  const QueryCorrector corrector;
  // Only entities with value > 150 (e16..e30 -> 15 entities).
  auto all = corrector.CorrectSql(HealthySample(),
                                  "SELECT COUNT(value) FROM integrated");
  auto filtered = corrector.CorrectSql(
      HealthySample(),
      "SELECT COUNT(value) FROM integrated WHERE value > 150");
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(filtered.ok());
  EXPECT_DOUBLE_EQ(all.value().observed, 30.0);
  EXPECT_DOUBLE_EQ(filtered.value().observed, 15.0);
  EXPECT_LT(filtered.value().corrected, all.value().corrected);
}

TEST(QueryCorrector, SqlPredicateOnEntityName) {
  const QueryCorrector corrector;
  auto answer = corrector.CorrectSql(
      HealthySample(), "SELECT SUM(value) FROM integrated WHERE entity = 'e0'");
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer.value().observed, 10.0);
}

TEST(QueryCorrector, SqlBadPredicateColumnFails) {
  const QueryCorrector corrector;
  auto answer = corrector.CorrectSql(
      HealthySample(), "SELECT SUM(value) FROM integrated WHERE bogus > 1");
  EXPECT_FALSE(answer.ok());
}

TEST(QueryCorrector, SqlParseErrorPropagates) {
  const QueryCorrector corrector;
  auto answer = corrector.CorrectSql(HealthySample(), "SELEC SUM(v) FROM t");
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kParseError);
}

TEST(QueryCorrector, ToStringMentionsKeyNumbers) {
  const QueryCorrector corrector;
  auto answer = corrector.Correct(HealthySample(), AggregateKind::kSum);
  ASSERT_TRUE(answer.ok());
  const std::string report = answer.value().ToString();
  EXPECT_NE(report.find("observed"), std::string::npos);
  EXPECT_NE(report.find("corrected"), std::string::npos);
  EXPECT_NE(report.find("advice"), std::string::npos);
}

// Every entity observed exactly once: Good-Turing coverage is 0, Chao92's
// N-hat is +inf, and the raw corrected sum would be inf too.
IntegratedSample AllSingletonSample() {
  IntegratedSample sample;
  for (int e = 0; e < 20; ++e) {
    sample.Add("w" + std::to_string(e % 5), "e" + std::to_string(e),
               10.0 * (e + 1));
  }
  return sample;
}

TEST(QueryCorrector, UnconstrainedSumClampsToObserved) {
  // Regression: Chao92's coverage <= 0 path returns +inf, which used to
  // flow straight into CorrectedAnswer::corrected as inf (and into NaN via
  // inf-weighted arithmetic downstream). The correction layer must flag the
  // answer unconstrained and report the observed value; the raw degenerate
  // estimate stays visible in `estimate`.
  QueryCorrector::Options options;
  options.estimator = CorrectionEstimator::kNaive;
  const QueryCorrector corrector(options);
  auto answer = corrector.Correct(AllSingletonSample(), AggregateKind::kSum);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer.value().unconstrained);
  EXPECT_TRUE(std::isfinite(answer.value().corrected));
  EXPECT_DOUBLE_EQ(answer.value().corrected, answer.value().observed);
  EXPECT_TRUE(std::isinf(answer.value().estimate.n_hat));
  EXPECT_FALSE(answer.value().estimate.finite);
  EXPECT_NE(answer.value().ToString().find("UNCONSTRAINED"),
            std::string::npos);
}

TEST(QueryCorrector, UnconstrainedCountClampsToObserved) {
  const QueryCorrector corrector;
  auto answer = corrector.Correct(AllSingletonSample(), AggregateKind::kCount);
  ASSERT_TRUE(answer.ok());
  if (std::isinf(answer.value().estimate.n_hat)) {
    EXPECT_TRUE(answer.value().unconstrained);
    EXPECT_DOUBLE_EQ(answer.value().corrected, 20.0);
  }
  EXPECT_TRUE(std::isfinite(answer.value().corrected));
}

TEST(QueryCorrector, UnconstrainedAnswerStillBootstraps) {
  // attach_bootstrap on a degenerate sample: the interval's point is the
  // clamped (finite) answer and an all-non-finite replicate set degrades to
  // the [point, point] interval instead of aborting.
  QueryCorrector::Options options;
  options.estimator = CorrectionEstimator::kNaive;
  options.attach_bootstrap = true;
  options.bootstrap.replicates = 12;
  const QueryCorrector corrector(options);
  auto answer = corrector.Correct(AllSingletonSample(), AggregateKind::kSum);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer.value().unconstrained);
  ASSERT_TRUE(answer.value().bootstrap_valid);
  EXPECT_DOUBLE_EQ(answer.value().bootstrap.point, answer.value().observed);
  EXPECT_TRUE(std::isfinite(answer.value().bootstrap.lo));
  EXPECT_TRUE(std::isfinite(answer.value().bootstrap.hi));
}

TEST(QueryCorrector, HealthySampleIsNotFlaggedUnconstrained) {
  const QueryCorrector corrector;
  auto answer = corrector.Correct(HealthySample(), AggregateKind::kSum);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer.value().unconstrained);
  EXPECT_EQ(answer.value().ToString().find("UNCONSTRAINED"),
            std::string::npos);
}

TEST(QueryCorrector, EmptySampleStillAnswers) {
  IntegratedSample sample;
  const QueryCorrector corrector;
  auto answer = corrector.Correct(sample, AggregateKind::kSum);
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer.value().observed, 0.0);
  EXPECT_EQ(answer.value().advice.choice, EstimatorChoice::kCollectMoreData);
}

// An adaptive interval that can never meet its target, with a probe that
// fires `fire` on the first replicate past the 16-replicate pilot: the
// pilot completes and the first escalation round observes the token.
QueryCorrector::Options CancelAfterPilotOptions(
    const CancelSource& cancel, std::function<void()> fire) {
  QueryCorrector::Options options;
  options.attach_bootstrap = true;
  options.bootstrap.replicates = 200;
  options.bootstrap.adaptive.epsilon = 1e-9;
  options.bootstrap.adaptive.pilot_replicates = 16;
  options.cancel = cancel.token();
  options.bootstrap.replicate_probe = [fire](int64_t b) {
    if (b >= 16) fire();
  };
  return options;
}

TEST(QueryCorrector, ExplicitCancelAfterAdaptivePilotFailsTheQuery) {
  // Explicit cancellation fails the query even when the interval loop still
  // holds a complete pilot prefix.
  CancelSource cancel;
  const QueryCorrector corrector(
      CancelAfterPilotOptions(cancel, [&cancel] { cancel.RequestCancel(); }));
  const auto answer = corrector.Correct(HealthySample(), AggregateKind::kSum);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kCancelled);
}

TEST(QueryCorrector, DeadlineAfterAdaptivePilotKeepsTypedPrefix) {
  // A deadline is degradation, not failure: the completed pilot is the
  // interval, typed as precision_degraded.
  CancelSource cancel;
  const QueryCorrector corrector(CancelAfterPilotOptions(cancel, [&cancel] {
    cancel.SetDeadline(std::chrono::steady_clock::time_point());
  }));
  const auto answer = corrector.Correct(HealthySample(), AggregateKind::kSum);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer.value().bootstrap_valid);
  EXPECT_FALSE(answer.value().bootstrap_aborted);
  EXPECT_TRUE(answer.value().bootstrap.adaptive.precision_degraded);
  EXPECT_EQ(answer.value().bootstrap.adaptive.replicates_used, 16);
  EXPECT_EQ(cancel.token().reason(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace uuq
