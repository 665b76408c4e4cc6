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

// Entities without a category have a NULL category cell. A negated
// comparison keeps exactly the entities its != form keeps, and
// `c = 'x' OR NOT (c = 'x')` keeps every categorized entity and no NULL one.
TEST(QueryCorrector, NegatedPredicateDropsNullCategories) {
  IntegratedSample sample;
  double categorized = 0.0;
  for (int e = 0; e < 24; ++e) {
    const std::string category = e % 3 == 0 ? "" : (e % 3 == 1 ? "x" : "y");
    for (int k = 0; k < 1 + e % 2; ++k) {
      sample.Add("w" + std::to_string((e + k) % 6), "e" + std::to_string(e),
                 10.0 * (e + 1), category);
    }
    if (!category.empty()) categorized += 10.0 * (e + 1);
  }
  const QueryCorrector corrector;
  const auto observed = [&](const std::string& where) {
    const auto answer = corrector.CorrectSql(
        sample, "SELECT SUM(value) FROM integrated WHERE " + where);
    EXPECT_TRUE(answer.ok()) << where;
    return answer.ok() ? answer.value().observed : -1.0;
  };
  EXPECT_EQ(observed("NOT (category = 'x')"), observed("category != 'x'"));
  EXPECT_EQ(observed("NOT (category = 'x')"), observed("category = 'y'"));
  EXPECT_EQ(observed("category = 'x' OR NOT (category = 'x')"), categorized);
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

// COUNT runs Monte-Carlo exactly when SUM does: always under an explicit
// mc, under auto when the advice says so, never under bucket, naive or freq.
TEST(QueryCorrector, CountFollowsTheSumMonteCarloRule) {
  IntegratedSample few_sources;  // three even sources: the advice is MC
  for (int e = 0; e < 20; ++e) {
    for (int k = 0; k < 2 + e % 2; ++k) {
      few_sources.Add("w" + std::to_string((e + k) % 3),
                      "e" + std::to_string(e), 10.0 * (e + 1));
    }
  }
  const auto run = [](const IntegratedSample& sample,
                      CorrectionEstimator estimator, EstimatorChoice advice) {
    QueryCorrector::Options options;
    options.estimator = estimator;
    const auto count =
        QueryCorrector(options).Correct(sample, AggregateKind::kCount);
    const auto sum =
        QueryCorrector(options).Correct(sample, AggregateKind::kSum);
    EXPECT_TRUE(count.ok() && sum.ok());
    if (!count.ok() || !sum.ok()) return std::string();
    EXPECT_EQ(count.value().advice.choice, advice);
    const bool sum_mc = sum.value().estimate.estimator == "monte-carlo";
    const std::string method = count.value().estimate.estimator;
    EXPECT_EQ(sum_mc, method == "count[monte-carlo]") << method;
    return method;
  };
  const IntegratedSample healthy = HealthySample();
  constexpr auto kBucketAdvice = EstimatorChoice::kBucket;
  constexpr auto kMcAdvice = EstimatorChoice::kMonteCarlo;
  EXPECT_EQ(run(healthy, CorrectionEstimator::kMonteCarlo, kBucketAdvice),
            "count[monte-carlo]");
  EXPECT_EQ(run(healthy, CorrectionEstimator::kAuto, kBucketAdvice),
            "count[chao92]");
  EXPECT_EQ(run(few_sources, CorrectionEstimator::kAuto, kMcAdvice),
            "count[monte-carlo]");
  for (const auto estimator :
       {CorrectionEstimator::kBucket, CorrectionEstimator::kNaive,
        CorrectionEstimator::kFreq}) {
    EXPECT_EQ(run(few_sources, estimator, kMcAdvice), "count[chao92]")
        << static_cast<int>(estimator);
  }
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

// Value::Compare orders different types by type rank, so a literal of
// another type than its column used to keep every entity or none. Such a
// comparison fails at Bind instead; NULL literals still bind, and a numeric
// literal compares with the double column as before.
TEST(QueryCorrector, SqlTypeMismatchedComparisonFailsTyped) {
  const QueryCorrector corrector;
  for (const char* sql :
       {"SELECT SUM(value) FROM integrated WHERE entity > 5",
        "SELECT SUM(value) FROM integrated WHERE value > 'abc'",
        "SELECT COUNT(*) FROM integrated WHERE observations = 'two'",
        "SELECT SUM(value) FROM integrated WHERE category = 3.5",
        "SELECT SUM(value) FROM integrated WHERE value > true",
        "SELECT SUM(value) FROM integrated WHERE value > 10 AND entity < 2"}) {
    const auto answer = corrector.CorrectSql(HealthySample(), sql);
    ASSERT_FALSE(answer.ok()) << sql;
    EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument)
        << sql << ": " << answer.status().ToString();
  }
  const auto grouped = corrector.CorrectGroupedSql(
      HealthySample(),
      "SELECT SUM(value) FROM integrated WHERE entity > 5 GROUP BY category");
  ASSERT_FALSE(grouped.ok());
  EXPECT_EQ(grouped.status().code(), StatusCode::kInvalidArgument);

  for (const char* sql :
       {"SELECT SUM(value) FROM integrated WHERE value > 150",
        "SELECT SUM(value) FROM integrated WHERE observations >= 2.5",
        "SELECT SUM(value) FROM integrated WHERE entity = 'e3'",
        "SELECT SUM(value) FROM integrated WHERE value = NULL"}) {
    const auto answer = corrector.CorrectSql(HealthySample(), sql);
    EXPECT_TRUE(answer.ok()) << sql << ": " << answer.status().ToString();
  }
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
  // interval, with stop reason kDeadline.
  CancelSource cancel;
  const QueryCorrector corrector(CancelAfterPilotOptions(cancel, [&cancel] {
    cancel.SetDeadline(std::chrono::steady_clock::time_point());
  }));
  const auto answer = corrector.Correct(HealthySample(), AggregateKind::kSum);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer.value().bootstrap_valid);
  EXPECT_EQ(answer.value().bootstrap.adaptive.stop, BudgetStop::kDeadline);
  EXPECT_EQ(answer.value().bootstrap.by_replicate.size(), 16u);
  EXPECT_EQ(cancel.token().reason(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace uuq
