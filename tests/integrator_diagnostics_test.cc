#include <gtest/gtest.h>

#include "integration/diagnostics.h"
#include "integration/integrator.h"

namespace uuq {
namespace {

TEST(Integrator, AddSourceIntegratesAllClaims) {
  DataSource s1("w1");
  ASSERT_TRUE(s1.Add("IBM", 1000).ok());
  ASSERT_TRUE(s1.Add("Google", 2000).ok());
  DataSource s2("w2");
  ASSERT_TRUE(s2.Add("ibm", 1000).ok());

  Integrator integrator;
  ASSERT_TRUE(integrator.AddSource(s1).ok());
  ASSERT_TRUE(integrator.AddSource(s2).ok());
  EXPECT_EQ(integrator.sample().c(), 2);
  EXPECT_EQ(integrator.sample().n(), 3);
}

TEST(Integrator, RejectsEmptySourceId) {
  DataSource bad("");
  Integrator integrator;
  EXPECT_FALSE(integrator.AddSource(bad).ok());
}

TEST(Integrator, AddObservationStreamsIntoSample) {
  Integrator integrator;
  integrator.AddObservation({"w1", "IBM", 1000, ""});
  integrator.AddObservation({"w2", "ibm", 1000, ""});
  EXPECT_EQ(integrator.sample().c(), 1);
  EXPECT_EQ(integrator.sample().n(), 2);
  EXPECT_DOUBLE_EQ(integrator.sample().ObservedSum(), 1000.0);
}

TEST(AnalyzeSourceImbalance, EvenSourcesNotFlagged) {
  IntegratedSample sample;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 10; ++i) {
      sample.Add("w" + std::to_string(w), "e" + std::to_string(w * 10 + i), 1);
    }
  }
  const auto report = AnalyzeSourceImbalance(sample);
  EXPECT_EQ(report.num_sources, 5);
  EXPECT_NEAR(report.max_share, 0.2, 1e-12);
  EXPECT_FALSE(report.streaker_suspected);
}

TEST(AnalyzeSourceImbalance, StreakerFlagged) {
  IntegratedSample sample;
  // One source contributes 80 of 88 observations.
  for (int i = 0; i < 80; ++i) {
    sample.Add("streaker", "e" + std::to_string(i), 1);
  }
  for (int w = 0; w < 4; ++w) {
    sample.Add("w" + std::to_string(w), "e" + std::to_string(w), 1);
    sample.Add("w" + std::to_string(w), "e" + std::to_string(w + 10), 1);
  }
  const auto report = AnalyzeSourceImbalance(sample);
  EXPECT_TRUE(report.streaker_suspected);
  EXPECT_EQ(report.dominant_source, "streaker");
  EXPECT_GT(report.max_share, 0.5);
}

TEST(AnalyzeSourceImbalance, EmptySample) {
  IntegratedSample sample;
  const auto report = AnalyzeSourceImbalance(sample);
  EXPECT_EQ(report.num_sources, 0);
  EXPECT_FALSE(report.streaker_suspected);
}

TEST(AnalyzeSourceImbalance, SingleSourceNotAStreakerByShare) {
  // With one source max_share is trivially 1.0; the share heuristic needs
  // >= 2 sources, and Gini of a single contribution is 0.
  IntegratedSample sample;
  sample.Add("w1", "a", 1);
  sample.Add("w1", "b", 2);
  const auto report = AnalyzeSourceImbalance(sample);
  EXPECT_FALSE(report.streaker_suspected);
}

TEST(AnalyzeCompleteness, ReportsCoverageAndGate) {
  IntegratedSample sample;
  // 3 entities seen twice, 1 singleton: n = 7, f1 = 1, Ĉ = 6/7.
  for (const char* key : {"a", "b", "c"}) {
    sample.Add("w1", key, 1);
    sample.Add("w2", key, 1);
  }
  sample.Add("w3", "d", 1);
  const auto report = AnalyzeCompleteness(sample);
  EXPECT_EQ(report.n, 7);
  EXPECT_EQ(report.c, 4);
  EXPECT_EQ(report.singletons, 1);
  EXPECT_NEAR(report.coverage, 6.0 / 7.0, 1e-12);
  EXPECT_TRUE(report.estimates_recommended);
}

TEST(AnalyzeCompleteness, LowCoverageNotRecommended) {
  IntegratedSample sample;
  for (int i = 0; i < 10; ++i) {
    sample.Add("w1", "e" + std::to_string(i), 1);
  }
  const auto report = AnalyzeCompleteness(sample);
  EXPECT_DOUBLE_EQ(report.coverage, 0.0);
  EXPECT_FALSE(report.estimates_recommended);
}

}  // namespace
}  // namespace uuq
