// Scale / robustness stress tests: the library must stay correct well
// beyond the paper's 500-answer experiments. Nothing here asserts on
// wall-clock time; the per-test ctest TIMEOUT catches a hang.
#include <gtest/gtest.h>

#include <cmath>

#include "core/bucket.h"
#include "core/chao92.h"
#include "core/naive.h"
#include "simulation/crowd.h"
#include "simulation/population.h"

namespace uuq {
namespace {

TEST(Stress, IntegrateOneHundredThousandObservations) {
  SyntheticPopulationConfig pop;
  pop.num_items = 5000;
  pop.lambda = 2.0;
  pop.rho = 1.0;
  pop.seed = 1;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 50;
  crowd.answers_per_worker = 2000;
  crowd.seed = 2;
  const auto stream = CrowdSimulator(&population, crowd).GenerateStream();
  ASSERT_EQ(stream.size(), 100000u);

  IntegratedSample sample;
  for (const Observation& obs : stream) sample.Add(obs);

  EXPECT_EQ(sample.n(), 100000);
  EXPECT_LE(sample.c(), 5000);
  EXPECT_GT(sample.c(), 3000);  // 50 workers × 2000 draws cover most items
  const SampleStats stats = SampleStats::FromSample(sample);
  EXPECT_GT(stats.Coverage(), 0.9);
}

TEST(Stress, BucketEstimatorScalesToThousandsOfEntities) {
  SyntheticPopulationConfig pop;
  pop.num_items = 4000;
  pop.lambda = 2.0;
  pop.rho = 1.0;
  pop.seed = 3;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 30;
  crowd.answers_per_worker = 1000;
  crowd.seed = 4;
  IntegratedSample sample;
  for (const Observation& obs :
       CrowdSimulator(&population, crowd).GenerateStream()) {
    sample.Add(obs);
  }
  ASSERT_GT(sample.c(), 2000);

  const Estimate est = BucketSumEstimator().EstimateImpact(sample);
  EXPECT_TRUE(std::isfinite(est.corrected_sum));
  EXPECT_GE(est.corrected_sum, sample.ObservedSum() - 1e-6);
}

TEST(Stress, ChaoEstimateStaysSaneAtScale) {
  // A near-complete giant sample: N̂ must be close to the true N, not blow
  // up from accumulated floating-point error.
  std::vector<int64_t> counts(20000);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = 2 + static_cast<int64_t>(i % 7);
  }
  counts[0] = 1;  // one singleton
  const auto stats = FrequencyStatistics::FromCounts(counts);
  const double n_hat = Chao92Nhat(stats);
  EXPECT_GT(n_hat, 20000.0);
  EXPECT_LT(n_hat, 20100.0);
}

TEST(Stress, FilterOnLargeSampleIsLinear) {
  IntegratedSample sample;
  for (int i = 0; i < 50000; ++i) {
    sample.Add("w" + std::to_string(i % 20), "e" + std::to_string(i % 8000),
               static_cast<double>(i % 1000));
  }
  const IntegratedSample filtered =
      sample.Filter([](const EntityStat& e) { return e.value < 500.0; });
  EXPECT_GT(filtered.c(), 0);
  EXPECT_LT(filtered.c(), sample.c());
}

TEST(Stress, ManySmallSources) {
  // 2000 sources of 3 answers each — the "web pages" regime.
  SyntheticPopulationConfig pop;
  pop.num_items = 500;
  pop.lambda = 3.0;
  pop.rho = 1.0;
  pop.seed = 5;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 2000;
  crowd.answers_per_worker = 3;
  crowd.seed = 6;
  IntegratedSample sample;
  for (const Observation& obs :
       CrowdSimulator(&population, crowd).GenerateStream()) {
    sample.Add(obs);
  }
  EXPECT_EQ(sample.num_sources(), 2000);
  const Estimate est = NaiveEstimator().EstimateImpact(sample);
  EXPECT_TRUE(std::isfinite(est.corrected_sum));
  // Many overlapping sources: with-replacement approximation is excellent,
  // so the estimate should be within a factor of 2 of the truth.
  EXPECT_NEAR(est.corrected_sum / population.TrueSum(), 1.0, 1.0);
}

}  // namespace
}  // namespace uuq
