#include "core/monte_carlo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/thread_pool.h"
#include "core/chao92.h"
#include "simulation/crowd.h"
#include "simulation/population.h"

namespace uuq {
namespace {

IntegratedSample SampleFromStream(const std::vector<Observation>& stream,
                                  size_t prefix) {
  IntegratedSample sample;
  for (size_t i = 0; i < std::min(prefix, stream.size()); ++i) {
    sample.Add(stream[i].source_id, stream[i].entity_key, stream[i].value);
  }
  return sample;
}

MonteCarloOptions FastOptions() {
  MonteCarloOptions options;
  options.runs_per_point = 2;
  options.n_grid_steps = 6;
  return options;
}

TEST(MonteCarloEstimator, EmptySample) {
  const MonteCarloEstimator mc(FastOptions());
  IntegratedSample sample;
  const Estimate est = mc.EstimateImpact(sample);
  EXPECT_DOUBLE_EQ(est.delta, 0.0);
  EXPECT_FALSE(est.coverage_ok);
}

TEST(MonteCarloEstimator, NhatBetweenCAndChao92) {
  SyntheticPopulationConfig pop;
  pop.num_items = 100;
  pop.lambda = 1.0;
  pop.rho = 1.0;
  pop.seed = 5;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 20;
  crowd.answers_per_worker = 15;
  crowd.seed = 6;
  const auto stream = CrowdSimulator(&population, crowd).GenerateStream();
  const auto sample = SampleFromStream(stream, 300);

  const MonteCarloEstimator mc(FastOptions());
  const double n_mc = mc.EstimateNhat(sample);
  const SampleStats stats = SampleStats::FromSample(sample);
  double chao = Chao92Nhat(stats);
  if (!std::isinf(chao)) {
    EXPECT_GE(n_mc, static_cast<double>(stats.c) - 1e-9);
    EXPECT_LE(n_mc, chao + 1e-9);
  }
}

TEST(MonteCarloEstimator, DeterministicForSameSeed) {
  SyntheticPopulationConfig pop;
  pop.num_items = 50;
  pop.lambda = 1.0;
  pop.rho = 1.0;
  pop.seed = 7;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 10;
  crowd.answers_per_worker = 10;
  crowd.seed = 8;
  const auto stream = CrowdSimulator(&population, crowd).GenerateStream();
  const auto sample = SampleFromStream(stream, 100);

  const MonteCarloEstimator mc(FastOptions());
  EXPECT_DOUBLE_EQ(mc.EstimateNhat(sample), mc.EstimateNhat(sample));
}

TEST(MonteCarloEstimator, CompleteLookingSampleReturnsC) {
  // Every entity observed many times: Chao92 ≈ c, grid degenerates.
  IntegratedSample sample;
  for (int e = 0; e < 10; ++e) {
    for (int w = 0; w < 6; ++w) {
      sample.Add("w" + std::to_string(w), "e" + std::to_string(e), 10.0 * e);
    }
  }
  const MonteCarloEstimator mc(FastOptions());
  EXPECT_DOUBLE_EQ(mc.EstimateNhat(sample), 10.0);
  const Estimate est = mc.EstimateImpact(sample);
  EXPECT_NEAR(est.delta, 0.0, 1e-9);
}

TEST(MonteCarloEstimator, SimulatedDistanceLowerNearTruth) {
  // Observed sample drawn from N = 60 moderately skewed items; the
  // objective at (θN = 60, mild skew) should beat (θN = 600, heavy skew).
  SyntheticPopulationConfig pop;
  pop.num_items = 60;
  pop.lambda = 1.0;
  pop.rho = 0.0;
  pop.seed = 9;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 15;
  crowd.answers_per_worker = 20;
  crowd.seed = 10;
  const auto stream = CrowdSimulator(&population, crowd).GenerateStream();
  const auto sample = SampleFromStream(stream, 300);

  std::vector<int64_t> multiplicities;
  for (const EntityStat& e : sample.entities()) {
    multiplicities.push_back(e.multiplicity);
  }
  const MonteCarloEstimator mc(FastOptions());
  Rng rng(42);
  const double near_truth = mc.SimulatedDistance(
      60, 0.1, multiplicities, sample.SourceSizeVector(), &rng);
  const double far_off = mc.SimulatedDistance(
      600, 0.4, multiplicities, sample.SourceSizeVector(), &rng);
  EXPECT_LT(near_truth, far_off);
}

TEST(MonteCarloEstimator, RobustToStreakerUnlikeChao) {
  // One source dumps the entire population: Chao92 sees a huge f1 and
  // overestimates badly; Monte-Carlo should stay closer to N (= c here).
  SyntheticPopulationConfig pop;
  pop.num_items = 50;
  pop.lambda = 1.0;
  pop.rho = 1.0;
  pop.seed = 11;
  const Population population = MakeSyntheticPopulation(pop);

  IntegratedSample sample;
  for (const PopulationItem& item : population.items()) {
    sample.Add("streaker", item.key, item.value);
  }
  // A couple of small honest workers.
  CrowdConfig crowd;
  crowd.num_workers = 2;
  crowd.answers_per_worker = 5;
  crowd.seed = 12;
  for (const Observation& obs :
       CrowdSimulator(&population, crowd).GenerateStream()) {
    sample.Add(obs.source_id, obs.entity_key, obs.value);
  }

  const SampleStats stats = SampleStats::FromSample(sample);
  const double chao = Chao92Nhat(stats);
  const MonteCarloEstimator mc(FastOptions());
  const double n_mc = mc.EstimateNhat(sample);
  // True N = 50 = c (streaker saw everything). Chao92 blows up; MC must cut
  // the overshoot at least in half.
  ASSERT_EQ(stats.c, 50);
  if (std::isfinite(chao)) {
    EXPECT_LT(n_mc - 50.0, (chao - 50.0) * 0.5 + 1e-9);
  } else {
    EXPECT_LT(n_mc, 500.0);
  }
}

TEST(MonteCarloEstimator, UsesMeanSubstitutionForDelta) {
  IntegratedSample sample;
  sample.Add("w1", "a", 10);
  sample.Add("w2", "a", 10);
  sample.Add("w1", "b", 30);
  sample.Add("w3", "b", 30);
  sample.Add("w2", "c", 20);
  const MonteCarloEstimator mc(FastOptions());
  const Estimate est = mc.EstimateImpact(sample);
  EXPECT_DOUBLE_EQ(est.missing_value, 20.0);  // mean of {10, 30, 20}
  EXPECT_NEAR(est.delta, est.missing_value * est.missing_count, 1e-9);
}

TEST(MonteCarloEstimator, NhatBitsArePinned) {
  // Default options on a 280-item λ = 1.5 population with a 230-item
  // streaker, so every non-zero θλ grid point draws its sources through the
  // weighted selector with its rejection test active, and N̂ lands inside
  // (c, Chao92) = (234, 1032.3) rather than on a clamp, where it moves with
  // any change to the draws. The value comes from the weighted sampler
  // without its rejection test.
  SyntheticPopulationConfig pop;
  pop.num_items = 280;
  pop.lambda = 1.5;
  pop.rho = 0.5;
  pop.seed = 7;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 4;
  crowd.answers_per_worker = 9;
  crowd.streaker_at = 75;
  crowd.streaker_items = 230;
  crowd.seed = 8;
  const auto stream = CrowdSimulator(&population, crowd).GenerateStream();
  const auto sample = SampleFromStream(stream, stream.size());

  const double nhat = MonteCarloEstimator().EstimateNhat(sample);
  uint64_t bits = 0;
  std::memcpy(&bits, &nhat, sizeof(bits));
  EXPECT_EQ(bits, 0x40834c6e9733a48cull) << nhat;  // 617.55399933191211
}

TEST(MonteCarloEstimator, NameIsStable) {
  EXPECT_EQ(MonteCarloEstimator().name(), "monte-carlo");
}

TEST(MonteCarloEstimator, ParallelIsBitIdenticalToSerial) {
  // The determinism contract: for a fixed seed, the Estimate is the same for
  // EVERY thread count, because each grid point evaluates on its own
  // pre-derived Rng stream (UUQ_THREADS=1 therefore changes nothing but
  // wall-clock time).
  SyntheticPopulationConfig pop;
  pop.num_items = 80;
  pop.lambda = 1.5;
  pop.rho = 1.0;
  pop.seed = 21;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 15;
  crowd.answers_per_worker = 15;
  crowd.seed = 22;
  const auto stream = CrowdSimulator(&population, crowd).GenerateStream();
  const auto sample = SampleFromStream(stream, 200);

  ThreadPool serial(1);
  ThreadPool two(2);
  ThreadPool eight(8);

  MonteCarloOptions options = FastOptions();
  options.pool = &serial;
  const MonteCarloEstimator mc_serial(options);
  options.pool = &two;
  const MonteCarloEstimator mc_two(options);
  options.pool = &eight;
  const MonteCarloEstimator mc_eight(options);

  const double serial_nhat = mc_serial.EstimateNhat(sample);
  EXPECT_DOUBLE_EQ(serial_nhat, mc_two.EstimateNhat(sample));
  EXPECT_DOUBLE_EQ(serial_nhat, mc_eight.EstimateNhat(sample));

  const Estimate serial_est = mc_serial.EstimateImpact(sample);
  const Estimate parallel_est = mc_eight.EstimateImpact(sample);
  EXPECT_DOUBLE_EQ(serial_est.delta, parallel_est.delta);
  EXPECT_DOUBLE_EQ(serial_est.corrected_sum, parallel_est.corrected_sum);
  EXPECT_DOUBLE_EQ(serial_est.n_hat, parallel_est.n_hat);
}

TEST(MonteCarloEstimator, RepeatedParallelRunsAreStable) {
  // Thread-local scratch reuse across calls must not leak state between
  // estimates: back-to-back runs on a shared pool give identical answers.
  SyntheticPopulationConfig pop;
  pop.num_items = 60;
  pop.lambda = 1.0;
  pop.rho = 1.0;
  pop.seed = 31;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 12;
  crowd.answers_per_worker = 12;
  crowd.seed = 32;
  const auto stream = CrowdSimulator(&population, crowd).GenerateStream();
  const auto sample = SampleFromStream(stream, 144);

  ThreadPool pool(4);
  MonteCarloOptions options = FastOptions();
  options.pool = &pool;
  const MonteCarloEstimator mc(options);
  const double first = mc.EstimateNhat(sample);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(first, mc.EstimateNhat(sample));
  }
}

}  // namespace
}  // namespace uuq
