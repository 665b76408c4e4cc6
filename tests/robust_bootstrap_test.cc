#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/bootstrap.h"
#include "core/bucket.h"
#include "core/naive.h"
#include "integration/sample_view.h"
#include "materialized_oracle.h"
#include "simulation/crowd.h"
#include "simulation/population.h"

namespace uuq {
namespace {

IntegratedSample HealthySample(uint64_t seed = 3) {
  SyntheticPopulationConfig pop;
  pop.num_items = 100;
  pop.lambda = 1.0;
  pop.rho = 1.0;
  pop.seed = seed;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 20;
  crowd.answers_per_worker = 20;
  crowd.seed = seed + 1;
  IntegratedSample sample;
  for (const Observation& obs :
       CrowdSimulator(&population, crowd).GenerateStream()) {
    sample.Add(obs);
  }
  return sample;
}

/// One source-level resample: the engine's draw, materialized.
IntegratedSample ResampleOnce(const IntegratedSample& sample, Rng* rng) {
  const SampleView view(sample);
  std::vector<int32_t> draws;
  view.DrawBootstrapSources(rng, &draws);
  return oracle::MaterializeReplicate(sample, draws);
}

TEST(SourceResample, PreservesSourceCountAndPolicy) {
  const auto sample = HealthySample();
  Rng rng(9);
  const IntegratedSample resampled = ResampleOnce(sample, &rng);
  EXPECT_EQ(resampled.num_sources(), sample.num_sources());
  EXPECT_EQ(resampled.policy(), sample.policy());
  EXPECT_GT(resampled.n(), 0);
}

TEST(SourceResample, EmptySampleStaysEmpty) {
  IntegratedSample empty;
  Rng rng(1);
  EXPECT_TRUE(ResampleOnce(empty, &rng).empty());
}

TEST(SourceResample, DrawsWithReplacement) {
  // With 20 sources, P(no duplicate draw) is ~ 20!/20^20 ≈ 2e-8 per trial;
  // across trials the resampled n must differ from the original sometimes.
  const auto sample = HealthySample();
  Rng rng(11);
  bool saw_difference = false;
  for (int t = 0; t < 10 && !saw_difference; ++t) {
    const IntegratedSample resampled = ResampleOnce(sample, &rng);
    // n can only differ if some source was drawn twice AND collides with
    // itself on an entity (duplicate within the merged stream collapses in
    // c but not n)... n is actually preserved: every draw replays a full
    // source. c differs when the multiset of sources differs.
    if (resampled.c() != sample.c()) saw_difference = true;
  }
  EXPECT_TRUE(saw_difference);
}

TEST(BootstrapCorrectedSum, IntervalCoversPointEstimate) {
  const auto sample = HealthySample();
  const BucketSumEstimator bucket;
  BootstrapOptions options;
  options.replicates = 60;
  const BootstrapInterval interval =
      BootstrapCorrectedSum(sample, bucket, options);
  EXPECT_GT(interval.finite_replicates, 40);
  EXPECT_LE(interval.lo, interval.hi);
  // The point estimate should fall inside (or at least very near) the CI.
  EXPECT_GE(interval.point, interval.lo * 0.9);
  EXPECT_LE(interval.point, interval.hi * 1.1);
}

TEST(BootstrapCorrectedSum, DeterministicForSeed) {
  const auto sample = HealthySample();
  const NaiveEstimator naive;
  BootstrapOptions options;
  options.replicates = 30;
  const auto a = BootstrapCorrectedSum(sample, naive, options);
  const auto b = BootstrapCorrectedSum(sample, naive, options);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(BootstrapCorrectedSum, WiderIntervalAtHigherConfidence) {
  const auto sample = HealthySample();
  const NaiveEstimator naive;
  BootstrapOptions narrow;
  narrow.replicates = 100;
  narrow.confidence = 0.5;
  BootstrapOptions wide;
  wide.replicates = 100;
  wide.confidence = 0.99;
  const auto narrow_ci = BootstrapCorrectedSum(sample, naive, narrow);
  const auto wide_ci = BootstrapCorrectedSum(sample, naive, wide);
  EXPECT_GE(wide_ci.hi - wide_ci.lo, narrow_ci.hi - narrow_ci.lo);
}

TEST(BootstrapCorrectedSum, MedianBetweenBounds) {
  const auto sample = HealthySample();
  const BucketSumEstimator bucket;
  BootstrapOptions options;
  options.replicates = 50;
  const auto interval = BootstrapCorrectedSum(sample, bucket, options);
  EXPECT_GE(interval.median, interval.lo);
  EXPECT_LE(interval.median, interval.hi);
}

TEST(BootstrapCorrectedSumDeathTest, BadOptionsAbort) {
  IntegratedSample sample;
  const NaiveEstimator naive;
  BootstrapOptions zero;
  zero.replicates = 0;
  EXPECT_DEATH(BootstrapCorrectedSum(sample, naive, zero), "replicate");
}

TEST(JackknifeCorrectedSum, IntervalCentersOnPoint) {
  const auto sample = HealthySample();
  const BucketSumEstimator bucket;
  const JackknifeInterval jk = JackknifeCorrectedSum(sample, bucket);
  EXPECT_EQ(jk.sources, 20);
  EXPECT_EQ(jk.finite_replicates, 20);
  EXPECT_GT(jk.standard_error, 0.0);
  EXPECT_LT(jk.lo, jk.point);
  EXPECT_GT(jk.hi, jk.point);
  EXPECT_NEAR((jk.lo + jk.hi) / 2.0, jk.point, 1e-6);
}

TEST(JackknifeCorrectedSum, Deterministic) {
  const auto sample = HealthySample();
  const NaiveEstimator naive;
  const JackknifeInterval a = JackknifeCorrectedSum(sample, naive);
  const JackknifeInterval b = JackknifeCorrectedSum(sample, naive);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(JackknifeCorrectedSum, WiderWithLargerZ) {
  const auto sample = HealthySample();
  const NaiveEstimator naive;
  const JackknifeInterval narrow = JackknifeCorrectedSum(sample, naive, 1.0);
  const JackknifeInterval wide = JackknifeCorrectedSum(sample, naive, 3.0);
  EXPECT_GT(wide.hi - wide.lo, narrow.hi - narrow.lo);
}

TEST(JackknifeCorrectedSum, DegenerateSingleSource) {
  IntegratedSample sample;
  sample.Add("only", "a", 1.0);
  const NaiveEstimator naive;
  const JackknifeInterval jk = JackknifeCorrectedSum(sample, naive);
  EXPECT_EQ(jk.sources, 1);
  EXPECT_DOUBLE_EQ(jk.lo, jk.point);
  EXPECT_DOUBLE_EQ(jk.hi, jk.point);
}

TEST(JackknifeCorrectedSum, SingleSourceNeverEvaluatesTheEmptyView) {
  // Regression: with one source the only leave-one-out replicate is the
  // EMPTY sample. The num_sources() <= 1 guard must return the degenerate
  // [point, point] interval before any replicate machinery runs — for every
  // estimator and both forced evaluation modes (the columnar force would
  // otherwise build and evaluate an empty view).
  IntegratedSample sample;
  sample.Add("only", "a", 10.0);
  sample.Add("only", "b", 20.0);
  sample.Add("only", "a", 10.0);
  const BucketSumEstimator bucket;
  const NaiveEstimator naive;
  for (const SumEstimator* estimator :
       {static_cast<const SumEstimator*>(&bucket),
        static_cast<const SumEstimator*>(&naive)}) {
    const JackknifeInterval jk = JackknifeCorrectedSum(sample, *estimator);
    EXPECT_EQ(jk.sources, 1);
    EXPECT_EQ(jk.finite_replicates, 0);
    EXPECT_DOUBLE_EQ(jk.standard_error, 0.0);
    EXPECT_DOUBLE_EQ(jk.lo, jk.point);
    EXPECT_DOUBLE_EQ(jk.hi, jk.point);
  }
}

TEST(JackknifeCorrectedSum, ZeroSourcesIsDegenerateToo) {
  IntegratedSample empty;
  const BucketSumEstimator bucket;
  const JackknifeInterval jk = JackknifeCorrectedSum(empty, bucket);
  EXPECT_EQ(jk.sources, 0);
  EXPECT_EQ(jk.finite_replicates, 0);
  EXPECT_DOUBLE_EQ(jk.lo, jk.point);
  EXPECT_DOUBLE_EQ(jk.hi, jk.point);
}

/// Estimator whose corrected sum is NaN on every input — the all-non-finite
/// replicate worst case for PercentileInterval.
class AlwaysNanEstimator final : public SumEstimator {
 public:
  std::string name() const override { return "always-nan"; }
  Estimate EstimateImpact(const IntegratedSample& sample) const override {
    UUQ_UNUSED(sample);
    return NanEstimate();
  }
  bool SupportsReplicates() const override { return true; }
  Estimate EstimateReplicate(const ReplicateSample& rep) const override {
    UUQ_UNUSED(rep);
    return NanEstimate();
  }

 private:
  Estimate NanEstimate() const {
    Estimate est;
    est.estimator = name();
    est.finite = false;
    est.delta = std::numeric_limits<double>::quiet_NaN();
    est.corrected_sum = std::numeric_limits<double>::quiet_NaN();
    return est;
  }
};

TEST(BootstrapCorrectedSum, AllNonFiniteReplicatesDegradeToPointInterval) {
  // Regression: when every replicate estimate filters out as non-finite the
  // percentile step has an EMPTY vector — it must return the degenerate
  // [point, point] interval with no finite replicate instead of indexing
  // into nothing.
  const auto sample = HealthySample();
  const AlwaysNanEstimator always_nan;
  BootstrapOptions options;
  options.replicates = 16;
  const BootstrapInterval interval =
      BootstrapCorrectedSum(sample, always_nan, options);
  EXPECT_EQ(interval.finite_replicates, 0);
  EXPECT_EQ(interval.by_replicate.size(), 16u);
  EXPECT_TRUE(std::isnan(interval.point));
  EXPECT_TRUE(std::isnan(interval.lo));
  EXPECT_TRUE(std::isnan(interval.hi));
  EXPECT_TRUE(std::isnan(interval.median));
}

TEST(BootstrapCorrectedSum, AllInfiniteReplicatesDegradeToPointInterval) {
  // Same degenerate path via +inf: a single-source all-singleton sample
  // resamples to ITSELF on every draw, and Chao92's coverage-zero case
  // sends every replicate's N-hat (and corrected sum) to infinity.
  IntegratedSample singletons;
  for (int i = 0; i < 12; ++i) {
    singletons.Add("s0", "e" + std::to_string(i), 1.0 + i);
  }
  const NaiveEstimator naive;
  BootstrapOptions options;
  options.replicates = 16;
  const BootstrapInterval interval =
      BootstrapCorrectedSum(singletons, naive, options);
  EXPECT_EQ(interval.finite_replicates, 0);
  EXPECT_EQ(interval.by_replicate.size(), 16u);
  EXPECT_TRUE(std::isinf(interval.point));
  EXPECT_DOUBLE_EQ(interval.lo, interval.point);
  EXPECT_DOUBLE_EQ(interval.hi, interval.point);
}

TEST(JackknifeCorrectedSum, CoversTruthOnHealthyData) {
  // Not a guarantee in general, but on a benign workload the ±3σ jackknife
  // interval should cover the known truth (50,500 here).
  const auto sample = HealthySample(21);
  const BucketSumEstimator bucket;
  const JackknifeInterval jk = JackknifeCorrectedSum(sample, bucket, 3.0);
  EXPECT_LE(jk.lo, 50500.0 * 1.05);
  EXPECT_GE(jk.hi, 50500.0 * 0.8);
}

TEST(BootstrapCorrectedSum, ParallelIsBitIdenticalToSerial) {
  // One pre-derived Rng stream per replicate ⇒ the interval is the same for
  // every thread count (including the UUQ_THREADS=1 debugging override).
  const auto sample = HealthySample();
  const BucketSumEstimator bucket;
  ThreadPool serial(1);
  ThreadPool parallel(8);

  BootstrapOptions options;
  options.replicates = 40;
  options.pool = &serial;
  const BootstrapInterval a = BootstrapCorrectedSum(sample, bucket, options);
  options.pool = &parallel;
  const BootstrapInterval b = BootstrapCorrectedSum(sample, bucket, options);

  EXPECT_DOUBLE_EQ(a.point, b.point);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  EXPECT_DOUBLE_EQ(a.median, b.median);
  ASSERT_EQ(a.by_replicate.size(), b.by_replicate.size());
  for (size_t i = 0; i < a.by_replicate.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.by_replicate[i], b.by_replicate[i]);
  }
}

TEST(JackknifeCorrectedSum, ParallelIsBitIdenticalToSerial) {
  const auto sample = HealthySample(17);
  const BucketSumEstimator bucket;
  ThreadPool serial(1);
  ThreadPool parallel(6);
  const JackknifeInterval a =
      JackknifeCorrectedSum(sample, bucket, 1.96, &serial);
  const JackknifeInterval b =
      JackknifeCorrectedSum(sample, bucket, 1.96, &parallel);
  EXPECT_DOUBLE_EQ(a.standard_error, b.standard_error);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  EXPECT_EQ(a.finite_replicates, b.finite_replicates);
}

TEST(ColumnarBootstrap, ParallelIsBitIdenticalToSerial) {
  // The columnar engine keeps the PR 1 contract: one pre-derived
  // Rng::Split() stream per replicate, one result slot per replicate, so
  // UUQ_THREADS=1 and UUQ_THREADS=4 (here: explicit 1- and 4-thread pools)
  // produce the same interval bit for bit.
  const auto sample = HealthySample();
  const BucketSumEstimator bucket;
  ThreadPool serial(1);
  ThreadPool parallel(4);

  BootstrapOptions options;
  options.replicates = 40;
  options.pool = &serial;
  const BootstrapInterval a = BootstrapCorrectedSum(sample, bucket, options);
  options.pool = &parallel;
  const BootstrapInterval b = BootstrapCorrectedSum(sample, bucket, options);

  EXPECT_DOUBLE_EQ(a.point, b.point);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  EXPECT_DOUBLE_EQ(a.median, b.median);
  ASSERT_EQ(a.by_replicate.size(), b.by_replicate.size());
  for (size_t i = 0; i < a.by_replicate.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.by_replicate[i], b.by_replicate[i]);
  }
}

TEST(ColumnarBootstrap, ColumnarMatchesMaterializedEvaluation) {
  // Quick smoke of the conformance contract at this test tier: the engine
  // and the materializing oracle, same seed, same interval (see
  // conformance_test.cc for the full matrix).
  const auto sample = HealthySample();
  const BucketSumEstimator bucket;
  BootstrapOptions options;
  options.replicates = 24;
  const BootstrapInterval fast = BootstrapCorrectedSum(sample, bucket, options);
  const oracle::Replicates ref = oracle::MaterializedBootstrap(
      sample, options, [&bucket](const IntegratedSample& rep) {
        return bucket.EstimateImpact(rep).corrected_sum;
      });
  EXPECT_DOUBLE_EQ(fast.lo, ref.lo);
  EXPECT_DOUBLE_EQ(fast.hi, ref.hi);
  EXPECT_DOUBLE_EQ(fast.median, ref.median);
  EXPECT_EQ(fast.finite_replicates, static_cast<int>(ref.values.size()));
}

TEST(ColumnarJackknife, ParallelIsBitIdenticalToSerial) {
  const auto sample = HealthySample(17);
  const BucketSumEstimator bucket;
  ThreadPool serial(1);
  ThreadPool parallel(4);
  const JackknifeInterval a =
      JackknifeCorrectedSum(sample, bucket, 1.96, &serial);
  const JackknifeInterval b =
      JackknifeCorrectedSum(sample, bucket, 1.96, &parallel);
  EXPECT_DOUBLE_EQ(a.standard_error, b.standard_error);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  EXPECT_EQ(a.finite_replicates, b.finite_replicates);
}

TEST(ObservationLog, RoundTripsTheStream) {
  IntegratedSample sample;
  sample.Add("w1", "a", 10);
  sample.Add("w2", "a", 20);
  sample.Add("w1", "b", 5);
  const std::vector<RawObservation>& log = sample.raw_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(sample.source_names()[log[0].source_index], "w1");
  EXPECT_EQ(sample.entities()[log[0].entity_index].key, "a");
  EXPECT_DOUBLE_EQ(log[0].value, 10.0);   // raw report, not the fused 15
  EXPECT_DOUBLE_EQ(log[1].value, 20.0);
  EXPECT_EQ(sample.entities()[log[2].entity_index].key, "b");

  // Replaying the log reproduces the sample exactly.
  IntegratedSample replay;
  for (const RawObservation& entry : log) {
    replay.Add(sample.source_names()[entry.source_index],
               sample.entities()[entry.entity_index].key, entry.value);
  }
  EXPECT_EQ(replay.n(), sample.n());
  EXPECT_EQ(replay.c(), sample.c());
  EXPECT_DOUBLE_EQ(replay.ObservedSum(), sample.ObservedSum());
}

}  // namespace
}  // namespace uuq
