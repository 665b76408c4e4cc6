// Pins the replicate-budget controller (core/adaptive_budget.h's stop rule,
// the bootstrap engine's one replicate loop, and ReplayBootstrap):
//
//  * the stop rule's schedule for fixed and targeted budgets, ties at ε
//    included, and its replay over a stored prefix;
//  * the pilot is a bit-exact PREFIX of any larger run (same Rng::Split
//    stream per replicate index, whatever the round schedule);
//  * an adaptive run is bit-identical to a fixed-budget run at the settled
//    replicate count — for every thread count (the engine's per-worker cap
//    varies the effective replicate block with the pool size);
//  * easy targets stop early, impossible targets trip the cap as
//    precision_degraded (never as an abort);
//  * a deadline firing MID-escalation returns the completed prefix's
//    interval, typed as precision degradation — the answer a fixed run at
//    that prefix would have produced, not a degenerate abort.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/adaptive_budget.h"
#include "core/bootstrap.h"
#include "core/bucket.h"
#include "core/naive.h"
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

BootstrapOptions BaseOptions(int replicates) {
  BootstrapOptions options;
  options.replicates = replicates;
  return options;
}

void ExpectBitIdentical(const BootstrapInterval& a,
                        const BootstrapInterval& b) {
  EXPECT_EQ(a.point, b.point);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.finite_replicates, b.finite_replicates);
  EXPECT_EQ(a.replicates, b.replicates);
}

TEST(NormalQuantile, MatchesKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.99), 2.575829, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.90), 1.644854, 1e-4);
}

TEST(EstimatedHalfWidth, DegenerateInputs) {
  const double one[] = {5.0};
  EXPECT_TRUE(std::isinf(EstimatedHalfWidth(one, 1, 0.95)));
  const double flat[] = {5.0, 5.0, 5.0};
  EXPECT_EQ(EstimatedHalfWidth(flat, 3, 0.95), 0.0);
  const double with_inf[] = {5.0, std::numeric_limits<double>::infinity()};
  EXPECT_TRUE(std::isinf(EstimatedHalfWidth(with_inf, 2, 0.95)));
}

TEST(PlannedReplicates, GrowsWithTighterEpsilon) {
  // sd = 1 over these values; planned B = ceil((z/eps)^2), never < count.
  std::vector<double> values;
  for (int i = 0; i < 16; ++i) values.push_back((i % 2 == 0) ? 1.0 : -1.0);
  const int loose = PlannedReplicates(values.data(), 16, /*epsilon=*/10.0,
                                      /*confidence=*/0.95);
  const int tight = PlannedReplicates(values.data(), 16, /*epsilon=*/0.1,
                                      /*confidence=*/0.95);
  EXPECT_EQ(loose, 16);  // already met -> stay at the observed count
  EXPECT_GT(tight, 100);
}

// The stop rule on its own: ε = 0 runs to the cap in one round and leaves
// the report alone; ε > 0 runs the pilot, stops when the half-width is
// <= ε (ties included), else stops at the cap, else escalates by at least
// one block and at most to the cap.
TEST(NextReplicateTarget, FixedAndTargetedSchedules) {
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) values.push_back((i % 2 == 0) ? 1.0 : -1.0);
  AdaptiveBudgetOptions budget;  // ε = 0: fixed
  AdaptiveBudgetReport report;
  EXPECT_EQ(NextReplicateTarget(values.data(), 0, 48, budget, &report), 48);
  EXPECT_EQ(NextReplicateTarget(values.data(), 48, 48, budget, &report), 48);
  EXPECT_FALSE(report.enabled);
  EXPECT_EQ(report.replicates_used, 0);

  const double width = EstimatedHalfWidth(values.data(), 16, 0.95);
  budget.epsilon = width;  // met exactly at the pilot
  report = {};
  EXPECT_EQ(NextReplicateTarget(values.data(), 0, 48, budget, &report), 16);
  EXPECT_EQ(report.pilot_replicates, 16);
  EXPECT_EQ(NextReplicateTarget(values.data(), 16, 48, budget, &report), 16);
  EXPECT_TRUE(report.target_met);
  EXPECT_EQ(report.replicates_used, 16);
  EXPECT_EQ(report.half_width, width);

  budget.epsilon = std::nextafter(width, 0.0);  // just missed: escalate
  report = {};
  const int planned = PlannedReplicates(values.data(), 16, budget.epsilon,
                                        budget.confidence);
  EXPECT_LT(planned, 16 + budget.escalation_block);
  EXPECT_EQ(NextReplicateTarget(values.data(), 16, 48, budget, &report),
            16 + budget.escalation_block);
  EXPECT_EQ(report.escalations, 1);
  EXPECT_FALSE(report.target_met);

  budget.epsilon = 1e-3;  // far off: the planned jump is clamped to the cap
  EXPECT_EQ(NextReplicateTarget(values.data(), 16, 40, budget, &report), 40);
  EXPECT_EQ(NextReplicateTarget(values.data(), 40, 40, budget, &report), 40);
  EXPECT_TRUE(report.precision_degraded);
  EXPECT_EQ(report.replicates_used, 40);
  // A cap below the pilot is the whole budget.
  report = {};
  EXPECT_EQ(NextReplicateTarget(values.data(), 0, 12, budget, &report), 12);
  EXPECT_EQ(report.pilot_replicates, 12);
}

// ReplayBootstrap over a stored run answers every budget whose schedule
// settles inside the prefix with the bits (and report) of a fresh run, and
// refuses every budget that needs more.
TEST(ReplayBootstrap, MatchesFreshRunsInsideThePrefix) {
  const IntegratedSample sample = HealthySample();
  const BucketSumEstimator bucket;
  const BootstrapInterval stored =
      BootstrapCorrectedSum(sample, bucket, BaseOptions(64));
  ASSERT_EQ(stored.by_replicate.size(), 64u);

  BootstrapOptions probe = BaseOptions(200);
  probe.adaptive.epsilon = std::numeric_limits<double>::max();
  const double pilot_width =
      BootstrapCorrectedSum(sample, bucket, probe).adaptive.half_width;
  for (const double epsilon : {0.0, std::numeric_limits<double>::max(),
                               pilot_width, pilot_width * 0.7, 1e-12}) {
    for (const int cap : {1, 16, 40, 64, 65, 200}) {
      BootstrapOptions options = BaseOptions(cap);
      options.adaptive.epsilon = epsilon;
      const BootstrapInterval fresh =
          BootstrapCorrectedSum(sample, bucket, options);
      BootstrapInterval replayed;
      const bool hit =
          ReplayBootstrap(stored.point, stored.by_replicate, options,
                          &replayed);
      EXPECT_EQ(hit, fresh.by_replicate.size() <= 64u)
          << "epsilon=" << epsilon << " cap=" << cap;
      if (!hit) continue;
      ExpectBitIdentical(replayed, fresh);
      EXPECT_EQ(replayed.by_replicate, fresh.by_replicate);
      EXPECT_EQ(replayed.adaptive.enabled, fresh.adaptive.enabled);
      EXPECT_EQ(replayed.adaptive.replicates_used,
                fresh.adaptive.replicates_used);
      EXPECT_EQ(replayed.adaptive.escalations, fresh.adaptive.escalations);
      EXPECT_EQ(replayed.adaptive.target_met, fresh.adaptive.target_met);
      EXPECT_EQ(replayed.adaptive.precision_degraded,
                fresh.adaptive.precision_degraded);
      EXPECT_EQ(replayed.adaptive.half_width, fresh.adaptive.half_width);
    }
  }
}

// An unmeetable target (epsilon ~ 0) escalates to the cap and reports
// precision_degraded; the result is still a full, valid interval.
TEST(AdaptiveBudget, CapTripsAsPrecisionDegraded) {
  const IntegratedSample sample = HealthySample();
  const BucketSumEstimator bucket;
  BootstrapOptions options = BaseOptions(64);
  options.adaptive.epsilon = 1e-9;
  const BootstrapInterval adaptive =
      BootstrapCorrectedSum(sample, bucket, options);
  EXPECT_FALSE(adaptive.aborted);
  EXPECT_TRUE(adaptive.adaptive.enabled);
  EXPECT_TRUE(adaptive.adaptive.precision_degraded);
  EXPECT_FALSE(adaptive.adaptive.target_met);
  EXPECT_EQ(adaptive.adaptive.replicates_used, 64);
  EXPECT_GT(adaptive.adaptive.escalations, 0);

  const BootstrapInterval fixed =
      BootstrapCorrectedSum(sample, bucket, BaseOptions(64));
  ExpectBitIdentical(adaptive, fixed);
}

// A trivially generous target stops at the pilot — strictly fewer
// replicates than the fixed default — and the pilot IS a fixed run at
// pilot size, bit for bit.
TEST(AdaptiveBudget, EasyTargetStopsAtPilotPrefix) {
  const IntegratedSample sample = HealthySample();
  const BucketSumEstimator bucket;
  BootstrapOptions options = BaseOptions(48);
  options.adaptive.epsilon = std::numeric_limits<double>::max();
  const BootstrapInterval adaptive =
      BootstrapCorrectedSum(sample, bucket, options);
  EXPECT_TRUE(adaptive.adaptive.target_met);
  EXPECT_FALSE(adaptive.adaptive.precision_degraded);
  EXPECT_EQ(adaptive.adaptive.replicates_used, 16);
  EXPECT_EQ(adaptive.adaptive.pilot_replicates, 16);
  EXPECT_EQ(adaptive.adaptive.escalations, 0);
  EXPECT_LT(adaptive.adaptive.replicates_used, 48);

  const BootstrapInterval fixed =
      BootstrapCorrectedSum(sample, bucket, BaseOptions(16));
  ExpectBitIdentical(adaptive, fixed);
}

// The tentpole contract: whatever budget the adaptive loop settles on, the
// interval equals a fixed run at that budget — across thread counts, and
// with them effective replicate blocks (the per-worker cap shrinks the
// block as the pool widens). The epsilon is chosen (from the pilot's own half-width) so
// the loop must escalate at least once before meeting it.
TEST(AdaptiveBudget, BitIdenticalToFixedAcrossThreads) {
  const IntegratedSample sample = HealthySample();
  const BucketSumEstimator bucket;

  // Probe the pilot's half-width once (huge epsilon -> stop at pilot).
  BootstrapOptions probe = BaseOptions(200);
  probe.adaptive.epsilon = std::numeric_limits<double>::max();
  const BootstrapInterval pilot =
      BootstrapCorrectedSum(sample, bucket, probe);
  ASSERT_TRUE(std::isfinite(pilot.adaptive.half_width));
  ASSERT_GT(pilot.adaptive.half_width, 0.0);
  // Tighter than the pilot delivers, loose enough to meet well under the
  // cap: forces the escalation path without tripping precision_degraded.
  const double epsilon = pilot.adaptive.half_width * 0.7;

  int settled = -1;
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    BootstrapOptions options = BaseOptions(200);
    options.pool = &pool;
    options.adaptive.epsilon = epsilon;
    const BootstrapInterval adaptive =
        BootstrapCorrectedSum(sample, bucket, options);
    EXPECT_TRUE(adaptive.adaptive.target_met) << "threads=" << threads;
    EXPECT_GT(adaptive.adaptive.escalations, 0);
    EXPECT_GT(adaptive.adaptive.replicates_used, 16);
    EXPECT_LT(adaptive.adaptive.replicates_used, 200);
    // Every configuration settles on the same budget (the decision is a
    // pure function of the replicate values, which are config-invariant).
    if (settled < 0) settled = adaptive.adaptive.replicates_used;
    EXPECT_EQ(adaptive.adaptive.replicates_used, settled)
        << "threads=" << threads;

    BootstrapOptions fixed_options = BaseOptions(settled);
    fixed_options.pool = &pool;
    const BootstrapInterval fixed =
        BootstrapCorrectedSum(sample, bucket, fixed_options);
    ExpectBitIdentical(adaptive, fixed);
  }
}

// Cancellation during an escalation round (after the pilot completed)
// returns the completed prefix's interval — bit-identical to a fixed run
// at the prefix — typed as precision degradation, NOT as an abort.
TEST(AdaptiveBudget, DeadlineMidEscalationDegradesTyped) {
  const IntegratedSample sample = HealthySample();
  const BucketSumEstimator bucket;
  CancelSource cancel;
  BootstrapOptions options = BaseOptions(200);
  options.adaptive.epsilon = 1e-9;  // never met -> would escalate to cap
  options.cancel = cancel.token();
  options.replicate_probe = [&cancel](int64_t b) {
    // Fires on the first replicate past the pilot: the pilot round runs to
    // completion, the first escalation round aborts immediately.
    if (b >= 16) cancel.RequestCancel();
  };
  const BootstrapInterval adaptive =
      BootstrapCorrectedSum(sample, bucket, options);
  EXPECT_FALSE(adaptive.aborted);
  EXPECT_TRUE(adaptive.adaptive.precision_degraded);
  EXPECT_FALSE(adaptive.adaptive.target_met);
  EXPECT_EQ(adaptive.adaptive.replicates_used, 16);
  EXPECT_EQ(adaptive.finite_replicates, 16);

  const BootstrapInterval fixed =
      BootstrapCorrectedSum(sample, bucket, BaseOptions(16));
  ExpectBitIdentical(adaptive, fixed);
}

// Cancellation INSIDE the pilot (no completed prefix) degrades exactly like
// a cancelled fixed run: the degenerate aborted interval.
TEST(AdaptiveBudget, CancelInsidePilotAborts) {
  const IntegratedSample sample = HealthySample();
  const BucketSumEstimator bucket;
  CancelSource cancel;
  cancel.RequestCancel();
  BootstrapOptions options = BaseOptions(200);
  options.adaptive.epsilon = 1.0;
  options.cancel = cancel.token();
  const BootstrapInterval interval =
      BootstrapCorrectedSum(sample, bucket, options);
  EXPECT_TRUE(interval.aborted);
  EXPECT_EQ(interval.finite_replicates, 0);
  EXPECT_TRUE(interval.adaptive.precision_degraded);
  EXPECT_EQ(interval.adaptive.replicates_used, 0);
}

// Out-of-range adaptive confidence follows the AdaptiveBudgetOptions
// contract — fall back to 0.95 — instead of CHECK-aborting: the field can
// carry a request-supplied value, so an abort here would let one request
// kill a serving process. The fallback run is bit-identical to an explicit
// confidence=0.95 run.
TEST(AdaptiveBudget, OutOfRangeConfidenceFallsBackTo095) {
  const IntegratedSample sample = HealthySample();
  const BucketSumEstimator bucket;
  BootstrapOptions reference = BaseOptions(64);
  reference.adaptive.epsilon = 100.0;
  reference.adaptive.confidence = 0.95;
  const BootstrapInterval expected =
      BootstrapCorrectedSum(sample, bucket, reference);
  for (const double confidence :
       {1.0, 1.5, 0.0, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
    BootstrapOptions options = reference;
    options.adaptive.confidence = confidence;
    const BootstrapInterval interval =
        BootstrapCorrectedSum(sample, bucket, options);
    EXPECT_EQ(interval.adaptive.replicates_used,
              expected.adaptive.replicates_used)
        << "confidence=" << confidence;
    EXPECT_EQ(interval.adaptive.half_width, expected.adaptive.half_width)
        << "confidence=" << confidence;
    ExpectBitIdentical(interval, expected);
  }
}

}  // namespace
}  // namespace uuq
