// Scenario-matrix accuracy harness (simulation/accuracy_matrix.h): grid
// shape, thread-count bit-identity, the clamp-rate-vs-direct-count
// cross-check (which pins the correction_telemetry plumbing end to end),
// and the AccuracyGateFailures unit contract the CI gate rests on.
//
// Tier-1 runs use 3 seeds per cell; UUQ_ACCURACY_SEEDS widens the sweep
// (the same knob bench_accuracy honors).
#include "simulation/accuracy_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/correction_telemetry.h"
#include "core/query_correction.h"
#include "integration/sample.h"

namespace uuq {
namespace {

int TestSeeds() { return AccuracySeedsFromEnv(3); }

// ---------------------------------------------------------------------------
// Grid shape: the acceptance floor (>= 6 scenarios x >= 4 estimators, all
// four metrics populated and in range for every cell).
// ---------------------------------------------------------------------------

TEST(AccuracyMatrix, DefaultGridMeetsAcceptanceFloor) {
  const auto scenarios = DefaultAccuracyScenarios();
  const auto estimators = DefaultAccuracyEstimators();
  ASSERT_GE(scenarios.size(), 6u);
  ASSERT_GE(estimators.size(), 4u);

  AccuracyMatrixOptions options;
  options.seeds_per_cell = TestSeeds();
  const auto cells = RunAccuracyMatrix(scenarios, estimators, options);
  ASSERT_EQ(cells.size(), scenarios.size() * estimators.size());

  for (const AccuracyCell& cell : cells) {
    SCOPED_TRACE(cell.scenario + "|" + cell.estimator);
    EXPECT_EQ(cell.seeds, options.seeds_per_cell);
    EXPECT_GE(cell.coverage, 0.0);
    EXPECT_LE(cell.coverage, 1.0);
    EXPECT_GE(cell.clamp_rate, 0.0);
    EXPECT_LE(cell.clamp_rate, 1.0);
    EXPECT_TRUE(std::isfinite(cell.nhat_bias));
    EXPECT_TRUE(std::isfinite(cell.sum_err));
    EXPECT_GE(cell.sum_err, 0.0);
  }

  // Cell order is scenario-major — the contract row/column consumers and
  // the baseline keys rely on.
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].scenario, scenarios[i / estimators.size()].name);
    EXPECT_EQ(cells[i].estimator, estimators[i % estimators.size()].name);
  }

  // The grid must keep the clamp a LIVE metric: at least one cell fires it,
  // and not everywhere (a clamp_rate column of all zeros or all ones gates
  // nothing).
  int clamped_cells = 0;
  for (const AccuracyCell& cell : cells) {
    if (cell.unconstrained_count > 0) ++clamped_cells;
  }
  EXPECT_GT(clamped_cells, 0);
  EXPECT_LT(clamped_cells, static_cast<int>(cells.size()));
}

// ---------------------------------------------------------------------------
// Determinism: the whole point of the Split()-stream derivation — the
// matrix is bit-identical on a 1-thread and a 3-thread pool, down to every
// recorded trial.
// ---------------------------------------------------------------------------

TEST(AccuracyMatrix, BitIdenticalAcrossThreadCounts) {
  const auto all_scenarios = DefaultAccuracyScenarios();
  const auto estimators = DefaultAccuracyEstimators();
  // A sub-grid keeps the double run cheap; it still spans a paper workload,
  // a streaker axis, and the clamping axis.
  std::vector<AccuracyScenarioSpec> scenarios;
  scenarios.push_back(all_scenarios.front());
  scenarios.push_back(all_scenarios[all_scenarios.size() - 2]);
  scenarios.push_back(all_scenarios.back());

  AccuracyMatrixOptions options;
  options.seeds_per_cell = 2;
  options.record_trials = true;

  ThreadPool serial(1);
  ThreadPool wide(3);
  options.pool = &serial;
  const auto a = RunAccuracyMatrix(scenarios, estimators, options);
  options.pool = &wide;
  const auto b = RunAccuracyMatrix(scenarios, estimators, options);

  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].scenario + "|" + a[i].estimator);
    EXPECT_EQ(a[i].coverage, b[i].coverage);
    EXPECT_EQ(a[i].nhat_bias, b[i].nhat_bias);
    EXPECT_EQ(a[i].sum_err, b[i].sum_err);
    EXPECT_EQ(a[i].clamp_rate, b[i].clamp_rate);
    EXPECT_EQ(a[i].unconstrained_count, b[i].unconstrained_count);
    ASSERT_EQ(a[i].trials.size(), b[i].trials.size());
    for (size_t t = 0; t < a[i].trials.size(); ++t) {
      const AccuracyTrial& x = a[i].trials[t];
      const AccuracyTrial& y = b[i].trials[t];
      EXPECT_EQ(x.scenario_seed, y.scenario_seed);
      EXPECT_EQ(x.bootstrap_seed, y.bootstrap_seed);
      EXPECT_EQ(x.corrected, y.corrected);
      EXPECT_EQ(x.lo, y.lo);
      EXPECT_EQ(x.hi, y.hi);
      EXPECT_EQ(x.unconstrained, y.unconstrained);
    }
  }
}

// ---------------------------------------------------------------------------
// Clamp cross-check (the telemetry contract, end to end): the harness's
// clamp_rate equals (a) a direct count over independently re-run
// QueryCorrector trials on the recorded seeds, and (b) the delta of the
// process-wide unconstrained_clamps counter around the matrix run.
// ---------------------------------------------------------------------------

TEST(AccuracyMatrix, ClampRateMatchesDirectCountAndTelemetry) {
  const auto all_scenarios = DefaultAccuracyScenarios();
  // The sparse-singleton axis is the one built to fire the clamp.
  std::vector<AccuracyScenarioSpec> scenarios;
  for (const auto& spec : all_scenarios) {
    if (spec.name == "sparse-singletons") scenarios.push_back(spec);
  }
  ASSERT_EQ(scenarios.size(), 1u);
  const std::vector<AccuracyEstimatorSpec> estimators = {
      {"naive", CorrectionEstimator::kNaive},
      {"bucket", CorrectionEstimator::kBucket}};

  AccuracyMatrixOptions options;
  options.seeds_per_cell = 6;
  options.record_trials = true;

  const CorrectionTelemetrySnapshot before = CorrectionTelemetry();
  const auto cells = RunAccuracyMatrix(scenarios, estimators, options);
  const CorrectionTelemetrySnapshot delta =
      CorrectionTelemetry().Since(before);

  // (b) Telemetry: the matrix produced exactly its trials, and its clamp
  // counter advanced by exactly the cells' clamp totals. (The bootstrap's
  // internal replicate estimates never reach the counters — only produced
  // CorrectedAnswers do.)
  int64_t total_trials = 0;
  int64_t total_clamps = 0;
  for (const AccuracyCell& cell : cells) {
    total_trials += cell.seeds;
    total_clamps += cell.unconstrained_count;
  }
  EXPECT_EQ(delta.corrections, total_trials);
  EXPECT_EQ(delta.unconstrained_clamps, total_clamps);
  EXPECT_EQ(delta.bootstrap_intervals, total_trials);
  EXPECT_GT(total_clamps, 0) << "axis no longer exercises the clamp";

  // (a) Direct re-run: rebuild every recorded trial from its seeds through
  // a fresh QueryCorrector and recount the flags.
  for (const AccuracyCell& cell : cells) {
    SCOPED_TRACE(cell.scenario + "|" + cell.estimator);
    int64_t direct_clamps = 0;
    for (const AccuracyTrial& trial : cell.trials) {
      const Scenario scenario = scenarios[0].factory(trial.scenario_seed);
      IntegratedSample sample;
      const int64_t prefix = std::min<int64_t>(
          scenarios[0].prefix_n,
          static_cast<int64_t>(scenario.stream.size()));
      for (int64_t i = 0; i < prefix; ++i) sample.Add(scenario.stream[i]);

      QueryCorrector::Options qopt;
      qopt.estimator = cell.estimator == "naive" ? CorrectionEstimator::kNaive
                                                 : CorrectionEstimator::kBucket;
      qopt.monte_carlo = options.mc;
      qopt.attach_bootstrap = true;
      qopt.bootstrap.replicates = options.bootstrap_replicates;
      qopt.bootstrap.confidence = options.confidence;
      qopt.bootstrap.seed = trial.bootstrap_seed;
      const auto answer =
          QueryCorrector(qopt).Correct(sample, AggregateKind::kSum);
      ASSERT_TRUE(answer.ok());
      EXPECT_EQ(answer.value().unconstrained, trial.unconstrained);
      EXPECT_EQ(answer.value().corrected, trial.corrected);
      if (answer.value().unconstrained) ++direct_clamps;
    }
    EXPECT_EQ(direct_clamps, cell.unconstrained_count);
    EXPECT_EQ(cell.clamp_rate,
              static_cast<double>(direct_clamps) / cell.seeds);
  }
}

// ---------------------------------------------------------------------------
// Gate semantics: the pure function CI's pass/fail rests on.
// ---------------------------------------------------------------------------

std::vector<AccuracyCell> TwoCells() {
  AccuracyCell a;
  a.scenario = "s1";
  a.estimator = "e1";
  a.seeds = 12;
  a.coverage = 0.5;
  a.nhat_bias = -0.2;
  a.sum_err = 0.1;
  a.clamp_rate = 0.0;
  AccuracyCell b = a;
  b.estimator = "e2";
  b.coverage = 0.9;
  return {a, b};
}

std::map<std::string, double> ExactBaseline(
    const std::vector<AccuracyCell>& cells) {
  std::map<std::string, double> baseline;
  for (const AccuracyCell& cell : cells) {
    for (AccuracyMetric metric : kAccuracyMetrics) {
      baseline[AccuracyBaselineKey(cell.scenario, cell.estimator, metric)] =
          AccuracyMetricValue(cell, metric);
    }
  }
  return baseline;
}

std::function<double(const std::string&)> Lookup(
    const std::map<std::string, double>& baseline) {
  return [&baseline](const std::string& key) {
    const auto it = baseline.find(key);
    return it != baseline.end() ? it->second
                                : std::numeric_limits<double>::quiet_NaN();
  };
}

TEST(AccuracyGate, ExactBaselinePasses) {
  const auto cells = TwoCells();
  const auto baseline = ExactBaseline(cells);
  EXPECT_TRUE(
      AccuracyGateFailures(cells, Lookup(baseline), AccuracyTolerances{})
          .empty());
}

TEST(AccuracyGate, WithinToleranceDeviationPasses) {
  auto cells = TwoCells();
  const auto baseline = ExactBaseline(cells);
  const AccuracyTolerances tolerances;
  cells[0].coverage += tolerances.coverage * 0.9;
  cells[1].sum_err -= tolerances.sum_err * 0.9;
  EXPECT_TRUE(
      AccuracyGateFailures(cells, Lookup(baseline), tolerances).empty());
}

TEST(AccuracyGate, PerturbationBeyondToleranceTrips) {
  auto cells = TwoCells();
  const auto baseline = ExactBaseline(cells);
  const AccuracyTolerances tolerances;
  cells[0].coverage -= tolerances.coverage * 1.5;
  const auto failures =
      AccuracyGateFailures(cells, Lookup(baseline), tolerances);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("s1|e1|coverage"), std::string::npos);
}

TEST(AccuracyGate, ImprovementBeyondToleranceAlsoTrips) {
  // Symmetric judgment: a large unexplained improvement demands a
  // deliberate re-baseline, not a silent pass.
  auto cells = TwoCells();
  const auto baseline = ExactBaseline(cells);
  const AccuracyTolerances tolerances;
  cells[0].sum_err -= tolerances.sum_err * 2.0;  // "better" error
  EXPECT_EQ(AccuracyGateFailures(cells, Lookup(baseline), tolerances).size(),
            1u);
}

TEST(AccuracyGate, MissingBaselineKeyFails) {
  const auto cells = TwoCells();
  auto baseline = ExactBaseline(cells);
  baseline.erase(AccuracyBaselineKey("s1", "e2", AccuracyMetric::kClampRate));
  const auto failures =
      AccuracyGateFailures(cells, Lookup(baseline), AccuracyTolerances{});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("no baseline value"), std::string::npos);
}

TEST(AccuracyMatrix, SeedsFromEnvOverrides) {
  ASSERT_EQ(unsetenv("UUQ_ACCURACY_SEEDS"), 0);
  EXPECT_EQ(AccuracySeedsFromEnv(7), 7);
  ASSERT_EQ(setenv("UUQ_ACCURACY_SEEDS", "20", 1), 0);
  EXPECT_EQ(AccuracySeedsFromEnv(7), 20);
  ASSERT_EQ(setenv("UUQ_ACCURACY_SEEDS", "junk", 1), 0);
  EXPECT_EQ(AccuracySeedsFromEnv(7), 7);
  ASSERT_EQ(unsetenv("UUQ_ACCURACY_SEEDS"), 0);
}

}  // namespace
}  // namespace uuq
