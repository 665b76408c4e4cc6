#include "simulation/accuracy_matrix.h"

#include <cmath>
#include <cstdlib>

#include "common/macros.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "integration/sample.h"
#include "simulation/crowd.h"
#include "simulation/population.h"

namespace uuq {
namespace {

/// Like scenarios::Synthetic but for an arbitrary prebuilt population (the
/// heavy-tail pathology axes have no scenarios.h entry point).
Scenario BuildScenario(std::string name, Population population,
                       const CrowdConfig& crowd) {
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.value_column = "value";
  scenario.ground_truth_sum = population.TrueSum();
  scenario.population = std::move(population);
  CrowdSimulator simulator(&scenario.population, crowd);
  scenario.stream = simulator.GenerateStream();
  return scenario;
}

CrowdConfig MidCrowd(uint64_t seed) {
  CrowdConfig crowd;
  crowd.num_workers = 40;
  crowd.answers_per_worker = 10;
  crowd.order = ArrivalOrder::kRoundRobin;
  crowd.seed = seed * 1000003ull + 1;
  return crowd;
}

AccuracyTrial RunTrial(const AccuracyScenarioSpec& spec,
                       const AccuracyEstimatorSpec& estimator,
                       uint64_t scenario_seed, uint64_t bootstrap_seed,
                       const AccuracyMatrixOptions& options) {
  const Scenario scenario = spec.factory(scenario_seed);
  AccuracyTrial trial;
  trial.scenario_seed = scenario_seed;
  trial.bootstrap_seed = bootstrap_seed;
  trial.truth = scenario.ground_truth_sum;
  trial.true_population = static_cast<double>(scenario.population.size());

  IntegratedSample sample;
  const int64_t prefix =
      std::min<int64_t>(spec.prefix_n,
                        static_cast<int64_t>(scenario.stream.size()));
  for (int64_t i = 0; i < prefix; ++i) sample.Add(scenario.stream[i]);

  QueryCorrector::Options qopt;
  qopt.estimator = estimator.estimator;
  qopt.monte_carlo = options.mc;
  qopt.attach_bootstrap = true;
  qopt.bootstrap.replicates = options.bootstrap_replicates;
  qopt.bootstrap.confidence = options.confidence;
  qopt.bootstrap.seed = bootstrap_seed;
  qopt.pool = options.pool;

  const auto answer =
      QueryCorrector(qopt).Correct(sample, AggregateKind::kSum);
  // A non-empty uncancelled SUM correction cannot fail with a typed status;
  // a failure here is a harness bug, not a measurement.
  UUQ_CHECK_MSG(answer.ok(), "accuracy-matrix trial correction failed");
  const CorrectedAnswer& a = answer.value();

  trial.corrected = a.corrected;
  trial.n_hat = a.estimate.n_hat;
  trial.unconstrained = a.unconstrained;
  trial.bootstrap_valid = a.bootstrap_valid;
  if (a.bootstrap_valid) {
    trial.lo = a.bootstrap.lo;
    trial.hi = a.bootstrap.hi;
    trial.covered = trial.truth >= trial.lo && trial.truth <= trial.hi;
  }
  return trial;
}

}  // namespace

MonteCarloOptions AccuracyMatrixMcOptions() {
  MonteCarloOptions mc;
  mc.runs_per_point = 2;
  mc.n_grid_steps = 5;
  mc.lambda_step = 0.4;  // λ grid: {-0.4, 0, 0.4}
  return mc;
}

std::vector<AccuracyScenarioSpec> DefaultAccuracyScenarios() {
  std::vector<AccuracyScenarioSpec> specs;

  // The four calibrated paper workloads (simulation/scenarios.h).
  specs.push_back({"us-tech-employment",
                   [](uint64_t seed) {
                     return scenarios::UsTechEmployment(seed);
                   },
                   500});
  specs.push_back({"us-tech-revenue",
                   [](uint64_t seed) { return scenarios::UsTechRevenue(seed); },
                   500});
  // The full 95-observation stream (10 workers × 5 + the 45-item streaker).
  specs.push_back(
      {"us-gdp", [](uint64_t seed) { return scenarios::UsGdp(seed); }, 95});
  specs.push_back({"proton-beam",
                   [](uint64_t seed) { return scenarios::ProtonBeam(seed); },
                   500});

  // Figure 7(a): every source dumps the whole population sequentially. The
  // 250-observation prefix sits mid-third-dump — maximal source imbalance.
  specs.push_back({"streaker-heavy",
                   [](uint64_t seed) {
                     SyntheticPopulationConfig pop;
                     pop.num_items = 100;
                     pop.lambda = 1.0;
                     pop.rho = 0.5;
                     pop.seed = seed;
                     CrowdConfig crowd;
                     crowd.num_workers = 5;
                     crowd.answers_per_worker = 100;
                     crowd.sequential_full_dump = true;
                     crowd.seed = seed * 1000003ull + 1;
                     return scenarios::Synthetic(pop, crowd, "streaker-heavy");
                   },
                   250});

  // Figure 7(b): a steady 20×20 crowd with one 100-item streaker injected at
  // arrival 160 — fully inside the 400-observation prefix.
  specs.push_back({"streaker-injected",
                   [](uint64_t seed) {
                     SyntheticPopulationConfig pop;
                     pop.num_items = 300;
                     pop.lambda = 1.0;
                     pop.rho = 0.5;
                     pop.seed = seed;
                     CrowdConfig crowd;
                     crowd.num_workers = 20;
                     crowd.answers_per_worker = 20;
                     crowd.streaker_at = 160;
                     crowd.streaker_items = 100;
                     crowd.seed = seed * 1000003ull + 1;
                     return scenarios::Synthetic(pop, crowd,
                                                 "streaker-injected");
                   },
                   400});

  // Strong publicity skew: every source keeps re-reporting the same popular
  // items, so the sample saturates on a correlated subset of D.
  specs.push_back({"correlated-overlap",
                   [](uint64_t seed) {
                     SyntheticPopulationConfig pop;
                     pop.num_items = 400;
                     pop.lambda = 2.0;
                     pop.rho = 0.5;
                     pop.seed = seed;
                     CrowdConfig crowd;
                     crowd.num_workers = 25;
                     crowd.answers_per_worker = 16;
                     crowd.seed = seed * 1000003ull + 1;
                     return scenarios::Synthetic(pop, crowd,
                                                 "correlated-overlap");
                   },
                   400});

  // Heavy-tailed values with publicity INDEPENDENT of value: the missing
  // mass is value-neutral, the frequency estimator's singleton signal is
  // noise-dominated.
  specs.push_back({"heavy-tail",
                   [](uint64_t seed) {
                     HeavyTailPopulationConfig pop;
                     pop.num_items = 800;
                     pop.lognormal_mu = 3.5;
                     pop.lognormal_sigma = 2.0;
                     pop.publicity_exponent = 0.0;
                     pop.publicity_noise_sigma = 0.8;
                     pop.seed = seed;
                     return BuildScenario("heavy-tail",
                                          MakeHeavyTailPopulation(pop),
                                          MidCrowd(seed));
                   },
                   400});

  // Publication-bias: publicity strongly ∝ value, so sources systematically
  // report the big items first and the unknown unknowns are the small tail —
  // the selection-bias shape naive/freq overcorrect on.
  specs.push_back({"publication-bias",
                   [](uint64_t seed) {
                     HeavyTailPopulationConfig pop;
                     pop.num_items = 800;
                     pop.lognormal_mu = 3.5;
                     pop.lognormal_sigma = 2.0;
                     pop.publicity_exponent = 1.5;
                     pop.publicity_noise_sigma = 0.3;
                     pop.seed = seed;
                     return BuildScenario("publication-bias",
                                          MakeHeavyTailPopulation(pop),
                                          MidCrowd(seed));
                   },
                   400});

  // 60 uniform draws from 2000 items: cross-source collisions are a coin
  // flip, so roughly half the seeds produce an all-singleton sample and the
  // `unconstrained` clamp actually fires — the axis that keeps clamp_rate a
  // live metric instead of a column of zeros.
  specs.push_back({"sparse-singletons",
                   [](uint64_t seed) {
                     SyntheticPopulationConfig pop;
                     pop.num_items = 2000;
                     pop.lambda = 0.0;
                     pop.rho = 0.0;
                     pop.seed = seed;
                     CrowdConfig crowd;
                     crowd.num_workers = 6;
                     crowd.answers_per_worker = 10;
                     crowd.seed = seed * 1000003ull + 1;
                     return scenarios::Synthetic(pop, crowd,
                                                 "sparse-singletons");
                   },
                   60});

  return specs;
}

std::vector<AccuracyEstimatorSpec> DefaultAccuracyEstimators() {
  return {{"auto", CorrectionEstimator::kAuto},
          {"bucket", CorrectionEstimator::kBucket},
          {"monte-carlo", CorrectionEstimator::kMonteCarlo},
          {"naive", CorrectionEstimator::kNaive},
          {"freq", CorrectionEstimator::kFreq}};
}

int AccuracySeedsFromEnv(int fallback) {
  const char* env = std::getenv("UUQ_ACCURACY_SEEDS");
  if (env == nullptr) return fallback;
  const int seeds = std::atoi(env);
  return seeds > 0 ? seeds : fallback;
}

std::vector<AccuracyCell> RunAccuracyMatrix(
    const std::vector<AccuracyScenarioSpec>& scenarios,
    const std::vector<AccuracyEstimatorSpec>& estimators,
    const AccuracyMatrixOptions& options) {
  const int num_cells =
      static_cast<int>(scenarios.size() * estimators.size());
  const int seeds = options.seeds_per_cell;
  UUQ_CHECK(seeds > 0);

  // All randomness is pre-derived serially: one Split() stream per cell, one
  // bootstrap seed per trial drawn from it in trial order. The parallel
  // section below only consumes these by index.
  Rng root(options.base_seed);
  std::vector<Rng> cell_streams = root.SplitStreams(num_cells);
  std::vector<uint64_t> bootstrap_seeds(
      static_cast<size_t>(num_cells) * static_cast<size_t>(seeds));
  for (int cell = 0; cell < num_cells; ++cell) {
    for (int t = 0; t < seeds; ++t) {
      bootstrap_seeds[static_cast<size_t>(cell) * seeds + t] =
          cell_streams[cell].NextUint64();
    }
  }

  // Fan out over flattened (cell, trial) indices; each task writes only its
  // own slot, so the matrix is bit-identical for every thread count. Engines
  // inside a trial see the same pool and run inline on the worker.
  ThreadPool* pool = ThreadPool::OrDefault(options.pool);
  std::vector<AccuracyTrial> trials(bootstrap_seeds.size());
  pool->ParallelFor(
      0, static_cast<int64_t>(trials.size()), [&](int64_t i) {
        const int cell = static_cast<int>(i / seeds);
        const int t = static_cast<int>(i % seeds);
        const auto& scenario =
            scenarios[static_cast<size_t>(cell) / estimators.size()];
        const auto& estimator =
            estimators[static_cast<size_t>(cell) % estimators.size()];
        trials[static_cast<size_t>(i)] =
            RunTrial(scenario, estimator,
                     options.first_scenario_seed + static_cast<uint64_t>(t),
                     bootstrap_seeds[static_cast<size_t>(i)], options);
      });

  std::vector<AccuracyCell> cells(static_cast<size_t>(num_cells));
  for (int cell = 0; cell < num_cells; ++cell) {
    AccuracyCell& out = cells[static_cast<size_t>(cell)];
    out.scenario = scenarios[static_cast<size_t>(cell) / estimators.size()].name;
    out.estimator =
        estimators[static_cast<size_t>(cell) % estimators.size()].name;
    out.seeds = seeds;

    int valid_intervals = 0;
    int covered = 0;
    int finite_nhats = 0;
    double bias_sum = 0.0;
    double err_sum = 0.0;
    for (int t = 0; t < seeds; ++t) {
      const AccuracyTrial& trial =
          trials[static_cast<size_t>(cell) * seeds + t];
      if (trial.bootstrap_valid) {
        ++valid_intervals;
        if (trial.covered) ++covered;
      }
      if (std::isfinite(trial.n_hat) && trial.true_population > 0) {
        ++finite_nhats;
        bias_sum += (trial.n_hat - trial.true_population) /
                    trial.true_population;
      }
      if (trial.truth != 0.0) {
        err_sum += std::abs(trial.corrected - trial.truth) /
                   std::abs(trial.truth);
      }
      if (trial.unconstrained) ++out.unconstrained_count;
      if (options.record_trials) out.trials.push_back(trial);
    }
    out.coverage =
        valid_intervals > 0 ? static_cast<double>(covered) / valid_intervals
                            : 0.0;
    out.nhat_bias = finite_nhats > 0 ? bias_sum / finite_nhats : 0.0;
    out.sum_err = err_sum / seeds;
    out.clamp_rate = static_cast<double>(out.unconstrained_count) / seeds;
  }
  return cells;
}

const char* AccuracyMetricName(AccuracyMetric metric) {
  switch (metric) {
    case AccuracyMetric::kCoverage:
      return "coverage";
    case AccuracyMetric::kNhatBias:
      return "nhat_bias";
    case AccuracyMetric::kSumErr:
      return "sum_err";
    case AccuracyMetric::kClampRate:
      return "clamp_rate";
  }
  return "unknown";
}

double AccuracyMetricValue(const AccuracyCell& cell, AccuracyMetric metric) {
  switch (metric) {
    case AccuracyMetric::kCoverage:
      return cell.coverage;
    case AccuracyMetric::kNhatBias:
      return cell.nhat_bias;
    case AccuracyMetric::kSumErr:
      return cell.sum_err;
    case AccuracyMetric::kClampRate:
      return cell.clamp_rate;
  }
  return 0.0;
}

double AccuracyMetricTolerance(const AccuracyTolerances& tolerances,
                               AccuracyMetric metric) {
  switch (metric) {
    case AccuracyMetric::kCoverage:
      return tolerances.coverage;
    case AccuracyMetric::kNhatBias:
      return tolerances.nhat_bias;
    case AccuracyMetric::kSumErr:
      return tolerances.sum_err;
    case AccuracyMetric::kClampRate:
      return tolerances.clamp_rate;
  }
  return 0.0;
}

std::string AccuracyBaselineKey(const std::string& scenario,
                                const std::string& estimator,
                                AccuracyMetric metric) {
  return scenario + "|" + estimator + "|" + AccuracyMetricName(metric);
}

std::vector<std::string> AccuracyGateFailures(
    const std::vector<AccuracyCell>& cells,
    const std::function<double(const std::string& key)>& baseline,
    const AccuracyTolerances& tolerances) {
  std::vector<std::string> failures;
  for (const AccuracyCell& cell : cells) {
    for (AccuracyMetric metric : kAccuracyMetrics) {
      const std::string key =
          AccuracyBaselineKey(cell.scenario, cell.estimator, metric);
      const double expected = baseline(key);
      const double measured = AccuracyMetricValue(cell, metric);
      if (!std::isfinite(expected)) {
        failures.push_back(key + ": no baseline value (new cells must land " +
                           "with their baseline)");
        continue;
      }
      const double tolerance = AccuracyMetricTolerance(tolerances, metric);
      if (!(std::abs(measured - expected) <= tolerance)) {
        failures.push_back(key + ": measured " + std::to_string(measured) +
                           " vs baseline " + std::to_string(expected) +
                           " exceeds tolerance " + std::to_string(tolerance));
      }
    }
  }
  return failures;
}

}  // namespace uuq
