// Scenario-matrix accuracy harness: the accuracy trajectory that CI gates
// next to the perf gates.
//
// CI gates speed hard; this module makes estimator ACCURACY regress CI the
// same way. A grid of (scenario × estimator) cells runs many seeded trials
// per cell through QueryCorrector with bootstrap intervals attached and
// folds each cell into four metrics:
//
//   coverage    fraction of trials whose nominal-95% bootstrap interval
//               contains the scenario's ground-truth SUM (the cluster
//               bootstrap is variability-oriented, not calibrated — see
//               bootstrap.h — so coverage is tracked as a TRAJECTORY, not
//               asserted against 0.95)
//   nhat_bias   mean relative bias of N̂ against the true population size,
//               over trials with a finite N̂
//   sum_err     mean relative error of the corrected SUM against truth
//   clamp_rate  fraction of trials whose answer carried the `unconstrained`
//               clamp (query_correction.h) — the silent flag promoted to a
//               first-class measured output
//
// The scenario axis spans the four calibrated paper workloads
// (simulation/scenarios.h) plus synthetic integration pathologies:
// streaker-heavy and streaker-injected source imbalance (the fig07 shapes),
// correlated source overlap, heavy-tailed values, publication-bias-style
// source selection, and a sparse-singleton axis that actually exercises the
// clamp. The estimator axis is QueryCorrector's CorrectionEstimator set —
// auto (the §6.5 advisor, i.e. the serving default), bucket, monte-carlo,
// naive, frequency.
//
// DETERMINISM. Same contract as the engines: one Rng::Split() stream per
// cell, derived in cell order before the parallel section; scenario streams
// use the plain trial index as their seed (shared across the estimator axis
// so every estimator sees the SAME data). Trials fan out over the
// ThreadPool, each writing only its own slot, so the whole matrix is
// bit-identical for every thread count.
//
// GATING. AccuracyTolerances (below) is the ONE place the per-metric CI
// tolerances live. bench/bench_accuracy.cc measures the matrix, emits
// metric rows into the shared bench_out.json trajectory artifact, and fails
// against the committed bench/accuracy_baseline.json through
// AccuracyGateFailures() — an injected accuracy regression fails CI exactly
// like a perf regression.
#ifndef UUQ_SIMULATION_ACCURACY_MATRIX_H_
#define UUQ_SIMULATION_ACCURACY_MATRIX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/monte_carlo.h"
#include "core/query_correction.h"
#include "simulation/scenarios.h"

namespace uuq {

class ThreadPool;

/// One scenario axis of the grid.
struct AccuracyScenarioSpec {
  std::string name;
  /// Builds one trial's Scenario. Must be a pure function of `seed` — the
  /// matrix relies on it for thread-count determinism and for the
  /// reproduce-a-trial contract (AccuracyTrial records the seed).
  std::function<Scenario(uint64_t seed)> factory;
  /// Observations of the stream replayed into the trial sample.
  int64_t prefix_n = 500;
};

/// One estimator axis entry: a QueryCorrector estimator choice plus the
/// stable name used in rows and baseline keys.
struct AccuracyEstimatorSpec {
  std::string name;
  CorrectionEstimator estimator = CorrectionEstimator::kBucket;
};

/// One (scenario, estimator, seed) run — recorded when
/// AccuracyMatrixOptions::record_trials is set, so tests can re-run the
/// EXACT trial through QueryCorrector themselves and cross-check the cell
/// aggregation (the clamp_rate-vs-direct-count contract).
struct AccuracyTrial {
  uint64_t scenario_seed = 0;   ///< fed to AccuracyScenarioSpec::factory
  uint64_t bootstrap_seed = 0;  ///< BootstrapOptions::seed for this trial
  double truth = 0.0;           ///< scenario ground-truth SUM
  double true_population = 0.0; ///< true N (population size)
  double corrected = 0.0;
  double n_hat = 0.0;           ///< raw estimate.n_hat (may be non-finite)
  double lo = 0.0;
  double hi = 0.0;
  bool bootstrap_valid = false;
  bool covered = false;         ///< truth ∈ [lo, hi] (valid intervals only)
  bool unconstrained = false;   ///< the clamp flag, verbatim
};

/// One cell's aggregated metrics.
struct AccuracyCell {
  std::string scenario;
  std::string estimator;
  int seeds = 0;
  double coverage = 0.0;
  double nhat_bias = 0.0;
  double sum_err = 0.0;
  double clamp_rate = 0.0;
  /// Raw clamp count (clamp_rate's numerator) — the value the telemetry
  /// cross-check pins against core/correction_telemetry.h.
  int64_t unconstrained_count = 0;
  /// Filled only under AccuracyMatrixOptions::record_trials.
  std::vector<AccuracyTrial> trials;
};

/// Reduced Monte-Carlo search for matrix cells: the full Algorithm 3 grid
/// costs ~70ms per replicate at n=500, which a (B+1)-estimate trial cannot
/// afford across hundreds of trials. The trajectory tracks the estimator's
/// BEHAVIOUR (conservatism, streaker robustness), which survives the
/// coarser grid; paper-fidelity MC runs stay with the fig benches.
MonteCarloOptions AccuracyMatrixMcOptions();

struct AccuracyMatrixOptions {
  /// Trials per cell. The committed baseline records this; the gate only
  /// compares runs with matching seed counts (see bench_accuracy.cc).
  int seeds_per_cell = 12;
  /// Scenario stream seeds are first_scenario_seed + trial index — shared
  /// across the estimator axis so cells in one scenario row see identical
  /// samples.
  uint64_t first_scenario_seed = 1;
  /// Root of the per-cell Rng::Split() streams (bootstrap seeds).
  uint64_t base_seed = 0xACC0ull;
  int bootstrap_replicates = 24;
  double confidence = 0.95;
  MonteCarloOptions mc = AccuracyMatrixMcOptions();
  /// Pool the trials fan out on (engines inside each trial run inline on
  /// it); nullptr means ThreadPool::Default(). Pure scheduling — results
  /// are bit-identical for any pool.
  ThreadPool* pool = nullptr;
  bool record_trials = false;
};

/// The default grid: 4 calibrated paper workloads + 6 synthetic pathology
/// axes (streaker-heavy, streaker-injected, correlated-overlap, heavy-tail,
/// publication-bias, sparse-singletons).
std::vector<AccuracyScenarioSpec> DefaultAccuracyScenarios();

/// auto, bucket, monte-carlo, naive, freq.
std::vector<AccuracyEstimatorSpec> DefaultAccuracyEstimators();

/// UUQ_ACCURACY_SEEDS env override (the full-sweep knob), else `fallback`.
int AccuracySeedsFromEnv(int fallback);

/// Runs the full grid. Cells are ordered scenario-major (scenario 0 ×
/// every estimator, then scenario 1, ...); cell c's bootstrap seeds come
/// from the c-th Split() stream of Rng(base_seed).
std::vector<AccuracyCell> RunAccuracyMatrix(
    const std::vector<AccuracyScenarioSpec>& scenarios,
    const std::vector<AccuracyEstimatorSpec>& estimators,
    const AccuracyMatrixOptions& options);

// ---------------------------------------------------------------------------
// Gate: the per-metric CI tolerances live HERE and only here.
// ---------------------------------------------------------------------------

/// Maximum |measured − baseline| per metric before the gate fails. The
/// matrix is deterministic, so on unchanged code measured == baseline
/// exactly; the tolerances exist so a deliberate engine change that
/// legitimately perturbs floating point (and with it a seed or two) can
/// land without a re-baseline, while a real regression — coverage collapse,
/// clamp explosion, bias jump — fails CI. At the default 12 seeds one
/// flipped trial moves a rate metric by 1/12 ≈ 0.083, inside the 0.10
/// allowance; two flips fail. Deviations are judged symmetrically: a large
/// unexplained IMPROVEMENT is also a distribution change that demands a
/// deliberate re-baseline, not a silent pass.
struct AccuracyTolerances {
  double coverage = 0.10;
  double nhat_bias = 0.15;
  double sum_err = 0.10;
  double clamp_rate = 0.10;
};

enum class AccuracyMetric { kCoverage, kNhatBias, kSumErr, kClampRate };

inline constexpr AccuracyMetric kAccuracyMetrics[] = {
    AccuracyMetric::kCoverage, AccuracyMetric::kNhatBias,
    AccuracyMetric::kSumErr, AccuracyMetric::kClampRate};

const char* AccuracyMetricName(AccuracyMetric metric);
double AccuracyMetricValue(const AccuracyCell& cell, AccuracyMetric metric);
double AccuracyMetricTolerance(const AccuracyTolerances& tolerances,
                               AccuracyMetric metric);

/// Baseline key for one cell metric: "<scenario>|<estimator>|<metric>".
std::string AccuracyBaselineKey(const std::string& scenario,
                                const std::string& estimator,
                                AccuracyMetric metric);

/// Compares every cell metric against `baseline` (a lookup returning the
/// committed value for a key, NaN when absent) and returns one
/// human-readable line per violation — empty means the gate passes. A
/// MISSING baseline key is a violation too: a new cell must land with its
/// baseline, otherwise it would ride ungated.
std::vector<std::string> AccuracyGateFailures(
    const std::vector<AccuracyCell>& cells,
    const std::function<double(const std::string& key)>& baseline,
    const AccuracyTolerances& tolerances);

}  // namespace uuq

#endif  // UUQ_SIMULATION_ACCURACY_MATRIX_H_
