// Scenario-matrix accuracy harness + regression gate: the accuracy
// trajectory CI gates next to the perf gates (simulation/accuracy_matrix.h).
//
// Runs the default (scenario × estimator) grid — 4 calibrated paper
// workloads + 6 synthetic pathology axes, × 5 estimators — over
// UUQ_ACCURACY_SEEDS seeded trials per cell (default 12) with bootstrap
// intervals attached, prints the coverage / N̂-bias / SUM-error /
// clamp-rate table, and emits one row per (cell × metric) into the shared
// bench_out.json trajectory artifact:
//
//   {"estimator": "accuracy[bucket]",
//    "config": "pr=8,scenario=us-gdp,seeds=12,B=24,metric=coverage",
//    "ns_per_op": 0.916667, "speedup": 1.0}
//
// ns_per_op carries the METRIC VALUE (the field the history merger and
// plots track), not a duration; the one "accuracy[matrix]" row records the
// wall time so grid cost stays on the perf trajectory too.
//
// VERIFY PASS. Before anything is measured, a reduced sub-grid runs twice —
// 1-thread pool vs multi-thread pool — and every metric must match bit for
// bit (the Split()-stream determinism contract). A scheduling change that
// silently broke seed derivation would otherwise shift metrics within
// tolerance and poison the baseline.
//
// Regression gate — the check CI enforces:
//   UUQ_ACCURACY_BASELINE=<path to bench/accuracy_baseline.json>
// compares every cell metric against the committed value with the
// per-metric tolerances from AccuracyTolerances (ONE header:
// simulation/accuracy_matrix.h) and fails on any deviation — the matrix is
// deterministic, so an unchanged engine reproduces the baseline exactly.
// The gate only fires when the baseline's recorded seeds/replicates match
// this run (a reduced or widened sweep is a different measurement, not a
// regression); it then warns and skips.
//
// Knobs:
//   UUQ_ACCURACY_SEEDS=<n>            trials per cell (full-sweep override)
//   UUQ_ACCURACY_WRITE_BASELINE=<p>   write the baseline JSON and skip the
//                                     gate (the re-baseline workflow)
//   UUQ_ACCURACY_INJECT=<metric>:<d>  add <d> to every cell's <metric>
//                                     AFTER measuring, BEFORE gating — CI's
//                                     negative self-test proves the gate
//                                     trips on a perturbed trajectory
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "simulation/accuracy_matrix.h"

namespace uuq {
namespace {

struct Fatal {
  std::string what;
};

/// The bit-identity pre-pass: a 2×2 sub-grid, 2 seeds, serial vs parallel.
void VerifyThreadCountDeterminism(
    const std::vector<AccuracyScenarioSpec>& scenarios,
    const std::vector<AccuracyEstimatorSpec>& estimators) {
  std::vector<AccuracyScenarioSpec> sub_scenarios(scenarios.begin(),
                                                  scenarios.begin() + 2);
  std::vector<AccuracyEstimatorSpec> sub_estimators(estimators.begin(),
                                                    estimators.begin() + 2);
  AccuracyMatrixOptions options;
  options.seeds_per_cell = 2;
  ThreadPool serial(1);
  ThreadPool wide(4);
  options.pool = &serial;
  const auto a = RunAccuracyMatrix(sub_scenarios, sub_estimators, options);
  options.pool = &wide;
  const auto b = RunAccuracyMatrix(sub_scenarios, sub_estimators, options);
  for (size_t i = 0; i < a.size(); ++i) {
    for (AccuracyMetric metric : kAccuracyMetrics) {
      const double va = AccuracyMetricValue(a[i], metric);
      const double vb = AccuracyMetricValue(b[i], metric);
      if (va != vb) {
        throw Fatal{"determinism verify: " +
                    AccuracyBaselineKey(a[i].scenario, a[i].estimator,
                                        metric) +
                    " differs across thread counts (" + std::to_string(va) +
                    " vs " + std::to_string(vb) + ")"};
      }
    }
  }
  std::printf("verify pass OK: sub-grid metrics bit-identical across "
              "1- and 4-thread pools\n\n");
}

bool WriteBaseline(const std::string& path,
                   const std::vector<AccuracyCell>& cells, int seeds,
                   int replicates) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\n  \"seeds\": %d,\n  \"replicates\": %d", seeds,
               replicates);
  for (const AccuracyCell& cell : cells) {
    for (AccuracyMetric metric : kAccuracyMetrics) {
      std::fprintf(file, ",\n  \"%s\": %.6f",
                   AccuracyBaselineKey(cell.scenario, cell.estimator, metric)
                       .c_str(),
                   AccuracyMetricValue(cell, metric));
    }
  }
  std::fputs("\n}\n", file);
  std::fclose(file);
  return true;
}

}  // namespace
}  // namespace uuq

int main() {
  using namespace uuq;
  using bench::BenchRow;

  const int seeds = AccuracySeedsFromEnv(12);
  AccuracyMatrixOptions options;
  options.seeds_per_cell = seeds;

  bench::PrintHeader(
      "Scenario-matrix accuracy trajectory (coverage / N-hat bias / "
      "SUM error / clamp rate)",
      "bucket most accurate on the calibrated workloads; MC conservative "
      "under streakers; clamp confined to the sparse-singleton axis");
  std::printf("seeds=%d per cell, B=%d bootstrap replicates\n\n", seeds,
              options.bootstrap_replicates);

  const auto scenarios = DefaultAccuracyScenarios();
  const auto estimators = DefaultAccuracyEstimators();
  std::vector<BenchRow> rows;

  try {
    VerifyThreadCountDeterminism(scenarios, estimators);

    const auto start = std::chrono::steady_clock::now();
    auto cells = RunAccuracyMatrix(scenarios, estimators, options);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double elapsed_ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                elapsed)
                                .count());

    std::printf("%-20s %-12s %9s %10s %9s %10s\n", "scenario", "estimator",
                "coverage", "nhat_bias", "sum_err", "clamp_rate");
    const std::string config_suffix =
        ",seeds=" + std::to_string(seeds) +
        ",B=" + std::to_string(options.bootstrap_replicates);
    for (const AccuracyCell& cell : cells) {
      std::printf("%-20s %-12s %9.3f %+10.3f %9.3f %10.3f\n",
                  cell.scenario.c_str(), cell.estimator.c_str(), cell.coverage,
                  cell.nhat_bias, cell.sum_err, cell.clamp_rate);
      for (AccuracyMetric metric : kAccuracyMetrics) {
        rows.push_back({"accuracy[" + cell.estimator + "]",
                        "pr=8,scenario=" + cell.scenario + config_suffix +
                            ",metric=" + AccuracyMetricName(metric),
                        AccuracyMetricValue(cell, metric), 1.0});
      }
    }
    rows.push_back({"accuracy[matrix]",
                    "pr=8,grid=" + std::to_string(scenarios.size()) + "x" +
                        std::to_string(estimators.size()) + config_suffix,
                    elapsed_ns, 1.0});
    std::printf("\nmatrix wall time: %.1f ms (%zu cells)\n", elapsed_ns / 1e6,
                cells.size());

    // Re-baseline workflow: write and skip the gate.
    if (const char* out = std::getenv("UUQ_ACCURACY_WRITE_BASELINE");
        out != nullptr) {
      if (!WriteBaseline(out, cells, seeds, options.bootstrap_replicates)) {
        return 1;
      }
      std::printf("wrote baseline %s (gate skipped)\n", out);
    } else if (const char* baseline_path =
                   std::getenv("UUQ_ACCURACY_BASELINE");
               baseline_path != nullptr) {
      // The negative self-test hook: perturb AFTER measuring (rows above
      // carry the true values) so the gate must notice.
      if (const char* inject = std::getenv("UUQ_ACCURACY_INJECT");
          inject != nullptr) {
        const char* colon = std::strchr(inject, ':');
        if (colon == nullptr) throw Fatal{"UUQ_ACCURACY_INJECT wants <metric>:<delta>"};
        const std::string metric_name(inject, colon - inject);
        const double delta = std::atof(colon + 1);
        bool known = false;
        for (AccuracyCell& cell : cells) {
          if (metric_name == "coverage") cell.coverage += delta, known = true;
          if (metric_name == "nhat_bias") cell.nhat_bias += delta, known = true;
          if (metric_name == "sum_err") cell.sum_err += delta, known = true;
          if (metric_name == "clamp_rate") cell.clamp_rate += delta, known = true;
        }
        if (!known) throw Fatal{"UUQ_ACCURACY_INJECT: unknown metric " + metric_name};
        std::printf("INJECTED %+f into every cell's %s (self-test mode)\n",
                    delta, metric_name.c_str());
      }

      const double base_seeds =
          bench::ReadBaselineNumber(baseline_path, "seeds");
      const double base_reps =
          bench::ReadBaselineNumber(baseline_path, "replicates");
      if (base_seeds != seeds || base_reps != options.bootstrap_replicates) {
        std::printf(
            "WARNING: baseline %s recorded seeds=%.0f,replicates=%.0f but "
            "this run used %d,%d — different measurement, gate skipped\n",
            baseline_path, base_seeds, base_reps, seeds,
            options.bootstrap_replicates);
      } else {
        const auto failures = AccuracyGateFailures(
            cells,
            [&](const std::string& key) {
              return bench::ReadBaselineNumber(baseline_path, key);
            },
            AccuracyTolerances{});
        if (!failures.empty()) {
          for (const std::string& failure : failures) {
            std::fprintf(stderr, "GATE: %s\n", failure.c_str());
          }
          throw Fatal{std::to_string(failures.size()) +
                      " accuracy metrics deviate from " + baseline_path +
                      " (re-measure the baseline only for a deliberate "
                      "estimator change)"};
        }
        std::printf("accuracy gate OK: %zu cells x 4 metrics within "
                    "tolerance of %s\n",
                    cells.size(), baseline_path);
      }
    }
  } catch (const Fatal& fatal) {
    std::fprintf(stderr, "FATAL: %s\n", fatal.what.c_str());
    return 1;
  }

  const std::string path = bench::BenchJsonPath();
  if (!bench::AppendBenchJson(path, rows)) return 1;
  std::printf("appended %zu rows to %s\n", rows.size(), path.c_str());
  return 0;
}
