// Columnar bootstrap throughput harness + regression gate.
//
// Times BootstrapCorrectedSum on the ROADMAP baseline workload (bucket
// estimator, B=48 replicates, n=500 UsTechEmployment prefix — the PR 1
// measurement was 12.7 ms serial on the materializing path) against the
// materializing oracle (tests/materialized_oracle.h: every replicate
// rebuilt as a fresh IntegratedSample), plus the jackknife, and verifies:
//
//   * the engine's and the oracle's intervals agree bit for bit (the
//     conformance contract at bench scale),
//   * 1-thread and 2-thread pools agree bit for bit (the determinism
//     contract),
//   * the columnar path clears the >=3x replicate-throughput target over
//     the materializing path (acceptance criterion, recorded on the bench
//     box; warn-only unless UUQ_BENCH_ENFORCE is set, because a loaded or
//     slow box can legitimately land near the line).
//
// Regression gate — the check CI actually enforces:
// UUQ_BENCH_BASELINE=<path to bench/bootstrap_baseline.json> compares the
// measured columnar-vs-materialized SPEEDUP RATIO against the committed
// baseline and fails when it drops below 80% of it. The ratio is
// machine-portable (both run on the same box in the same process, on one
// thread), unlike absolute milliseconds — the trade-off is that it tracks
// the columnar engine's advantage over the reference, not absolute
// throughput: re-measure and recommit the baseline when the reference
// itself is deliberately changed.
//
// VERIFY PASS (the wrong-answer-speedup guard). The best-of-N timing loop
// deliberately re-runs the IDENTICAL workload each rep — same seed, same
// replicate streams — which is right for best-of timing but means the loop
// itself can never notice a correct-looking speedup that silently changed
// the answer. Before any timing, the harness therefore cross-checks the
// full interval (lo/hi/median and every replicate of the bootstrap, the
// standard error of the jackknife) of the production replicate engine
// against the materializing oracle, bit for bit; it also pins the adaptive
// replicate budget against fixed budgets at both ends of its range (pilot
// early-stop == fixed-pilot, cap escalation == fixed-cap).
// UUQ_BENCH_VERIFY=0 skips it (debugging only — CI always runs it), so the
// ratio gate below can never pass on a wrong-answer speedup.
//
// Rows are APPENDED to bench_out.json so one CI artifact carries both this
// harness and bench_parallel_speedup.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "../tests/materialized_oracle.h"
#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/bootstrap.h"
#include "simulation/scenarios.h"

namespace uuq {
namespace {

int64_t BestOfRepsNs(int reps, const std::function<void()>& op) {
  int64_t best = std::numeric_limits<int64_t>::max();
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    op();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    best = std::min<int64_t>(
        best,
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }
  return best;
}

struct Fatal {
  std::string what;
};

void CheckBitIdentical(double a, double b, const char* label) {
  if (a != b && !(std::isnan(a) && std::isnan(b))) {
    throw Fatal{std::string(label) + ": results differ (" + std::to_string(a) +
                " vs " + std::to_string(b) + ")"};
  }
}

void CheckSameInterval(const BootstrapInterval& a, const BootstrapInterval& b,
                       const char* label) {
  CheckBitIdentical(a.point, b.point, label);
  CheckBitIdentical(a.lo, b.lo, label);
  CheckBitIdentical(a.hi, b.hi, label);
  CheckBitIdentical(a.median, b.median, label);
  if (a.by_replicate.size() != b.by_replicate.size()) {
    throw Fatal{std::string(label) + ": replicate counts differ"};
  }
  for (size_t i = 0; i < a.by_replicate.size(); ++i) {
    CheckBitIdentical(a.by_replicate[i], b.by_replicate[i], label);
  }
}

/// The pre-timing correctness pass (see header comment): the columnar
/// replicate engine must reproduce the materializing oracle bit for bit
/// before any speedup is trusted.
void VerifyColumnarAgainstMaterialized(const IntegratedSample& sample,
                                       const BucketSumEstimator& bucket,
                                       ThreadPool* serial) {
  const auto statistic = [&bucket](const IntegratedSample& replicate) {
    return bucket.EstimateImpact(replicate).corrected_sum;
  };
  BootstrapOptions options;
  options.replicates = 48;
  options.pool = serial;
  const BootstrapInterval columnar_bs =
      BootstrapCorrectedSum(sample, bucket, options);
  const oracle::Replicates reference =
      oracle::MaterializedBootstrap(sample, options, statistic);
  const char* label = "verify bootstrap columnar-vs-materialized";
  CheckBitIdentical(columnar_bs.lo, reference.lo, label);
  CheckBitIdentical(columnar_bs.hi, reference.hi, label);
  CheckBitIdentical(columnar_bs.median, reference.median, label);
  if (oracle::SortedFinite(columnar_bs.by_replicate) != reference.values) {
    throw Fatal{std::string(label) + ": replicate sets differ"};
  }

  const JackknifeInterval jk_columnar =
      JackknifeCorrectedSum(sample, bucket, 1.96, serial);
  const oracle::Replicates jk_reference =
      oracle::MaterializedJackknife(sample, statistic);
  CheckBitIdentical(jk_columnar.standard_error, jk_reference.standard_error,
                    "verify jackknife columnar-vs-materialized (se)");
  if (jk_columnar.finite_replicates !=
      static_cast<int>(jk_reference.values.size())) {
    throw Fatal{"verify jackknife columnar-vs-materialized: finite "
                "replicate counts differ"};
  }
  std::printf("verify pass OK: columnar == materialized replicates "
              "(bit-identical intervals)\n");
}

/// Adaptive-vs-fixed leg of the verify pass: pin both ends of the
/// pilot-then-refine range. An unreachable epsilon must escalate to the cap
/// and reproduce the fixed-cap interval bit for bit; a trivially-met
/// epsilon must stop at the pilot and reproduce the fixed-pilot interval.
void VerifyAdaptiveAgainstFixed(const IntegratedSample& sample,
                                const BucketSumEstimator& bucket,
                                ThreadPool* serial) {
  BootstrapOptions fixed;
  fixed.replicates = 48;
  fixed.pool = serial;

  BootstrapOptions adaptive = fixed;
  adaptive.adaptive.epsilon = 1e-9;  // unreachable: must escalate to the cap
  const BootstrapInterval at_cap =
      BootstrapCorrectedSum(sample, bucket, adaptive);
  if (at_cap.adaptive.stop != BudgetStop::kCapReached ||
      at_cap.by_replicate.size() != 48) {
    throw Fatal{"verify adaptive cap: expected a cap stop at 48 "
                "replicates, got " +
                std::to_string(at_cap.by_replicate.size())};
  }
  CheckSameInterval(at_cap, BootstrapCorrectedSum(sample, bucket, fixed),
                    "verify adaptive(cap)-vs-fixed-48");

  adaptive.adaptive.epsilon = std::numeric_limits<double>::max();
  const BootstrapInterval at_pilot =
      BootstrapCorrectedSum(sample, bucket, adaptive);
  fixed.replicates = adaptive.adaptive.pilot_replicates;
  if (at_pilot.adaptive.stop != BudgetStop::kTargetMet ||
      at_pilot.by_replicate.size() != static_cast<size_t>(fixed.replicates)) {
    throw Fatal{"verify adaptive pilot: expected early stop at the pilot "
                "block, got " +
                std::to_string(at_pilot.by_replicate.size())};
  }
  CheckSameInterval(at_pilot, BootstrapCorrectedSum(sample, bucket, fixed),
                    "verify adaptive(pilot)-vs-fixed-pilot");
  std::printf("verify pass OK: adaptive budget == fixed budget at both the "
              "pilot early-stop and the escalation cap\n");
}

}  // namespace
}  // namespace uuq

int main() {
  using namespace uuq;
  using bench::BenchRow;

  const int reps = bench::RepsFromEnv(3);
  const bool enforce = std::getenv("UUQ_BENCH_ENFORCE") != nullptr;

  bench::PrintHeader(
      "Columnar bootstrap engine (SampleView replicates vs materializing "
      "reference)",
      ">=3x replicate throughput over the materializing path; bit-identical "
      "intervals vs the materializing oracle and across thread counts");
  std::printf("reps=%d (best-of)%s\n\n", reps,
              enforce ? "  [UUQ_BENCH_ENFORCE]" : "");

  const Scenario scenario = scenarios::UsTechEmployment();
  IntegratedSample sample;
  for (int64_t i = 0;
       i < 500 && i < static_cast<int64_t>(scenario.stream.size()); ++i) {
    sample.Add(scenario.stream[i]);
  }
  const BucketSumEstimator bucket;
  std::vector<BenchRow> rows;
  double speedup = 0.0;

  try {
    ThreadPool serial(1);

    // Correctness before speed: the timing loop re-seeds identically each
    // rep, so it cannot catch a wrong-answer speedup by itself.
    const char* verify_env = std::getenv("UUQ_BENCH_VERIFY");
    if (verify_env == nullptr || std::strcmp(verify_env, "0") != 0) {
      VerifyColumnarAgainstMaterialized(sample, bucket, &serial);
      VerifyAdaptiveAgainstFixed(sample, bucket, &serial);
    } else {
      std::printf("verify pass SKIPPED (UUQ_BENCH_VERIFY=0)\n");
    }

    BootstrapOptions options;
    options.replicates = 48;
    options.pool = &serial;
    const auto statistic = [&bucket](const IntegratedSample& replicate) {
      return bucket.EstimateImpact(replicate).corrected_sum;
    };

    // ---- materializing oracle (the pre-columnar semantics) ---------------
    double ref_lo = 0.0;
    const int64_t ref_ns = BestOfRepsNs(reps, [&] {
      ref_lo = oracle::MaterializedBootstrap(sample, options, statistic).lo;
    });
    rows.push_back({"bootstrap[bucket]", "eval=materialized,B=48,n=500",
                    static_cast<double>(ref_ns), 1.0});
    std::printf("%-34s %10.3f ms\n", "bootstrap materialized (B=48)",
                ref_ns / 1e6);

    // ---- columnar engine --------------------------------------------------
    double col_lo = 0.0;
    const int64_t col_ns = BestOfRepsNs(reps, [&] {
      col_lo = BootstrapCorrectedSum(sample, bucket, options).lo;
    });

    // Ratio-gate guard: on a machine fast enough that the materializing
    // reference finishes near the clock's resolution, the speedup ratio is
    // dominated by timer quantization (a 0 ns reference would even divide
    // to inf). Require a minimum reference duration before computing or
    // enforcing any ratio; correctness checks below still run.
    constexpr int64_t kMinRatioRefNs = 200 * 1000;  // 0.2 ms
    const bool ratio_usable = ref_ns >= kMinRatioRefNs && col_ns > 0;
    // An unusable ratio is recorded as the no-ratio convention (1.0, like
    // reference rows) with a marker in the config string, NOT as 0.0 —
    // artifact consumers would read 0.0 as a catastrophic regression.
    speedup = ratio_usable
                  ? static_cast<double>(ref_ns) / static_cast<double>(col_ns)
                  : 1.0;
    if (!ratio_usable) {
      std::printf(
          "WARNING: materialized reference ran %.3f ms (< %.1f ms floor); "
          "speedup ratio not meaningful on this machine — ratio gates "
          "skipped\n",
          ref_ns / 1e6, kMinRatioRefNs / 1e6);
    }
    rows.push_back({"bootstrap[bucket]",
                    ratio_usable ? "eval=columnar,B=48,n=500"
                                 : "eval=columnar,B=48,n=500,ratio=skipped",
                    static_cast<double>(col_ns), speedup});
    std::printf("%-34s %10.3f ms   %6.2fx vs materialized\n",
                "bootstrap columnar (B=48)", col_ns / 1e6, speedup);

    CheckBitIdentical(ref_lo, col_lo, "bootstrap columnar-vs-materialized");

    // ---- adaptive replicate budget (pilot-then-refine) --------------------
    // Easy-target workload: epsilon = the fixed-48 interval's full width,
    // comfortably met by the pilot's spread estimate — the adaptive budget
    // must answer with STRICTLY fewer replicates than the fixed B=48 spend
    // while staying bit-identical to the fixed run of its settled size.
    const BootstrapInterval fixed48 =
        BootstrapCorrectedSum(sample, bucket, options);
    BootstrapOptions adaptive_options = options;
    adaptive_options.adaptive.epsilon = fixed48.hi - fixed48.lo;
    BootstrapInterval adaptive_ci;
    const int64_t ad_ns = BestOfRepsNs(reps, [&] {
      adaptive_ci = BootstrapCorrectedSum(sample, bucket, adaptive_options);
    });
    const int adaptive_used =
        static_cast<int>(adaptive_ci.by_replicate.size());
    if (adaptive_ci.adaptive.stop != BudgetStop::kTargetMet ||
        adaptive_used >= 48) {
      throw Fatal{"adaptive budget did not beat the fixed B=48 spend on the "
                  "easy-target workload (used " +
                  std::to_string(adaptive_used) + " replicates)"};
    }
    BootstrapOptions prefix_options = options;
    prefix_options.replicates = adaptive_used;
    CheckSameInterval(adaptive_ci,
                      BootstrapCorrectedSum(sample, bucket, prefix_options),
                      "adaptive-vs-fixed at the settled budget");
    const double adaptive_speedup =
        ad_ns > 0 ? static_cast<double>(col_ns) / static_cast<double>(ad_ns)
                  : 1.0;
    rows.push_back({"bootstrap[bucket]",
                    "pr=10,mode=adaptive,eps=width48,cap=48,n=500,"
                    "metric=replicates",
                    static_cast<double>(adaptive_used),
                    48.0 / static_cast<double>(adaptive_used)});
    rows.push_back({"bootstrap[bucket]",
                    "pr=10,mode=adaptive,eps=width48,cap=48,n=500,"
                    "metric=time_to_eps",
                    static_cast<double>(ad_ns), adaptive_speedup});
    std::printf("%-34s %10.3f ms   %6.2fx vs fixed B=48 (%d replicates, "
                "half-width %.1f <= eps %.1f)\n",
                "bootstrap adaptive (easy target)", ad_ns / 1e6,
                adaptive_speedup, adaptive_used,
                adaptive_ci.adaptive.half_width,
                adaptive_options.adaptive.epsilon);

    // ---- determinism across thread counts --------------------------------
    ThreadPool pair(2);
    options.pool = &pair;
    const double pair_lo = BootstrapCorrectedSum(sample, bucket, options).lo;
    CheckBitIdentical(col_lo, pair_lo, "bootstrap threads=1-vs-2");
    options.pool = &serial;

    // ---- jackknife --------------------------------------------------------
    double jk_col = 0.0, jk_ref = 0.0;
    const int64_t jk_col_ns = BestOfRepsNs(reps, [&] {
      jk_col =
          JackknifeCorrectedSum(sample, bucket, 1.96, &serial).standard_error;
    });
    const int64_t jk_ref_ns = BestOfRepsNs(reps, [&] {
      jk_ref =
          oracle::MaterializedJackknife(sample, statistic).standard_error;
    });
    CheckBitIdentical(jk_ref, jk_col, "jackknife columnar-vs-materialized");
    // Same timer-quantization guard as the bootstrap ratio: a reference
    // under the floor (or a columnar time quantized to 0, which would
    // divide to inf and corrupt the JSON artifact) records the no-ratio
    // convention instead.
    const bool jk_ratio_usable = jk_ref_ns >= kMinRatioRefNs && jk_col_ns > 0;
    const double jk_speedup =
        jk_ratio_usable
            ? static_cast<double>(jk_ref_ns) / static_cast<double>(jk_col_ns)
            : 1.0;
    rows.push_back({"jackknife[bucket]", "eval=materialized,n=500",
                    static_cast<double>(jk_ref_ns), 1.0});
    rows.push_back({"jackknife[bucket]",
                    jk_ratio_usable ? "eval=columnar,n=500"
                                    : "eval=columnar,n=500,ratio=skipped",
                    static_cast<double>(jk_col_ns), jk_speedup});
    std::printf("%-34s %10.3f ms\n", "jackknife materialized",
                jk_ref_ns / 1e6);
    std::printf("%-34s %10.3f ms   %6.2fx vs materialized\n",
                "jackknife columnar", jk_col_ns / 1e6, jk_speedup);

    // ---- replicate throughput ---------------------------------------------
    const double reps_per_sec = 48.0 / (static_cast<double>(col_ns) / 1e9);
    rows.push_back({"bootstrap[bucket]", "ns_per_replicate,B=48,n=500",
                    static_cast<double>(col_ns) / 48.0, speedup});
    std::printf("%-34s %10.0f replicates/s\n\n", "columnar throughput",
                reps_per_sec);

    if (ratio_usable && speedup < 3.0) {
      const std::string msg =
          "columnar speedup " + std::to_string(speedup) +
          "x is below the 3x acceptance target";
      if (enforce) throw Fatal{msg};
      std::printf("WARNING: %s (not enforced without UUQ_BENCH_ENFORCE)\n",
                  msg.c_str());
    }

    // ---- regression gate vs committed baseline ----------------------------
    if (const char* baseline_path = std::getenv("UUQ_BENCH_BASELINE");
        baseline_path != nullptr && ratio_usable) {
      const double baseline =
          bench::ReadBaselineNumber(baseline_path, "bootstrap_columnar_speedup");
      if (std::isnan(baseline)) {
        std::printf("WARNING: no bootstrap_columnar_speedup in %s; gate "
                    "skipped\n",
                    baseline_path);
      } else if (speedup < 0.8 * baseline) {
        throw Fatal{"columnar-vs-materialized speedup regressed >20%: " +
                    std::to_string(speedup) + "x vs committed baseline " +
                    std::to_string(baseline) +
                    "x (re-measure the baseline if the reference path was "
                    "deliberately changed)"};
      } else {
        std::printf("baseline gate OK: %.2fx vs committed %.2fx (>=80%%)\n",
                    speedup, baseline);
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
