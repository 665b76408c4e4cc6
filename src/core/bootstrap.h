// Bootstrap confidence intervals for unknown-unknowns-corrected answers.
//
// The paper's §6.5 "Trust In The Results" discussion gives a point estimate
// and a loose worst-case bound; a natural strengthening (and a common
// request for production use) is a resampling interval. Sources are the
// independent sampling units of the §2.2 model, so we bootstrap at SOURCE
// granularity: draw l sources with replacement, replay their observations
// (a resampled source keeps its internal without-replacement property), and
// re-run the estimator. Percentile intervals over B replicates.
//
// ENGINE. Replicates run over the columnar SampleView (sample_view.h): the
// sample is flattened once, each replicate is a vector of source indices,
// and the estimator evaluates the replicate straight from the value/
// multiplicity columns — no maps, no string keys, no per-replicate
// Observation copies. Every fusion policy folds columnar (kMajority through
// the per-slot report histogram), and every built-in SUM estimator has a
// replicate path; the bucket estimator additionally reuses a per-thread
// IndexScratch (bucket.h), so a B-replicate run performs zero per-replicate
// heap allocations once warm. There is no materializing fallback: an
// estimator without a replicate path is a precondition violation.
//
// DEGENERATE INPUTS. An all-non-finite replicate set (an estimator whose
// species formula diverges on every resample) degrades the percentile
// interval to [point, point] with finite_replicates == 0; a sample with
// fewer than 2 sources short-circuits the jackknife to the same degenerate
// shape without ever evaluating an estimator on the empty leave-one-out
// view.
//
// DETERMINISM. The replicate loop is sharded across the ThreadPool with one
// Rng::Split() stream per replicate, derived in replicate order before the
// parallel section, so intervals are bit-identical for every thread count
// (including UUQ_THREADS=1). A columnar replicate estimate is bit-identical
// to the estimate on the materialized replicate for every fusion policy
// (see sample_view.h); tests/materialized_oracle.h is that materializing
// reference, and the conformance suite pins the engine to it.
#ifndef UUQ_CORE_BOOTSTRAP_H_
#define UUQ_CORE_BOOTSTRAP_H_

#include <functional>
#include <vector>

#include "common/cancel.h"
#include "core/adaptive_budget.h"
#include "core/estimate.h"
#include "integration/sample_view.h"

namespace uuq {

class ThreadPool;

struct BootstrapOptions {
  int replicates = 200;
  double confidence = 0.95;  ///< central interval mass
  uint64_t seed = 0xB007ull;
  /// Pool for replicate evaluation; nullptr means ThreadPool::Default().
  /// Replicates run concurrently, each on its own Rng::Split() stream
  /// derived in replicate order, so the interval is bit-identical for every
  /// thread count. `estimator` must tolerate concurrent const calls (every
  /// uuq estimator is stateless and does).
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation, polled before every replicate. When it fires
  /// the engine stops claiming replicates, lets in-flight ones finish
  /// normally (ParallelFor still joins — no task outlives the call), and
  /// returns the interval of the last completed round's prefix, with the
  /// token's reason as the stop reason (BootstrapInterval::adaptive). The
  /// default (inert) token costs one null check per replicate and leaves
  /// results bit-identical to a run without a token.
  CancelToken cancel;
  /// Test/chaos hook: invoked with the replicate index before each
  /// replicate is evaluated (on the worker thread that runs it). The
  /// serving fault injector uses it to model slow replicates; it must not
  /// throw and must not touch the replicate's results.
  std::function<void(int64_t)> replicate_probe;
  /// Precision target (core/adaptive_budget.h). `replicates` is the cap,
  /// and the stop rule NextReplicateTarget decides how much of it to run:
  /// ε = 0 (the default) runs all `replicates`, in the same rounds a
  /// target walks, with no stop test; ε > 0 runs a pilot block, estimates the replicate-mean Monte Carlo half-width
  /// z·s/√B (a replicate-resolution target, NOT the percentile interval's
  /// own width — see adaptive_budget.h), and escalates B in blocks until
  /// ±epsilon is met or the cap trips. DETERMINISM: replicate b always
  /// evaluates on the b-th Rng::Split() stream of `seed` regardless of how
  /// many rounds preceded it, so a targeted run that settles on B
  /// replicates is bit-identical to a fixed-B run at every thread count.
  AdaptiveBudgetOptions adaptive;
};

struct BootstrapInterval {
  double point = 0.0;    ///< estimate on the original sample
  double lo = 0.0;       ///< lower percentile bound
  double hi = 0.0;       ///< upper percentile bound
  double median = 0.0;
  int finite_replicates = 0;  ///< replicates with a finite estimate
  /// Every replicate's value in replicate order, non-finite ones included:
  /// by_replicate[b] came from stream b, so its length is the budget the
  /// run settled on and any prefix of it is a shorter fixed run's full
  /// output. ReplayBootstrap answers later budgets from it. A run whose
  /// token fired inside its first round keeps no prefix: by_replicate is
  /// empty and the interval is the degenerate [point, point], which carries
  /// no resampling information. A run cut off after a completed round keeps
  /// that round's prefix, bit-identical to a fixed-B run at its length.
  std::vector<double> by_replicate;
  /// The budget's decisions and its one stop reason (core/adaptive_budget.h).
  AdaptiveBudgetReport adaptive;
};

/// Bootstraps `estimator`'s corrected SUM over source-resampled versions of
/// `sample`. Non-finite replicate estimates (e.g. all-singleton resamples)
/// are dropped; finite_replicates reports how many survived. Precondition
/// (checked): estimator.SupportsReplicates() — every built-in SUM estimator
/// has a replicate path.
///
/// CAVEAT (known cluster-bootstrap bias for richness estimation): drawing a
/// source twice duplicates its claims, which inflates multiplicities and
/// deflates f1, so replicate N̂s — and with them corrected sums — skew LOW
/// relative to the point estimate. Read the percentile interval as a
/// VARIABILITY report, not a coverage-calibrated CI; for a centered
/// interval use JackknifeCorrectedSum below.
BootstrapInterval BootstrapCorrectedSum(const IntegratedSample& sample,
                                        const SumEstimator& estimator,
                                        const BootstrapOptions& options = {});

/// Generic percentile bootstrap over source-resampled replicates: the
/// engine behind BootstrapCorrectedSum and QueryCorrector's intervals.
/// `statistic` evaluates one replicate from its columns; `point` is the
/// statistic on the original sample and is copied into the interval.
/// `view` (optional) is an ALREADY-FLATTENED view of `sample`: it must have
/// been constructed from this exact sample and outlive the call; nullptr
/// flattens locally. SampleView construction is a pure function of the
/// sample, so both are bit-identical; skipping the per-call flatten is the
/// point of the serving layer's artifact snapshot
/// (serving/sample_cache.h).
BootstrapInterval BootstrapAggregate(
    const IntegratedSample& sample, const SampleView* view, double point,
    const std::function<double(const ReplicateSample&)>& statistic,
    const BootstrapOptions& options = {});

/// Answers `options` from `by_replicate`, the replicate-order values of an
/// earlier BootstrapAggregate run with the same sample, statistic and seed.
/// Walks the engine's budget schedule over the stored prefix; when the
/// schedule settles within it, writes the interval (stop reason included)
/// a fresh uncancelled run with `options` would return (bit-identical:
/// replicate b is stream b) and returns true. Returns false when the
/// schedule needs replicates past the prefix.
bool ReplayBootstrap(double point, const std::vector<double>& by_replicate,
                     const BootstrapOptions& options, BootstrapInterval* out);

/// Delete-one-source jackknife: re-estimates with each source left out and
/// derives a normal-approximation interval
///   point ± z · sqrt((l−1)/l · Σ_i (θ_(i) − θ̄)²).
/// Deterministic (no RNG), free of the duplicate-source artifact, O(l)
/// re-estimations run concurrently on `pool` (nullptr → default pool).
/// Leave-one-out replicates evaluate over the columnar view; the estimator
/// must support replicates (checked, as for BootstrapCorrectedSum). Needs
/// at least 2 sources.
struct JackknifeInterval {
  double point = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double standard_error = 0.0;
  int sources = 0;
  int finite_replicates = 0;
};

JackknifeInterval JackknifeCorrectedSum(const IntegratedSample& sample,
                                        const SumEstimator& estimator,
                                        double z = 1.96,
                                        ThreadPool* pool = nullptr);

}  // namespace uuq

#endif  // UUQ_CORE_BOOTSTRAP_H_
