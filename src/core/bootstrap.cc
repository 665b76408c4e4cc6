#include "core/bootstrap.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "stats/descriptive.h"

namespace uuq {

IntegratedSample ResampleSources(const IntegratedSample& sample, Rng* rng) {
  UUQ_CHECK(rng != nullptr);
  // Thin adapter over the columnar engine: the view supplies both the draw
  // (same Rng consumption as the historical map-based body) and the
  // materialization (same "bs<draw>" replay, any fusion policy).
  const SampleView view(sample);
  std::vector<int32_t> draws;
  view.DrawBootstrapSources(rng, &draws);
  return view.MaterializeReplicate(draws);
}

namespace {

/// Decides whether the columnar path may serve this run; aborts when the
/// caller forced an unavailable path.
bool ResolveColumnar(ReplicateEvaluation evaluation, bool estimator_supports,
                     FusionPolicy policy, bool has_materialized) {
  const bool available =
      estimator_supports && SampleView::PolicySupportsColumnar(policy);
  if (evaluation == ReplicateEvaluation::kColumnar) {
    UUQ_CHECK_MSG(available,
                  "columnar evaluation forced but the estimator has no "
                  "replicate path");
    return true;
  }
  const bool columnar =
      evaluation != ReplicateEvaluation::kMaterialized && available;
  UUQ_CHECK_MSG(columnar || has_materialized,
                "no usable replicate evaluator (columnar unavailable and no "
                "materialized fallback)");
  return columnar;
}

/// Sorts the finite replicate values into a percentile interval.
BootstrapInterval PercentileInterval(double point,
                                     const std::vector<double>& values,
                                     double confidence) {
  BootstrapInterval interval;
  interval.point = point;
  interval.replicates.reserve(values.size());
  for (double value : values) {
    if (std::isfinite(value)) interval.replicates.push_back(value);
  }
  interval.finite_replicates = static_cast<int>(interval.replicates.size());
  // Every replicate non-finite (e.g. an estimator whose species formula
  // diverges on every resample): there is nothing to take a quantile of —
  // Quantile on an empty vector would be meaningless — so degrade to the
  // degenerate [point, point] interval with `replicates` left empty and
  // finite_replicates == 0 (the caller's signal that the interval carries
  // no resampling information).
  if (interval.replicates.empty()) {
    interval.lo = interval.hi = interval.median = interval.point;
    return interval;
  }
  std::sort(interval.replicates.begin(), interval.replicates.end());
  const double alpha = (1.0 - confidence) / 2.0;
  interval.lo = Quantile(interval.replicates, alpha);
  interval.hi = Quantile(interval.replicates, 1.0 - alpha);
  interval.median = Quantile(interval.replicates, 0.5);
  return interval;
}

}  // namespace

BootstrapInterval BootstrapAggregate(
    const IntegratedSample& sample, double point,
    const std::function<double(const ReplicateSample&)>& columnar,
    const std::function<double(const IntegratedSample&)>& materialized,
    const BootstrapOptions& options) {
  return BootstrapAggregate(sample, /*view=*/nullptr, point, columnar,
                            materialized, options);
}

BootstrapInterval BootstrapAggregate(
    const IntegratedSample& sample, const SampleView* pre_view, double point,
    const std::function<double(const ReplicateSample&)>& columnar,
    const std::function<double(const IntegratedSample&)>& materialized,
    const BootstrapOptions& options) {
  UUQ_CHECK_MSG(options.replicates > 0, "need at least one replicate");
  UUQ_CHECK_MSG(options.confidence > 0.0 && options.confidence < 1.0,
                "confidence must be in (0,1)");
  const bool use_columnar =
      ResolveColumnar(options.evaluation, columnar != nullptr,
                      sample.policy(), materialized != nullptr);

  // Flattened once per sample: a caller-supplied view (the serving cache's
  // per-registered-sample artifact) is reused as-is; otherwise flatten here
  // — the uncached fallback. The view is a pure function of the sample, so
  // both paths drive the exact same replicate arithmetic.
  std::optional<SampleView> local_view;
  if (pre_view == nullptr) local_view.emplace(sample);
  const SampleView& view = pre_view != nullptr ? *pre_view : *local_view;

  // One pre-derived Rng stream per replicate (derived in replicate order)
  // and one result slot per replicate: the values — and therefore the
  // percentiles — are bit-identical for any thread count. Streams grow
  // INCREMENTALLY: `root.Split()` appended one at a time is, by
  // construction, the same sequence SplitStreams(B) derives, so an
  // adaptive run that escalates in rounds sees the exact streams a fixed-B
  // run sees — the pilot is a bit-exact prefix of any larger budget.
  Rng root(options.seed);
  std::vector<Rng> streams;
  streams.reserve(static_cast<size_t>(options.replicates));
  const auto ensure_streams = [&](int64_t n) {
    while (static_cast<int64_t>(streams.size()) < n) {
      streams.push_back(root.Split());
    }
  };

  ThreadPool* pool = ThreadPool::OrDefault(options.pool);
  std::vector<double> values;
  // Cooperative abort flag. Relaxed is sufficient: it only SKIPS remaining
  // replicates (a delayed observation just runs one more, same as any
  // interleaving), and the final read below happens after ParallelFor's
  // join, which already orders every task's stores before it.
  std::atomic<bool> aborted{false};

  // Evaluates replicates [r_begin, r_end) into values[r_begin..r_end).
  // Tasks claim BLOCKS of consecutive replicates (options.replicate_block)
  // so the dispatch overhead and a worker's warm scratch amortize across
  // the block; the per-replicate work is untouched, so the block size is
  // invisible in the results. The requested block must never starve a wide
  // pool: cap it so every worker gets ~4 tasks to claim (a 16-thread pool
  // with B=48 runs block=1, i.e. the historical one-task-per-replicate
  // dispatch; the 1-thread replicate hot path keeps the full block).
  const auto run_range = [&](int64_t r_begin, int64_t r_end) {
    const int64_t count = r_end - r_begin;
    if (count <= 0) return;
    const int64_t per_worker_cap = std::max<int64_t>(
        1, count / (4 * static_cast<int64_t>(pool->num_threads())));
    const int64_t block = std::min<int64_t>(
        std::max(1, options.replicate_block), per_worker_cap);
    const int64_t num_blocks = (count + block - 1) / block;
    pool->ParallelFor(0, num_blocks, [&](int64_t blk) {
      const int64_t begin = r_begin + blk * block;
      const int64_t end = std::min(r_end, begin + block);
      for (int64_t b = begin; b < end; ++b) {
        // Replicate-granularity cancellation: a fired token stops this
        // task before the next replicate; replicates already in flight on
        // other workers finish normally and ParallelFor joins them all,
        // so no task ever outlives this call. The inert default token
        // makes this a null check — the uncancelled run is untouched.
        if (aborted.load(std::memory_order_relaxed) ||
            options.cancel.Fired()) {
          aborted.store(true, std::memory_order_relaxed);
          return;
        }
        if (options.replicate_probe) options.replicate_probe(b);
        Rng rng = streams[static_cast<size_t>(b)];
        if (use_columnar) {
          // thread_local: worker-local replicate buffers — resting-state
          // scratch (sample_view.h) makes reuse across replicates, views,
          // and pools safe, and per-thread ownership keeps the warm path
          // allocation-free without any locking.
          thread_local ReplicateScratch scratch;
          thread_local ReplicateSample rep;
          view.DrawBootstrapSources(&rng, &scratch.draws());
          view.BuildReplicate(scratch.draws(), &scratch, &rep);
          values[static_cast<size_t>(b)] = columnar(rep);
          continue;
        }
        // Materializing reference path: rebuild into a pooled sample
        // (identical to a fresh one through every accessor) instead of
        // growing a new IntegratedSample per replicate. The arena hands
        // nested evaluations their own sample, so a `materialized`
        // callback that itself bootstraps stays correct.
        // thread_local: per-worker arena/draw pools — LIFO lease reuse is
        // only race-free because no other thread ever touches them.
        thread_local SampleArena arena;
        thread_local std::vector<int32_t> draws;
        view.DrawBootstrapSources(&rng, &draws);
        const SampleArena::Lease lease = arena.Acquire(view.policy());
        view.MaterializeReplicateInto(draws, lease.get());
        values[static_cast<size_t>(b)] = materialized(*lease);
      }
    });
  };

  const auto aborted_interval = [&] {
    // Skipped slots hold meaningless zeros, so never take quantiles over a
    // cancelled run: degrade to the same [point, point] shape as the
    // all-non-finite case and flag it.
    BootstrapInterval interval;
    interval.point = point;
    interval.lo = interval.hi = interval.median = point;
    interval.aborted = true;
    return interval;
  };

  if (!options.adaptive.enabled) {
    const int64_t replicates = options.replicates;
    ensure_streams(replicates);
    values.resize(static_cast<size_t>(replicates));
    run_range(0, replicates);
    if (aborted.load(std::memory_order_relaxed)) return aborted_interval();
    return PercentileInterval(point, values, options.confidence);
  }

  // Pilot-then-refine (core/adaptive_budget.h): run a pilot block, read the
  // replicate spread, and escalate the budget in blocks until the target
  // Monte Carlo half-width is met or the cap trips. Each round evaluates
  // only the NEW replicates [done, target) — earlier slots keep their
  // values, and every replicate b always runs on stream b, so the final
  // `values` prefix is bit-identical to a fixed-B run at B = done for any
  // round schedule.
  UUQ_CHECK_MSG(options.adaptive.epsilon > 0.0,
                "adaptive budget needs epsilon > 0");
  UUQ_CHECK_MSG(options.adaptive.pilot_replicates > 0,
                "adaptive budget needs a pilot block");
  UUQ_CHECK_MSG(options.adaptive.escalation_block > 0,
                "adaptive budget needs a positive escalation block");
  const int64_t cap = options.adaptive.max_replicates > 0
                          ? options.adaptive.max_replicates
                          : options.replicates;
  AdaptiveBudgetReport report;
  report.enabled = true;
  report.epsilon = options.adaptive.epsilon;
  // Out-of-range confidence falls back to 0.95 (the AdaptiveBudgetOptions
  // contract) instead of CHECK-aborting: this field can carry a
  // request-supplied value, and request data must never reach a
  // process-killing assert. epsilon/pilot/escalation above stay CHECKs —
  // they are operator/program configuration, validated at the request
  // boundary (QueryService::Submit) before any request value lands here.
  const double target_confidence =
      options.adaptive.confidence > 0.0 && options.adaptive.confidence < 1.0
          ? options.adaptive.confidence
          : 0.95;

  int64_t done = 0;
  int64_t target =
      std::min<int64_t>(cap, options.adaptive.pilot_replicates);
  report.pilot_replicates = static_cast<int>(target);
  while (true) {
    ensure_streams(target);
    values.resize(static_cast<size_t>(target));
    run_range(done, target);
    if (aborted.load(std::memory_order_relaxed)) {
      if (done == 0) {
        // Cancelled inside the pilot: no completed prefix exists, so this
        // degrades exactly like a cancelled fixed-budget run.
        BootstrapInterval interval = aborted_interval();
        report.precision_degraded = true;
        interval.adaptive = report;
        return interval;
      }
      // Cancelled mid-escalation: the completed prefix IS a full fixed-B
      // run at B = done (every slot written, same streams), so return its
      // interval — typed as precision degradation, not as an abort.
      values.resize(static_cast<size_t>(done));
      report.precision_degraded = true;
      break;
    }
    done = target;
    const double half_width = EstimatedHalfWidth(
        values.data(), static_cast<int>(done), target_confidence);
    report.half_width = half_width;
    if (half_width <= options.adaptive.epsilon) {
      report.target_met = true;
      break;
    }
    if (done >= cap) {
      report.precision_degraded = true;
      break;
    }
    // Jump straight to the variance-predicted budget when it is larger
    // than one escalation block — the block floor keeps progress moving
    // when the pilot variance underestimates the tail.
    const int64_t planned =
        PlannedReplicates(values.data(), static_cast<int>(done),
                          options.adaptive.epsilon, target_confidence);
    target = std::min<int64_t>(
        cap,
        std::max<int64_t>(planned, done + options.adaptive.escalation_block));
    ++report.escalations;
  }
  report.replicates_used = static_cast<int>(done);
  BootstrapInterval interval =
      PercentileInterval(point, values, options.confidence);
  interval.adaptive = report;
  return interval;
}

BootstrapInterval BootstrapCorrectedSum(const IntegratedSample& sample,
                                        const SumEstimator& estimator,
                                        const BootstrapOptions& options,
                                        const SamplePrecomp* pre) {
  const double point = estimator.EstimateImpact(sample, pre).corrected_sum;
  std::function<double(const ReplicateSample&)> columnar;
  if (estimator.SupportsReplicates()) {
    columnar = [&estimator](const ReplicateSample& rep) {
      return estimator.EstimateReplicate(rep).corrected_sum;
    };
  }
  return BootstrapAggregate(
      sample, pre != nullptr ? pre->view : nullptr, point, columnar,
      [&estimator](const IntegratedSample& resampled) {
        return estimator.EstimateImpact(resampled).corrected_sum;
      },
      options);
}

JackknifeInterval JackknifeCorrectedSum(const IntegratedSample& sample,
                                        const SumEstimator& estimator,
                                        double z, ThreadPool* pool,
                                        ReplicateEvaluation evaluation,
                                        const SamplePrecomp* pre) {
  JackknifeInterval interval;
  interval.point = estimator.EstimateImpact(sample, pre).corrected_sum;
  interval.sources = static_cast<int>(sample.num_sources());
  interval.lo = interval.hi = interval.point;
  // num_sources() <= 1 is structurally degenerate: with one source the only
  // leave-one-out replicate is the EMPTY sample (and with zero there are no
  // replicates at all), so running estimators over an empty view would just
  // manufacture meaningless zeros for the variance sum. Return the
  // degenerate [point, point] interval (finite_replicates == 0,
  // standard_error == 0) before any view or replicate machinery spins up.
  if (interval.sources < 2) return interval;

  const bool use_columnar =
      ResolveColumnar(evaluation, estimator.SupportsReplicates(),
                      sample.policy(), /*has_materialized=*/true);
  // Reuse a cached flatten when the caller precomputed one (bit-identical;
  // see BootstrapAggregate above).
  std::optional<SampleView> local_view;
  const bool have_pre_view = pre != nullptr && pre->view != nullptr;
  if (!have_pre_view) local_view.emplace(sample);
  const SampleView& view = have_pre_view ? *pre->view : *local_view;

  // Leave-one-out estimates are independent, so they run concurrently; the
  // computation is RNG-free and each slot is written once, keeping the
  // interval identical for any thread count.
  const std::vector<double> values =
      ThreadPool::OrDefault(pool)->ParallelMap(
          static_cast<int64_t>(interval.sources), [&](int64_t i) {
            const int32_t excluded = static_cast<int32_t>(i);
            if (use_columnar) {
              // thread_local: worker-local LOO buffers (same resting-state
              // contract as the bootstrap path above).
              thread_local ReplicateScratch scratch;
              thread_local ReplicateSample rep;
              view.BuildLeaveOneOut(excluded, &scratch, &rep);
              return estimator.EstimateReplicate(rep).corrected_sum;
            }
            // Pooled leave-one-out materialization (see BootstrapAggregate).
            // thread_local: per-worker arena — same LIFO-lease ownership
            // argument as the bootstrap path above.
            thread_local SampleArena arena;
            const SampleArena::Lease lease = arena.Acquire(view.policy());
            view.MaterializeLeaveOneOutInto(excluded, lease.get());
            return estimator.EstimateImpact(*lease).corrected_sum;
          });
  std::vector<double> replicates;
  replicates.reserve(values.size());
  for (double value : values) {
    if (std::isfinite(value)) replicates.push_back(value);
  }
  interval.finite_replicates = static_cast<int>(replicates.size());
  if (replicates.size() < 2) return interval;

  const double l = static_cast<double>(replicates.size());
  const double mean = Mean(replicates);
  double ss = 0.0;
  for (double r : replicates) ss += (r - mean) * (r - mean);
  interval.standard_error = std::sqrt((l - 1.0) / l * ss);
  interval.lo = interval.point - z * interval.standard_error;
  interval.hi = interval.point + z * interval.standard_error;
  return interval;
}

}  // namespace uuq
