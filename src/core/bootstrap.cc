#include "core/bootstrap.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>

#include "common/macros.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "stats/descriptive.h"

namespace uuq {

namespace {

/// Replicates evaluated per pool task: the ParallelFor dispatch and a
/// worker's warm ReplicateScratch/IndexScratch amortize across a block. The
/// engine caps the block so every pool worker gets at least ~4 tasks. Pure
/// scheduling: every replicate keeps its own pre-derived Rng stream and
/// result slot, so the block size never shows in the results.
constexpr int64_t kReplicateBlock = 8;

/// Sorts the finite replicate values into a percentile interval; `values`
/// (replicate order) becomes the interval's by_replicate.
BootstrapInterval PercentileInterval(double point, std::vector<double> values,
                                     double confidence) {
  BootstrapInterval interval;
  interval.point = point;
  interval.replicates.reserve(values.size());
  for (double value : values) {
    if (std::isfinite(value)) interval.replicates.push_back(value);
  }
  interval.by_replicate = std::move(values);
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
    const IntegratedSample& sample, const SampleView* pre_view, double point,
    const std::function<double(const ReplicateSample&)>& statistic,
    const BootstrapOptions& options) {
  UUQ_CHECK_MSG(options.replicates > 0, "need at least one replicate");
  UUQ_CHECK_MSG(options.confidence > 0.0 && options.confidence < 1.0,
                "confidence must be in (0,1)");
  UUQ_CHECK_MSG(statistic != nullptr, "no replicate statistic");

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
  // construction, the same sequence SplitStreams(B) derives, so a targeted
  // run that escalates in rounds sees the exact streams a fixed-B run
  // sees — the pilot is a bit-exact prefix of any larger budget.
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
  // Tasks claim blocks of kReplicateBlock consecutive replicates, capped so
  // a wide pool never starves: every worker gets ~4 tasks to claim (a
  // 16-thread pool with B=48 runs one replicate per task; the 1-thread hot
  // path keeps the full block).
  const auto run_range = [&](int64_t r_begin, int64_t r_end) {
    const int64_t count = r_end - r_begin;
    if (count <= 0) return;
    const int64_t per_worker_cap = std::max<int64_t>(
        1, count / (4 * static_cast<int64_t>(pool->num_threads())));
    const int64_t block = std::min(kReplicateBlock, per_worker_cap);
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
        // thread_local: worker-local replicate buffers — resting-state
        // scratch (sample_view.h) makes reuse across replicates, views,
        // and pools safe, and per-thread ownership keeps the warm path
        // allocation-free without any locking.
        thread_local ReplicateScratch scratch;
        thread_local ReplicateSample rep;
        view.DrawBootstrapSources(&rng, &scratch.draws());
        view.BuildReplicate(scratch.draws(), &scratch, &rep);
        values[static_cast<size_t>(b)] = statistic(rep);
      }
    });
  };

  // The one replicate loop (core/adaptive_budget.h): the stop rule picks
  // each round's target — the cap in one round for a fixed budget, pilot
  // then escalations for a precision target. Each round evaluates only the
  // NEW replicates [done, target): earlier slots keep their values, and
  // replicate b always runs on stream b, so the final `values` prefix is
  // bit-identical to a fixed-B run at B = done for any round schedule.
  AdaptiveBudgetReport report;
  int done = 0;
  for (;;) {
    const int target = NextReplicateTarget(
        values.data(), done, options.replicates, options.adaptive, &report);
    if (target <= done) break;
    ensure_streams(target);
    values.resize(static_cast<size_t>(target));
    run_range(done, target);
    if (!aborted.load(std::memory_order_relaxed)) {
      done = target;
      continue;
    }
    if (report.enabled) report.precision_degraded = true;
    if (done == 0) {
      // Cancelled inside the first round: no completed prefix exists.
      // Skipped slots hold meaningless zeros, so never take quantiles over
      // them: degrade to the same [point, point] shape as the
      // all-non-finite case and flag it.
      BootstrapInterval interval;
      interval.point = point;
      interval.lo = interval.hi = interval.median = point;
      interval.aborted = true;
      interval.adaptive = report;
      return interval;
    }
    // Cancelled mid-escalation: the completed prefix IS a full fixed-B run
    // at B = done (every slot written, same streams), so return its
    // interval — typed as precision degradation, not as an abort.
    values.resize(static_cast<size_t>(done));
    break;
  }
  BootstrapInterval interval =
      PercentileInterval(point, std::move(values), options.confidence);
  interval.adaptive = report;
  return interval;
}

bool ReplayBootstrap(double point, const std::vector<double>& by_replicate,
                     const BootstrapOptions& options, BootstrapInterval* out) {
  // The engine loop above with every round answered from the stored
  // prefix: the same stop-rule calls over the same values.
  AdaptiveBudgetReport report;
  int done = 0;
  for (;;) {
    const int target = NextReplicateTarget(
        by_replicate.data(), done, options.replicates, options.adaptive,
        &report);
    if (target <= done) break;
    if (static_cast<size_t>(target) > by_replicate.size()) return false;
    done = target;
  }
  *out = PercentileInterval(
      point,
      std::vector<double>(by_replicate.begin(), by_replicate.begin() + done),
      options.confidence);
  out->adaptive = report;
  return true;
}

BootstrapInterval BootstrapCorrectedSum(const IntegratedSample& sample,
                                        const SumEstimator& estimator,
                                        const BootstrapOptions& options,
                                        const SamplePrecomp* pre) {
  UUQ_CHECK_MSG(estimator.SupportsReplicates(),
                "estimator has no replicate path");
  const double point = estimator.EstimateImpact(sample, pre).corrected_sum;
  return BootstrapAggregate(
      sample, pre != nullptr ? pre->view : nullptr, point,
      [&estimator](const ReplicateSample& rep) {
        return estimator.EstimateReplicate(rep).corrected_sum;
      },
      options);
}

JackknifeInterval JackknifeCorrectedSum(const IntegratedSample& sample,
                                        const SumEstimator& estimator,
                                        double z, ThreadPool* pool,
                                        const SamplePrecomp* pre) {
  UUQ_CHECK_MSG(estimator.SupportsReplicates(),
                "estimator has no replicate path");
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
            // thread_local: worker-local LOO buffers (same resting-state
            // contract as the bootstrap path above).
            thread_local ReplicateScratch scratch;
            thread_local ReplicateSample rep;
            view.BuildLeaveOneOut(static_cast<int32_t>(i), &scratch, &rep);
            return estimator.EstimateReplicate(rep).corrected_sum;
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
