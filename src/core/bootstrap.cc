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

/// Percentiles over the finite replicate values; `values` (replicate
/// order) becomes the interval's by_replicate.
BootstrapInterval PercentileInterval(double point, std::vector<double> values,
                                     double confidence) {
  BootstrapInterval interval;
  interval.point = point;
  std::vector<double> finite;
  finite.reserve(values.size());
  for (double value : values) {
    if (std::isfinite(value)) finite.push_back(value);
  }
  interval.by_replicate = std::move(values);
  interval.finite_replicates = static_cast<int>(finite.size());
  // No finite replicate (an estimator whose species formula diverges on
  // every resample, or a run cut off inside its first round): there is
  // nothing to take a quantile of, so degrade to the [point, point]
  // interval with finite_replicates == 0 (the caller's signal that the
  // interval carries no resampling information).
  if (finite.empty()) {
    interval.lo = interval.hi = interval.median = interval.point;
    return interval;
  }
  std::sort(finite.begin(), finite.end());
  const double alpha = (1.0 - confidence) / 2.0;
  interval.lo = Quantile(finite, alpha);
  interval.hi = Quantile(finite, 1.0 - alpha);
  interval.median = Quantile(finite, 0.5);
  return interval;
}

/// The one budget walk (core/adaptive_budget.h) behind BootstrapAggregate
/// and ReplayBootstrap: the stop rule picks each round's target, and
/// `extend(done, target)` makes values[done, target) available — the
/// engine computes them, the replay checks that its stored prefix holds
/// them. Returns the completed prefix: where the stop rule stopped, or
/// `done` when `extend` could not complete a round.
template <typename Extend>
int WalkBudget(const std::vector<double>& values,
               const BootstrapOptions& options, AdaptiveBudgetReport* report,
               const Extend& extend) {
  int done = 0;
  for (;;) {
    const int target = NextReplicateTarget(
        values.data(), done, options.replicates, options.adaptive, report);
    if (target <= done || !extend(done, target)) return done;
    done = target;
  }
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

  // Each round evaluates only the NEW replicates [done, target): earlier
  // slots keep their values, and replicate b always runs on stream b, so
  // the final prefix is bit-identical to a fixed-B run at B = done for any
  // round schedule. A round the token cut off is dropped: its skipped slots
  // hold meaningless zeros, and the completed prefix before it (empty
  // inside the first round) IS a full fixed run at its length.
  AdaptiveBudgetReport report;
  const int done =
      WalkBudget(values, options, &report, [&](int begin, int target) {
        ensure_streams(target);
        values.resize(static_cast<size_t>(target));
        run_range(begin, target);
        return !aborted.load(std::memory_order_relaxed);
      });
  if (aborted.load(std::memory_order_relaxed)) {
    report.stop = options.cancel.reason() == StatusCode::kCancelled
                      ? BudgetStop::kCancelled
                      : BudgetStop::kDeadline;
    values.resize(static_cast<size_t>(done));
  }
  BootstrapInterval interval =
      PercentileInterval(point, std::move(values), options.confidence);
  interval.adaptive = report;
  return interval;
}

bool ReplayBootstrap(double point, const std::vector<double>& by_replicate,
                     const BootstrapOptions& options, BootstrapInterval* out) {
  AdaptiveBudgetReport report;
  bool held = true;
  const int done =
      WalkBudget(by_replicate, options, &report, [&](int, int target) {
        held = static_cast<size_t>(target) <= by_replicate.size();
        return held;
      });
  if (!held) return false;
  *out = PercentileInterval(
      point,
      std::vector<double>(by_replicate.begin(), by_replicate.begin() + done),
      options.confidence);
  out->adaptive = report;
  return true;
}

BootstrapInterval BootstrapCorrectedSum(const IntegratedSample& sample,
                                        const SumEstimator& estimator,
                                        const BootstrapOptions& options) {
  UUQ_CHECK_MSG(estimator.SupportsReplicates(),
                "estimator has no replicate path");
  const double point = estimator.EstimateImpact(sample).corrected_sum;
  return BootstrapAggregate(
      sample, nullptr, point,
      [&estimator](const ReplicateSample& rep) {
        return estimator.EstimateReplicate(rep).corrected_sum;
      },
      options);
}

JackknifeInterval JackknifeCorrectedSum(const IntegratedSample& sample,
                                        const SumEstimator& estimator,
                                        double z, ThreadPool* pool) {
  UUQ_CHECK_MSG(estimator.SupportsReplicates(),
                "estimator has no replicate path");
  JackknifeInterval interval;
  interval.point = estimator.EstimateImpact(sample).corrected_sum;
  interval.sources = static_cast<int>(sample.num_sources());
  interval.lo = interval.hi = interval.point;
  // num_sources() <= 1 is structurally degenerate: with one source the only
  // leave-one-out replicate is the EMPTY sample (and with zero there are no
  // replicates at all), so running estimators over an empty view would just
  // manufacture meaningless zeros for the variance sum. Return the
  // degenerate [point, point] interval (finite_replicates == 0,
  // standard_error == 0) before any view or replicate machinery spins up.
  if (interval.sources < 2) return interval;

  const SampleView view(sample);

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
