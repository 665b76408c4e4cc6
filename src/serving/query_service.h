// Deadline-aware concurrent query serving over the correction engine.
//
// QueryService is the robustness front end over the offline path
// (sql_parser → predicate pushdown → aggregate → QueryCorrector). Every
// query runs on the artifact snapshot of its sample, built once at
// RegisterSample (sample_cache.h), and the service adds the three
// behaviours a production deployment needs when queries arrive faster than
// B bootstrap replicates can run:
//
//  * ADMISSION CONTROL — a bounded request queue. Submit() on a full queue
//    sheds the request immediately with kResourceExhausted instead of
//    letting latency grow without bound; nothing is ever silently dropped
//    after admission.
//
//  * COOPERATIVE CANCELLATION — every admitted query carries a CancelSource
//    armed with its deadline (common/cancel.h). The token is threaded into
//    the bootstrap loop (per replicate), the MC grid (per point), and the
//    dynamic split scan (per bucket), so an expired or cancelled query
//    aborts within roughly one replicate's latency — and because every
//    engine still joins its ParallelFor, no pool task ever outlives the
//    query or touches freed scratch.
//
//  * GRACEFUL DEGRADATION — the interval work is the expensive, optional
//    part. One mechanism decides how much of it a late query gets: the
//    budget walk (core/adaptive_budget.h) runs the interval in rounds — the
//    pilot, then blocks up to the cap (correction.bootstrap.replicates, or
//    adaptive_max_replicates for a precision-targeted query) — and a
//    deadline that expires inside it drops only the round it cut off. A run
//    that completed its first round keeps that completed prefix as its
//    interval, marked precision_degraded; a deadline inside the first round
//    degrades the result to point-only (kPointOnly; the point estimate is
//    already exact). A query whose REMAINING budget at dequeue (queueing
//    time already spent) is below min_interval_budget skips the interval
//    and is served point-only at once: a deadline cut ends a run only after
//    it has spent the query's budget, so only this check lets a worker that
//    is falling behind shed interval work. An uncut run is bit-identical to
//    the offline corrector run with the same options. A deadline that
//    expires during the point estimate itself fails the query with
//    kDeadlineExceeded. Caller cancellation surfaces as kCancelled.
//
// Failure semantics are typed, never exceptional: kResourceExhausted
// (shed), kDeadlineExceeded, kCancelled, kNotFound (unknown sample),
// kInvalidArgument (malformed precision target at Submit), plus the
// parser's own error codes. No request field can reach a process-aborting
// CHECK: request-supplied values are validated at admission. The
// deterministic FaultInjector (fault_injector.h) drives the chaos tests
// that pin this contract.
#ifndef UUQ_SERVING_QUERY_SERVICE_H_
#define UUQ_SERVING_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/query_correction.h"
#include "serving/fault_injector.h"
#include "serving/sample_cache.h"

namespace uuq {

/// Whether a served result lost its interval to its deadline (header
/// comment, GRACEFUL DEGRADATION).
enum class DegradeLevel : int {
  kNone = 0,       ///< the interval ran (or none was requested)
  kPointOnly = 1,  ///< point estimate only, interval dropped
};

const char* DegradeLevelName(DegradeLevel level);

struct ServingOptions {
  /// Serving worker threads (each runs one query at a time). The service
  /// CLAMPS this to `engine_threads`: each worker drives its engines on a
  /// PRIVATE ThreadPool slice and the slices sum to exactly engine_threads
  /// (thread_pool.h, POOL SHARING), so total live engine parallelism never
  /// exceeds the engine budget no matter how many workers are configured —
  /// a worker beyond that count could never hold a hardware thread anyway,
  /// it would only oversubscribe the box and inflate p99.
  int workers = 2;
  /// Total engine parallelism budget shared by all workers; 0 means
  /// ThreadPool::DefaultNumThreads() (the UUQ_THREADS contract). Slice
  /// sizing is pure scheduling — every engine is bit-identical at any
  /// thread count — so this knob never changes results.
  int engine_threads = 0;
  /// Admitted-but-not-finished requests beyond which Submit() sheds.
  int max_queue = 64;
  /// Deadline budget for requests that do not bring their own.
  std::chrono::nanoseconds default_deadline = std::chrono::milliseconds(1000);
  /// Below this budget remaining at dequeue a query that wants an interval
  /// is served point-only, marked kPointOnly; at or above it the interval
  /// walk runs until its deadline (header comment).
  std::chrono::nanoseconds min_interval_budget = std::chrono::milliseconds(50);
  /// Precision-targeted replicate budgets (core/adaptive_budget.h) for
  /// queries that carry a precision target (Submit's `epsilon`). A targeted
  /// query runs a pilot of `correction.bootstrap.adaptive.pilot_replicates`,
  /// then escalates in blocks of `correction.bootstrap.adaptive
  /// .escalation_block` until the replicate-mean Monte Carlo half-width
  /// z·s/√B meets ±epsilon or its cap trips (reported as
  /// ServedResult::precision_degraded). The cap is
  /// `adaptive_max_replicates`. Epsilon bounds the replicate budget's own
  /// Monte Carlo noise — the resolution at which B replicates pin down the
  /// corrected answer — not the reported percentile interval's width,
  /// which reflects the data's sampling variability and does not shrink
  /// with B (adaptive_budget.h, WHAT ε BOUNDS). The final answer is
  /// bit-identical to a fixed-budget run at the settled replicate count.
  int adaptive_max_replicates = 192;
  /// Base corrector configuration; its `bootstrap.replicates` defaults to
  /// 48 here. Per query the service overrides only: `cancel` (the query's
  /// token), `pool` (the worker's slice: every served query runs on it, so
  /// a `pool` set here is ignored), `attach_bootstrap`,
  /// `bootstrap.replicates` under a precision target
  /// (adaptive_max_replicates), `bootstrap.adaptive.{epsilon, confidence}`
  /// (the query's precision target), and `bootstrap.replicate_probe`
  /// (fault injection) — everything else, including every seed, is shared
  /// with the offline path, which is what makes uncut results
  /// bit-identical to it.
  QueryCorrector::Options correction = [] {
    QueryCorrector::Options options;
    options.bootstrap.replicates = 48;
    return options;
  }();
  /// nullptr → the process-wide FaultInjector::FromEnv() (inert unless the
  /// UUQ_FAULT_* env knobs are set).
  FaultInjector* faults = nullptr;
};

struct ServedResult {
  Status status;            ///< kOk when `answer` is valid
  CorrectedAnswer answer;   ///< meaningful only when status.ok()
  DegradeLevel degraded = DegradeLevel::kNone;
  int replicates_used = 0;  ///< bootstrap replicates behind the interval
  /// True when the interval is valid but resolved from fewer replicates
  /// than the request asked for: a precision target (epsilon) that the
  /// stop rule could not meet before its replicate cap or deadline, or a
  /// fixed budget that the deadline cut after its first round. Distinct
  /// from `degraded`, which says whether the interval was dropped. Which
  /// of cap or deadline stopped it is `answer.bootstrap.adaptive.stop`.
  bool precision_degraded = false;
  double queue_ms = 0.0;    ///< admission → dequeue
  double run_ms = 0.0;      ///< dequeue → completion
  uint64_t query_id = 0;
};

class QueryService {
 public:
  explicit QueryService(ServingOptions options);
  ~QueryService();  // Shutdown()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers (or replaces) a named sample; queries reference it by name.
  /// The sample's artifact snapshot is built HERE (once), and replacement
  /// atomically swaps it: queries already in flight keep the snapshot they
  /// pinned at admission (and finish bit-identical on it), new admissions
  /// see only the new sample.
  /// Replacing a sample with a meaningfully smaller one also requests a
  /// cooperative engine-scratch trim (common/scratch_metrics.h), so a
  /// long-lived server does not pin the largest-ever sample's scratch
  /// high-water forever.
  void RegisterSample(const std::string& name,
                      std::shared_ptr<const IntegratedSample> sample)
      UUQ_EXCLUDES(mu_);

  /// Handle to one admitted query.
  class Ticket {
   public:
    Ticket() = default;
    /// Blocks until the query finishes (idempotent). On a
    /// default-constructed Ticket (no query behind it) this returns a
    /// ServedResult with kFailedPrecondition instead of crashing.
    ServedResult Wait();
    /// Requests cooperative cancellation (kCancelled unless already done).
    /// No-op on a default-constructed Ticket.
    void Cancel();
    uint64_t id() const;

   private:
    friend class QueryService;
    struct State;
    std::shared_ptr<State> state_;
  };

  /// Admission: sheds with kResourceExhausted when the queue is full,
  /// kNotFound for an unregistered sample, kFailedPrecondition after
  /// Shutdown. `deadline_budget` <= 0 uses options.default_deadline; the
  /// deadline clock starts NOW (queueing time counts against it).
  /// `want_interval` false pins the query to the point-only level without
  /// marking it degraded. `epsilon` > 0 requests an adaptive replicate
  /// budget that stops once the replicate-mean Monte Carlo half-width
  /// meets ±epsilon at `confidence` (<= 0 uses the bootstrap confidence) —
  /// see ServingOptions::adaptive_max_replicates. Malformed targets
  /// (negative or non-finite epsilon, confidence >= 1 or NaN) are rejected
  /// HERE with kInvalidArgument: request fields are validated at admission
  /// so they can never reach an engine CHECK and abort the process.
  Result<Ticket> Submit(const std::string& sample_name, const std::string& sql,
                        std::chrono::nanoseconds deadline_budget =
                            std::chrono::nanoseconds(0),
                        bool want_interval = true, double epsilon = 0.0,
                        double confidence = 0.0) UUQ_EXCLUDES(mu_);

  /// Submit + Wait. Admission failures come back in ServedResult::status.
  ServedResult Execute(const std::string& sample_name, const std::string& sql,
                       std::chrono::nanoseconds deadline_budget =
                           std::chrono::nanoseconds(0),
                       bool want_interval = true, double epsilon = 0.0,
                       double confidence = 0.0);

  /// Monotonic counters since construction (plus two point-in-time gauges).
  struct Stats {
    int64_t admitted = 0;
    int64_t shed = 0;        ///< rejected at Submit (queue full)
    int64_t completed = 0;   ///< finished with kOk
    int64_t degraded = 0;    ///< finished kOk, degraded to point-only
    int64_t failed = 0;      ///< finished with any non-OK status
    /// Gauge: approximate bytes currently held by engine scratch
    /// process-wide (thread_local IndexScratch instances; see
    /// common/scratch_metrics.h). Falls after a smaller-sample replacement
    /// once the workers' next queries trigger the cooperative trim.
    int64_t resident_scratch_bytes = 0;
    /// Gauge: registered sample snapshots.
    int64_t cached_samples = 0;
  };
  Stats stats() const UUQ_EXCLUDES(mu_);

  /// Drains: pending queries finish with kCancelled, workers join.
  /// Idempotent; Submit afterwards returns kFailedPrecondition. The FIRST
  /// caller joins the workers; a concurrent second caller returns without
  /// waiting for the drain (the destructor's call is the definitive join).
  void Shutdown() UUQ_EXCLUDES(mu_);

 private:
  void WorkerLoop(ThreadPool* slice);
  ServedResult RunQuery(const std::shared_ptr<Ticket::State>& state,
                        ThreadPool* slice);
  static void Finish(const std::shared_ptr<Ticket::State>& state,
                     ServedResult result);

  const ServingOptions options_;
  FaultInjector* faults_;  // never null after construction

  mutable Mutex mu_;
  CondVar work_available_;
  std::deque<std::shared_ptr<Ticket::State>> queue_ UUQ_GUARDED_BY(mu_);
  /// Name → artifact snapshot. Entries are shared with the in-flight
  /// queries that pinned them at admission (sample_cache.h).
  std::map<std::string, std::shared_ptr<const SampleArtifacts>> samples_
      UUQ_GUARDED_BY(mu_);
  bool shutting_down_ UUQ_GUARDED_BY(mu_) = false;
  /// Dequeued but not finished (admission accounting).
  int in_flight_ UUQ_GUARDED_BY(mu_) = 0;
  uint64_t next_query_id_ UUQ_GUARDED_BY(mu_) = 1;
  Stats stats_ UUQ_GUARDED_BY(mu_);

  /// One private engine-pool slice per worker, sized so the slices sum to
  /// engine_threads (header comment on ServingOptions::workers). Declared
  /// before workers_ and destroyed after them — workers always outlive the
  /// pools they drive. Both vectors are filled by the constructor before
  /// any concurrency and drained only by Shutdown under mu_; the worker
  /// threads themselves never touch them (each holds a raw slice pointer).
  std::vector<std::unique_ptr<ThreadPool>> slice_pools_;
  std::vector<std::thread> workers_ UUQ_GUARDED_BY(mu_);
};

}  // namespace uuq

#endif  // UUQ_SERVING_QUERY_SERVICE_H_
