#include "serving/query_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/scratch_metrics.h"

namespace uuq {

const char* DegradeLevelName(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kNone:
      return "none";
    case DegradeLevel::kReducedReplicates:
      return "reduced-replicates";
    case DegradeLevel::kPointOnly:
      return "point-only";
  }
  return "unknown";
}

/// Shared between the submitting thread (Ticket) and the worker that runs
/// the query. The worker writes `result` exactly once under `mu` and flips
/// `done`; Wait() blocks on that. The CancelSource is the query's single
/// cancellation authority — armed with the deadline at admission, fired
/// early by Ticket::Cancel() or Shutdown().
struct QueryService::Ticket::State {
  // Immutable after admission.
  uint64_t id = 0;
  /// Artifact snapshot pinned AT ADMISSION; it also pins the sample.
  /// RegisterSample replacing the sample mid-flight cannot invalidate it:
  /// this query finishes — bit-identically — on the snapshot it started
  /// with, and the snapshot is freed when the last pin drops.
  std::shared_ptr<const SampleArtifacts> artifacts;
  std::string sql;
  bool want_interval = true;
  /// Precision target (> 0 requests an adaptive replicate budget; bounds
  /// the replicate-mean Monte Carlo half-width, adaptive_budget.h) and the
  /// confidence it is measured at (<= 0 → bootstrap default). Both are
  /// validated at Submit — only well-formed values are stored here.
  double epsilon = 0.0;
  double confidence = 0.0;
  std::chrono::steady_clock::time_point admitted{};
  CancelSource cancel;

  Mutex mu;
  CondVar done_cv;
  bool done UUQ_GUARDED_BY(mu) = false;
  ServedResult result UUQ_GUARDED_BY(mu);
};

ServedResult QueryService::Ticket::Wait() {
  // A default-constructed Ticket has no query behind it. The original
  // UUQ_CHECK here turned a recoverable caller mistake (waiting on a ticket
  // that was never assigned from Submit) into a process abort; a typed
  // failure matches the service's never-exceptional contract.
  if (state_ == nullptr) {
    ServedResult result;
    result.status = Status::FailedPrecondition(
        "Wait() on a default-constructed Ticket (no submitted query)");
    return result;
  }
  MutexLock lock(&state_->mu);
  while (!state_->done) state_->done_cv.Wait(lock);
  return state_->result;
}

void QueryService::Ticket::Cancel() {
  if (state_ != nullptr) state_->cancel.RequestCancel();
}

uint64_t QueryService::Ticket::id() const {
  return state_ != nullptr ? state_->id : 0;
}

QueryService::QueryService(ServingOptions options)
    : options_(std::move(options)),
      faults_(options_.faults != nullptr ? options_.faults
                                         : FaultInjector::FromEnv()) {
  // Pool multiplexing (thread_pool.h, POOL SHARING): clamp the worker count
  // to the engine budget and give every worker a private slice pool, sizing
  // the slices so they sum to exactly engine_threads. Each worker is its
  // slice's caller-participant, so a slice of k contributes exactly k live
  // engine threads — total live parallelism never exceeds the budget,
  // whatever `workers` was configured to.
  const int engine_threads = std::max(
      1, options_.engine_threads > 0 ? options_.engine_threads
                                     : ThreadPool::DefaultNumThreads());
  const int workers = std::min(std::max(1, options_.workers), engine_threads);
  const int base = engine_threads / workers;
  const int extra = engine_threads % workers;
  slice_pools_.reserve(static_cast<size_t>(workers));
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    slice_pools_.push_back(
        std::make_unique<ThreadPool>(base + (i < extra ? 1 : 0)));
    ThreadPool* slice = slice_pools_.back().get();
    workers_.emplace_back([this, slice] { WorkerLoop(slice); });
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::RegisterSample(
    const std::string& name, std::shared_ptr<const IntegratedSample> sample) {
  UUQ_CHECK(sample != nullptr);
  // Artifact construction (flatten + sort + partition + stats + advice)
  // runs OUTSIDE the service lock — registering a huge sample never stalls
  // admissions or workers. Only the map swap below happens under mu_.
  auto artifacts = std::make_shared<const SampleArtifacts>(
      std::move(sample), options_.correction.advisor);
  const size_t entities = artifacts->sample->entities().size();
  bool request_trim = false;
  {
    MutexLock lock(&mu_);
    const auto it = samples_.find(name);
    // Replacement by a smaller sample: the engines' thread_local scratches
    // still hold the old sample's high-water; ask them to release it at
    // next use (cooperative — see scratch_metrics.h).
    request_trim = it != samples_.end() &&
                   it->second->sample->entities().size() > entities;
    samples_[name] = std::move(artifacts);
  }
  if (request_trim) scratch::RequestTrim();
}

Result<QueryService::Ticket> QueryService::Submit(
    const std::string& sample_name, const std::string& sql,
    std::chrono::nanoseconds deadline_budget, bool want_interval,
    double epsilon, double confidence) {
  // Request-supplied precision targets are validated at the admission
  // boundary, as typed failures. Past this point the adaptive engine may
  // CHECK its configuration, so a malformed request value that slipped
  // through would abort the whole serving process — a request must never
  // be able to do that.
  if (!std::isfinite(epsilon) || epsilon < 0.0) {
    return Status::InvalidArgument(
        "precision target epsilon must be finite and >= 0 (0 = fixed "
        "replicate budget)");
  }
  if (!(confidence < 1.0)) {  // also rejects NaN
    return Status::InvalidArgument(
        "precision target confidence must be < 1 (<= 0 = bootstrap "
        "default)");
  }
  auto state = std::make_shared<Ticket::State>();
  state->sql = sql;
  state->want_interval = want_interval;
  state->epsilon = epsilon;
  state->confidence = confidence;
  {
    MutexLock lock(&mu_);
    if (shutting_down_) {
      return Status::FailedPrecondition("QueryService is shut down");
    }
    const auto it = samples_.find(sample_name);
    if (it == samples_.end()) {
      return Status::NotFound("no sample registered as '" + sample_name + "'");
    }
    // Load shedding: pending = queued + dequeued-but-running. Shedding at
    // admission keeps the tail bounded — a request the service cannot start
    // within its deadline is better rejected in microseconds than timed out
    // after the full budget.
    const int pending = static_cast<int>(queue_.size()) + in_flight_;
    if (pending >= std::max(1, options_.max_queue)) {
      ++stats_.shed;
      return Status::ResourceExhausted(
          "serving queue full (" + std::to_string(pending) + " pending)");
    }
    state->id = next_query_id_++;
    // Pin the snapshot now: a replacement after this point affects only
    // future admissions.
    state->artifacts = it->second;
    state->admitted = std::chrono::steady_clock::now();
    state->cancel.SetDeadlineAfter(deadline_budget.count() > 0
                                       ? deadline_budget
                                       : options_.default_deadline);
    queue_.push_back(state);
    ++stats_.admitted;
  }
  work_available_.NotifyOne();
  Ticket ticket;
  ticket.state_ = std::move(state);
  return ticket;
}

ServedResult QueryService::Execute(const std::string& sample_name,
                                   const std::string& sql,
                                   std::chrono::nanoseconds deadline_budget,
                                   bool want_interval, double epsilon,
                                   double confidence) {
  auto ticket = Submit(sample_name, sql, deadline_budget, want_interval,
                       epsilon, confidence);
  if (!ticket.ok()) {
    ServedResult shed;
    shed.status = ticket.status();
    return shed;
  }
  return ticket.value().Wait();
}

QueryService::Stats QueryService::stats() const {
  MutexLock lock(&mu_);
  Stats out = stats_;
  out.resident_scratch_bytes = scratch::ResidentBytes();
  out.cached_samples = static_cast<int64_t>(samples_.size());
  return out;
}

void QueryService::Shutdown() {
  std::deque<std::shared_ptr<Ticket::State>> orphaned;
  std::vector<std::thread> to_join;
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
    orphaned.swap(queue_);
    // Claiming the worker handles under the lock makes Shutdown safe to
    // race with itself (and with the destructor's call): exactly one caller
    // ends up joining each thread — the old unguarded loop let two
    // concurrent callers join the same std::thread, which is UB.
    to_join.swap(workers_);
  }
  work_available_.NotifyAll();
  // Queued-but-never-started queries resolve with kCancelled — after
  // admission nothing is silently dropped. Queries a worker already picked
  // up run to completion (their tokens still fire on deadline), which is
  // what lets join() below guarantee no engine work survives Shutdown.
  for (const auto& state : orphaned) {
    state->cancel.RequestCancel();
    ServedResult result;
    result.status = Status::Cancelled("service shut down before execution");
    result.query_id = state->id;
    Finish(state, std::move(result));
    MutexLock lock(&mu_);
    ++stats_.failed;
  }
  for (std::thread& worker : to_join) {
    if (worker.joinable()) worker.join();
  }
}

void QueryService::Finish(const std::shared_ptr<Ticket::State>& state,
                          ServedResult result) {
  {
    MutexLock lock(&state->mu);
    state->result = std::move(result);
    state->done = true;
  }
  state->done_cv.NotifyAll();
}

void QueryService::WorkerLoop(ThreadPool* slice) {
  for (;;) {
    std::shared_ptr<Ticket::State> state;
    {
      MutexLock lock(&mu_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(lock);
      if (queue_.empty()) return;  // shutting down and drained
      state = queue_.front();
      queue_.pop_front();
      ++in_flight_;
    }
    // Injected dequeue stall: models a descheduled/overloaded worker. It
    // burns the query's own budget, so its observable effect is more
    // degradation / deadline misses — exactly the production failure mode.
    faults_->MaybeStall(FaultSite::kQueueStall);

    ServedResult result = RunQuery(state, slice);
    result.query_id = state->id;
    {
      MutexLock lock(&mu_);
      --in_flight_;
      if (result.status.ok()) {
        ++stats_.completed;
        if (result.degraded != DegradeLevel::kNone) ++stats_.degraded;
      } else {
        ++stats_.failed;
      }
    }
    Finish(state, std::move(result));
  }
}

ServedResult QueryService::RunQuery(
    const std::shared_ptr<Ticket::State>& state, ThreadPool* slice) {
  ServedResult result;
  const auto started = std::chrono::steady_clock::now();
  result.queue_ms =
      std::chrono::duration<double, std::milli>(started - state->admitted)
          .count();
  const auto elapsed_ms = [&started] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - started)
        .count();
  };
  const CancelToken token = state->cancel.token();

  // Injected infrastructure faults, probed before any engine runs. Each
  // class surfaces as its documented typed status — never an exception,
  // never a crash.
  if (faults_->ShouldFire(FaultSite::kSourceLoad)) {
    result.status = Status::Unavailable(
        "injected fault: source load failed for query " +
        std::to_string(state->id));
    return result;
  }
  if (faults_->ShouldFire(FaultSite::kArenaAlloc)) {
    result.status = Status::ResourceExhausted(
        "injected fault: arena allocation failed for query " +
        std::to_string(state->id));
    return result;
  }

  // Pick the degradation level from the budget REMAINING now — queueing
  // already spent part of it. want_interval=false callers sit at the
  // point-only rung by choice, not degradation.
  const double remaining = token.SecondsRemaining();
  DegradeLevel level = DegradeLevel::kPointOnly;
  bool by_choice = !state->want_interval;
  if (!by_choice) {
    const double full_needed =
        std::chrono::duration<double>(options_.full_interval_budget).count();
    const double reduced_needed =
        std::chrono::duration<double>(options_.reduced_interval_budget)
            .count();
    if (remaining >= full_needed) {
      level = DegradeLevel::kNone;
    } else if (remaining >= reduced_needed) {
      level = DegradeLevel::kReducedReplicates;
    }
  }

  QueryCorrector::Options correction = options_.correction;
  correction.cancel = token;
  // Every engine this query drives — split scans, MC grid, bootstrap loop —
  // runs on this worker's private slice pool, never the process default:
  // that is what keeps concurrent queries inside the engine_threads budget.
  correction.pool = slice;
  // The ladder sets only the replicate cap; the stop rule
  // (core/adaptive_budget.h) decides how much of it a query runs, targeted
  // or not. A targeted query at the reduced rung runs the stop rule under
  // the reduced cap.
  correction.attach_bootstrap = level != DegradeLevel::kPointOnly;
  if (level == DegradeLevel::kReducedReplicates) {
    correction.bootstrap.replicates = options_.reduced_replicates;
  } else if (state->epsilon > 0.0) {
    correction.bootstrap.replicates = options_.adaptive_max_replicates;
  }
  correction.bootstrap.adaptive.epsilon = state->epsilon;
  correction.bootstrap.adaptive.confidence =
      state->confidence > 0.0 ? state->confidence
                              : correction.bootstrap.confidence;
  if (!faults_->inert()) {
    FaultInjector* faults = faults_;
    correction.bootstrap.replicate_probe = [faults](int64_t) {
      faults->MaybeStall(FaultSite::kSlowReplicate);
    };
  }

  // Answer memo (sample_cache.h): the whole computation is a deterministic
  // function of (snapshot, sql, budget) — the seeds are in the shared
  // options — so the memo answers from a prior run's point answer and
  // replicate prefix whenever this query's budget settles inside it. A miss
  // runs the full correction on the snapshot's precomputed artifacts (each
  // is a pure function of the snapshot, so the answer is bit-identical to
  // the offline corrector's) and stores its replicates. Injected replicate stalls only
  // sleep, they never change values, so even a faulted run's answer is the
  // canonical one.
  //
  // A precision-targeted interval still computes: it stores its prefix but
  // does not read the memo, although the replay supports it. Targeted hits
  // turn perfbench's targeted_50k into a ~30k queries/s memo loop, and
  // that benchmark's heap_in_use_mb counts its own per-query records, which
  // then outgrow the service's heap several times over. Reading the memo
  // here waits for that metric to measure the service alone.
  const SampleArtifacts& artifacts = *state->artifacts;
  const bool targeted_interval =
      correction.attach_bootstrap && state->epsilon > 0.0;
  if (targeted_interval ||
      !artifacts.LookupAnswer(state->sql, correction.attach_bootstrap,
                              correction.bootstrap, &result.answer)) {
    const auto pre = artifacts.precomp();
    auto answer =
        QueryCorrector(correction).CorrectSql(*artifacts.sample, state->sql,
                                              &pre);
    if (!answer.ok()) {
      result.status = answer.status();
      result.run_ms = elapsed_ms();
      return result;
    }
    result.answer = std::move(answer).value();
    artifacts.MemoizeAnswer(state->sql, result.answer);
  }
  result.run_ms = elapsed_ms();
  // The served fields, from the interval's one stop reason. A deadline that
  // fired inside the first round left the exact point estimate and no
  // interval: the on-the-fly point-only rung. A valid interval that stopped
  // at its cap or at the deadline before meeting its target is
  // precision-degraded.
  const BudgetStop stop = result.answer.bootstrap.adaptive.stop;
  result.degraded = by_choice ? DegradeLevel::kNone : level;
  if (stop == BudgetStop::kDeadline && !result.answer.bootstrap_valid) {
    result.degraded = DegradeLevel::kPointOnly;
  }
  if (result.answer.bootstrap_valid) {
    result.replicates_used =
        static_cast<int>(result.answer.bootstrap.by_replicate.size());
    result.precision_degraded =
        stop == BudgetStop::kCapReached || stop == BudgetStop::kDeadline;
  }
  return result;
}

}  // namespace uuq
