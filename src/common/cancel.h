// Cooperative cancellation and deadlines.
//
// The serving layer (src/serving) runs queries with a wall-clock budget and
// lets callers abandon them; the long-running engines — the bootstrap
// replicate loop, the Monte-Carlo (θN, θλ) grid, the dynamic bucket split
// scan — must therefore be interruptible WITHOUT ever abandoning ThreadPool
// tasks mid-flight (a task killed while it holds thread_local scratch or a
// result-slot pointer would leave the pool poisoned for the next query).
//
// The model is purely cooperative:
//
//  * A `CancelSource` owns the shared cancellation state: an optional
//    steady-clock deadline plus an explicit cancel flag.
//  * A `CancelToken` is a cheap copyable view of that state. Engines poll
//    `token.Fired()` at natural task boundaries (one bootstrap replicate,
//    one MC grid point, one split-scan bucket) and, when it fires, finish
//    the current unit normally, skip the remaining ones, and return through
//    the ordinary join path. ParallelFor still waits for every claimed
//    index, so by the time a cancelled engine call returns, NO task of that
//    call is running anywhere — scratch reuse stays safe by construction.
//  * A default-constructed token is inert (never fires, costs one null
//    check) — the offline single-query path pays nothing and computes
//    bit-identical results, token or no token.
//
// Deadline expiry LATCHES: the first poll past the deadline promotes the
// state to kDeadlineExceeded, and every later poll is a single relaxed
// atomic load (no clock read). Explicit cancellation wins over a
// concurrently-expiring deadline only if its store lands first; either way
// the state never reverts and every observer agrees on the final reason.
#ifndef UUQ_COMMON_CANCEL_H_
#define UUQ_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/status.h"

namespace uuq {

namespace internal {
struct CancelShared {
  /// Sentinel for "no deadline armed".
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

  // 0 = live, else the terminal StatusCode (kCancelled / kDeadlineExceeded).
  // Relaxed everywhere: the latch is monotone (0 → terminal, via CAS whose
  // RMW atomicity alone guarantees exactly one winner), it carries no
  // payload other threads must observe, and engines only use it to SKIP
  // work — so no acquire/release edge is load-bearing. Every observer
  // agrees on the final reason because the CAS can only succeed once.
  std::atomic<int> reason{0};

  /// Deadline as steady_clock nanoseconds-since-epoch (kNoDeadline when
  /// unarmed). Atomic so SetDeadline can race with Fired()/
  /// SecondsRemaining() pollers on other threads without a data race — the
  /// pre-annotation layout (a plain bool + time_point pair) relied on a
  /// documented arm-before-poll convention that nothing enforced. Relaxed:
  /// a poller sees either kNoDeadline or one complete armed value (no
  /// tearing), and the terminal reason is still decided solely by the
  /// `reason` CAS.
  std::atomic<int64_t> deadline_ns{kNoDeadline};

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};
}  // namespace internal

/// Cheap copyable view of a CancelSource's state; see header comment.
class CancelToken {
 public:
  /// Inert token: Fired() is always false, reason() is kOk.
  CancelToken() = default;

  /// Polls the state: true once the source was cancelled or its deadline
  /// passed. The deadline check latches (at most one clock read per token
  /// family after expiry; thereafter a relaxed load).
  bool Fired() const {
    if (state_ == nullptr) return false;
    if (state_->reason.load(std::memory_order_relaxed) != 0) return true;
    const int64_t deadline =
        state_->deadline_ns.load(std::memory_order_relaxed);
    if (deadline != internal::CancelShared::kNoDeadline &&
        internal::CancelShared::NowNs() >= deadline) {
      // Racing an explicit RequestCancel: whichever CAS lands first decides
      // the terminal reason; the loser's store is dropped, so the state
      // never reverts and every observer agrees (CancelShared comment).
      int expected = 0;
      state_->reason.compare_exchange_strong(
          expected, static_cast<int>(StatusCode::kDeadlineExceeded),
          std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Terminal reason; kOk while live (does NOT poll the clock — call
  /// Fired() first when deadline latching matters).
  StatusCode reason() const {
    if (state_ == nullptr) return StatusCode::kOk;
    return static_cast<StatusCode>(
        state_->reason.load(std::memory_order_relaxed));
  }

  /// The fired token as a typed Status: Cancelled/DeadlineExceeded with
  /// `what` as context, or OK when live. Polls (latches a passed deadline).
  Status ToStatus(const std::string& what) const;

  /// Remaining wall-clock budget; infinity for no deadline, never negative.
  double SecondsRemaining() const;

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<internal::CancelShared> state)
      : state_(std::move(state)) {}
  std::shared_ptr<internal::CancelShared> state_;
};

/// Owner side: create one per query, hand token() to the engines.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<internal::CancelShared>()) {}

  /// Sets/overwrites the deadline. Safe to call while tokens are being
  /// polled from other threads (the deadline is a single atomic — a
  /// concurrent poller sees either the old value or the new one, never a
  /// torn mix); the serving layer arms it at admission, before the query
  /// runs.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    state_->deadline_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }
  void SetDeadlineAfter(std::chrono::nanoseconds budget) {
    SetDeadline(std::chrono::steady_clock::now() + budget);
  }

  /// Explicit cancellation (idempotent; loses against an already-latched
  /// deadline, which is the honest reason the engines saw).
  void RequestCancel() {
    int expected = 0;
    state_->reason.compare_exchange_strong(
        expected, static_cast<int>(StatusCode::kCancelled),
        std::memory_order_relaxed);
  }

  CancelToken token() const { return CancelToken(state_); }
  bool Fired() const { return token().Fired(); }

 private:
  std::shared_ptr<internal::CancelShared> state_;
};

}  // namespace uuq

#endif  // UUQ_COMMON_CANCEL_H_
