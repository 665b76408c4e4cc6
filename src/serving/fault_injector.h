// Deterministic, seeded fault injection for the serving layer.
//
// Robustness claims are only testable if failures can be produced on
// demand and REPRODUCED exactly. This injector models the serving stack's
// failure surface as a small set of named sites; whether probe k of site s
// fires is a pure function of (seed, s, k) — a per-site atomic counter
// indexes into a SplitMix-style hash stream — so a fault schedule depends
// only on the seed and the order of probes at each site, never on timing,
// thread interleaving across sites, or what other sites did. Re-running a
// failing seed replays the exact same schedule.
//
// Sites (README "Serving & failure semantics"); each burns the query's own
// budget, so it surfaces as a deadline cut or kDeadlineExceeded:
//   slow_replicate — one bootstrap replicate stalls for
//                    `delay` (BootstrapOptions::replicate_probe)
//   queue_stall    — the worker stalls for `delay` at dequeue
//
// Configuration comes from two env knobs read once per process:
//   UUQ_FAULT_SEED  — uint64 schedule seed (default 0 — still deterministic)
//   UUQ_FAULT_SPEC  — comma list of site=probability[:delay], e.g.
//                     "slow_replicate=0.05:2ms,queue_stall=0.01:500us"
// Unset/empty UUQ_FAULT_SPEC means a fully inert injector (every probe is
// one relaxed load). Delays accept ns/us/ms/s suffixes (default ms).
#ifndef UUQ_SERVING_FAULT_INJECTOR_H_
#define UUQ_SERVING_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace uuq {

enum class FaultSite : int {
  kSlowReplicate = 0,
  kQueueStall,
};
inline constexpr int kNumFaultSites = 2;

const char* FaultSiteName(FaultSite site);

/// Per-site configuration: fire probability and how long a fired probe
/// sleeps.
struct FaultSpec {
  double probability = 0.0;
  std::chrono::nanoseconds delay{0};
};

class FaultInjector {
 public:
  /// Inert injector: no site ever fires.
  FaultInjector() : FaultInjector(0, {}) {}
  FaultInjector(uint64_t seed, std::array<FaultSpec, kNumFaultSites> specs)
      : seed_(seed), specs_(specs) {
    // Relaxed: construction publishes the injector to other threads through
    // whatever hands them the pointer (Result copy, the FromEnv static init,
    // a ThreadPool task queue) — never through these counters themselves.
    for (auto& counter : counters_) {
      counter.store(0, std::memory_order_relaxed);
    }
  }
  /// Copyable so Parse can hand one back through Result; the atomics'
  /// snapshots carry over (a copy continues the original's probe schedule).
  FaultInjector(const FaultInjector& other)
      : seed_(other.seed_), specs_(other.specs_) {
    for (size_t i = 0; i < static_cast<size_t>(kNumFaultSites); ++i) {
      counters_[i].store(other.counters_[i].load(std::memory_order_relaxed));
      fired_[i].store(other.fired_[i].load(std::memory_order_relaxed));
    }
  }

  /// Parses "site=prob[:delay],..." into an injector. Unknown sites,
  /// probabilities outside [0, 1], and malformed delays are errors; an
  /// empty spec yields the inert injector.
  static Result<FaultInjector> Parse(uint64_t seed, const std::string& spec);

  /// The process-wide injector configured from UUQ_FAULT_SEED /
  /// UUQ_FAULT_SPEC, built on first use (aborts on a malformed spec —
  /// a chaos run with a typo must not silently test nothing). Inert when
  /// the spec env is unset.
  static FaultInjector* FromEnv();

  /// One probe at `site`: deterministically decides from (seed, site,
  /// per-site probe counter) whether this probe fires. Thread-safe; the
  /// counter gives every probe of a site a distinct decision.
  bool ShouldFire(FaultSite site);

  /// The configured stall for `site` (zero when none).
  std::chrono::nanoseconds delay(FaultSite site) const {
    return specs_[static_cast<size_t>(site)].delay;
  }

  /// Probe + sleep: sleeps `delay` when the probe fires and returns whether
  /// it did.
  bool MaybeStall(FaultSite site);

  /// True when no site can ever fire (fast path for callers that want to
  /// skip probe bookkeeping entirely).
  bool inert() const {
    for (const FaultSpec& spec : specs_) {
      if (spec.probability > 0.0) return false;
    }
    return true;
  }

  /// Probes fired per site so far (test/bench introspection).
  int64_t fired_count(FaultSite site) const {
    return fired_[static_cast<size_t>(site)].load(std::memory_order_relaxed);
  }

 private:
  uint64_t seed_ = 0;
  std::array<FaultSpec, kNumFaultSites> specs_{};
  std::array<std::atomic<int64_t>, kNumFaultSites> counters_{};
  std::array<std::atomic<int64_t>, kNumFaultSites> fired_{};
};

}  // namespace uuq

#endif  // UUQ_SERVING_FAULT_INJECTOR_H_
