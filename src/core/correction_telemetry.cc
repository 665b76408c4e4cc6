#include "core/correction_telemetry.h"

#include <atomic>

#include "core/query_correction.h"

namespace uuq {
namespace {

// Relaxed-contract counters: pure monotone telemetry — nothing reads them
// to make a control decision, so fetch_add/load stay memory_order_relaxed
// (seq_cst here would put an mfence on every correction for no benefit).
// Tests that assert exact deltas quiesce the engines first, which the
// ParallelFor/worker joins order for free.
struct Counters {
  std::atomic<int64_t> corrections{0};
  std::atomic<int64_t> unconstrained_clamps{0};
  std::atomic<int64_t> low_coverage{0};
  std::atomic<int64_t> bootstrap_intervals{0};
  std::atomic<int64_t> bootstrap_abandoned{0};
};

Counters& GlobalCounters() {
  static Counters counters;
  return counters;
}

}  // namespace

CorrectionTelemetrySnapshot CorrectionTelemetrySnapshot::Since(
    const CorrectionTelemetrySnapshot& since) const {
  CorrectionTelemetrySnapshot delta;
  delta.corrections = corrections - since.corrections;
  delta.unconstrained_clamps =
      unconstrained_clamps - since.unconstrained_clamps;
  delta.low_coverage = low_coverage - since.low_coverage;
  delta.bootstrap_intervals = bootstrap_intervals - since.bootstrap_intervals;
  delta.bootstrap_abandoned = bootstrap_abandoned - since.bootstrap_abandoned;
  return delta;
}

CorrectionTelemetrySnapshot CorrectionTelemetry() {
  const Counters& counters = GlobalCounters();
  CorrectionTelemetrySnapshot snapshot;
  snapshot.corrections = counters.corrections.load(std::memory_order_relaxed);
  snapshot.unconstrained_clamps =
      counters.unconstrained_clamps.load(std::memory_order_relaxed);
  snapshot.low_coverage =
      counters.low_coverage.load(std::memory_order_relaxed);
  snapshot.bootstrap_intervals =
      counters.bootstrap_intervals.load(std::memory_order_relaxed);
  snapshot.bootstrap_abandoned =
      counters.bootstrap_abandoned.load(std::memory_order_relaxed);
  return snapshot;
}

namespace internal {

void RecordCorrection(const CorrectedAnswer& answer) {
  Counters& counters = GlobalCounters();
  counters.corrections.fetch_add(1, std::memory_order_relaxed);
  if (answer.unconstrained) {
    counters.unconstrained_clamps.fetch_add(1, std::memory_order_relaxed);
  }
  if (answer.advice.choice == EstimatorChoice::kCollectMoreData) {
    counters.low_coverage.fetch_add(1, std::memory_order_relaxed);
  }
  if (answer.bootstrap_valid) {
    counters.bootstrap_intervals.fetch_add(1, std::memory_order_relaxed);
  }
  if (!answer.bootstrap_valid &&
      answer.bootstrap.adaptive.stop == BudgetStop::kDeadline) {
    counters.bootstrap_abandoned.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace internal
}  // namespace uuq
