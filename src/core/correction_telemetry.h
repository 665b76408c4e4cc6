// Process-wide counters over QueryCorrector outcomes — the clamp/coverage
// telemetry the accuracy trajectory reads (simulation/accuracy_matrix.h).
//
// The `unconstrained` clamp (query_correction.h) and the §6.5 low-coverage
// advice used to be per-answer flags only: visible to whoever held the
// CorrectedAnswer, invisible in aggregate. Treating the clamp as a
// first-class measured output (the accuracy matrix gates its frequency in
// CI) needs a counting surface that callers cannot forget to sample, so the
// correction layer increments these on every answer it produces.
//
// Counters are monotone process-lifetime totals on relaxed atomics (cheap
// enough for the serving hot path; cross-counter consistency is not needed —
// consumers diff two snapshots around the work they care about). They count
// PRODUCED answers only: corrections that fail with a typed status
// (cancellation, parse errors) increment nothing.
#ifndef UUQ_CORE_CORRECTION_TELEMETRY_H_
#define UUQ_CORE_CORRECTION_TELEMETRY_H_

#include <cstdint>

namespace uuq {

struct CorrectedAnswer;  // core/query_correction.h

/// One consistent-enough view of the counters (each field individually
/// exact; fields may straddle concurrent corrections).
struct CorrectionTelemetrySnapshot {
  int64_t corrections = 0;          ///< CorrectedAnswers produced
  int64_t unconstrained_clamps = 0; ///< answers with the unconstrained flag
  int64_t low_coverage = 0;         ///< advice said kCollectMoreData (Ĉ gate)
  int64_t bootstrap_intervals = 0;  ///< answers with bootstrap_valid
  /// Intervals whose deadline fired inside their first round (stop reason
  /// kDeadline, no completed prefix): the answer is point-only.
  int64_t bootstrap_abandoned = 0;

  /// Component-wise this − since (the "what did MY work do" helper: snapshot
  /// before, snapshot after, diff).
  CorrectionTelemetrySnapshot Since(
      const CorrectionTelemetrySnapshot& since) const;
};

/// Current totals.
CorrectionTelemetrySnapshot CorrectionTelemetry();

namespace internal {
/// Folds one produced answer into the counters. Called by QueryCorrector on
/// every success path; not part of the public API.
void RecordCorrection(const CorrectedAnswer& answer);
}  // namespace internal

}  // namespace uuq

#endif  // UUQ_CORE_CORRECTION_TELEMETRY_H_
