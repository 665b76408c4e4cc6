// Precision-targeted adaptive replicate budgets (pilot-then-refine).
//
// A fixed bootstrap budget (B=48 in the serving layer) is a guess: it
// wastes replicates on easy samples whose replicate ensemble settles in a
// dozen draws, and under-resolves hard ones. This module turns the
// replicate count into a precision SLO knob: run a pilot block, estimate
// the replicate spread, then stop early or escalate B in blocks until the
// replicate-mean Monte Carlo half-width meets a caller-specified ±ε at a
// confidence level — or a hard `max_replicates` / deadline cap trips,
// reported as `precision_degraded` alongside the serving degradation
// ladder.
//
// WHAT ε BOUNDS. With replicate standard deviation s over B draws, the
// Monte Carlo standard error of the replicate mean is s/√B, so the stop
// test is z·s/√B ≤ ε (z the two-sided normal quantile of the confidence
// level) and the budget it implies is B* = ceil((z·s/ε)²) — the AIDB
// pilot-samples → variance-estimate → additional-samples shape; the
// engine jumps to B* (clamped to at least one escalation block) rather
// than creeping. ε is therefore a RESOLUTION target: it bounds the Monte
// Carlo noise the finite replicate budget adds, i.e. how precisely the B
// replicates pin down the center of the resampling distribution. It does
// NOT bound the reported percentile interval's half-width (≈ z·s): that
// width measures the data's own sampling variability and does not shrink
// as B grows — no replicate budget can narrow it.
//
// Determinism contract (pinned by tests/adaptive_budget_test.cc and the
// bench verify passes): adaptive runs draw replicate streams incrementally
// from the same serial `Rng::Split()` derivation a fixed-B run uses, so
// the pilot is bit-identical to the first `pilot_replicates` of any larger
// run, and an adaptive run that lands on final budget B produces the
// byte-identical interval of a fixed-B run at that B — for every thread
// count and block size.
#ifndef UUQ_CORE_ADAPTIVE_BUDGET_H_
#define UUQ_CORE_ADAPTIVE_BUDGET_H_

namespace uuq {

/// Caller-facing knobs for the pilot-then-refine loop. Carried on
/// `BootstrapOptions::adaptive`; inert unless `enabled`.
struct AdaptiveBudgetOptions {
  /// Master switch. When off, the engine runs the classic fixed
  /// `BootstrapOptions::replicates` budget and every other field is ignored.
  bool enabled = false;
  /// Target Monte Carlo half-width: stop once z·s/√B — the resolution at
  /// which the B replicates pin down the replicate mean, NOT the reported
  /// percentile interval's width (header comment) — is ≤ epsilon. Must be
  /// > 0 when enabled (there is no meaningful "free" precision target);
  /// the engine CHECKs it.
  double epsilon = 0.0;
  /// Two-sided confidence level for the Monte Carlo half-width estimate.
  /// Values outside (0,1) fall back to 0.95 — the engine sanitizes rather
  /// than CHECKs, because this field can carry a request-supplied value
  /// (QueryService per-query `confidence`) and a request must never be
  /// able to abort the process.
  double confidence = 0.95;
  /// Pilot block size: replicates always run before the first stop test.
  int pilot_replicates = 16;
  /// Minimum escalation step. The planner may jump further (toward the
  /// variance-implied budget) but never by less than one block, so noisy
  /// half-width estimates cannot stall the loop in +1 increments.
  int escalation_block = 16;
  /// Hard budget cap. <= 0 means "use BootstrapOptions::replicates" as the
  /// cap. Hitting the cap without meeting epsilon reports
  /// `precision_degraded` (the answer is still the best available interval).
  int max_replicates = 0;
};

/// What the adaptive loop actually did — attached to `BootstrapInterval::
/// adaptive` so the serving layer can report `precision_degraded` and
/// telemetry (replicates used, escalations) without re-deriving anything.
struct AdaptiveBudgetReport {
  bool enabled = false;
  /// The estimated Monte Carlo half-width (z·s/√B) met epsilon.
  bool target_met = false;
  /// The cap (or a mid-escalation deadline) stopped the loop before the
  /// target was met. Mutually exclusive with target_met.
  bool precision_degraded = false;
  /// Final budget: the interval equals a fixed-B run at exactly this B.
  int replicates_used = 0;
  int pilot_replicates = 0;
  /// Escalation rounds taken after the pilot (0 = pilot sufficed).
  int escalations = 0;
  /// The epsilon the loop ran against (0 when disabled).
  double epsilon = 0.0;
  /// Last Monte Carlo half-width estimate z·s/√B (+inf when unestimable:
  /// < 2 finite values). Not the percentile interval's (hi-lo)/2.
  double half_width = 0.0;
};

/// Two-sided standard-normal quantile z with P(|Z| <= z) = confidence,
/// i.e. the inverse CDF at (1+confidence)/2. Acklam's rational
/// approximation (|relative error| < 1.15e-9 — far inside the noise of a
/// variance estimated from tens of replicates). Out-of-range confidence
/// falls back to 0.95. Pure function: bit-identical everywhere.
double NormalQuantile(double confidence);

/// Normal-approximation Monte Carlo half-width of the replicate mean:
/// z·sd/√k over the finite entries of values[0..count) — the adaptive
/// stop-test quantity (header comment). Returns +inf when fewer than two
/// finite values exist (nothing to estimate spread from) and 0 when the
/// finite values are all identical. Pure function of the value prefix.
double EstimatedHalfWidth(const double* values, int count, double confidence);

/// The AIDB-style additional-samples formula: the total budget B* =
/// ceil((z·sd/ε)²) implied by the current spread estimate. Returns `count`
/// (no growth signal) when the spread is unestimable or already zero, so
/// callers fall back to fixed-block escalation. Never returns < count.
int PlannedReplicates(const double* values, int count, double epsilon,
                      double confidence);

}  // namespace uuq

#endif  // UUQ_CORE_ADAPTIVE_BUDGET_H_
