// The replicate-budget controller: one stop rule for every bootstrap budget.
//
// A fixed bootstrap budget (B=48 in the serving layer) is a guess: it
// wastes replicates on easy samples whose replicate ensemble settles in a
// dozen draws, and under-resolves hard ones. A precision target turns the
// replicate count into an SLO knob: run a pilot block, estimate the
// replicate spread, then stop early or escalate B in blocks until the
// replicate-mean Monte Carlo half-width meets a caller-specified ±ε at a
// confidence level, or the cap (BootstrapOptions::replicates) trips,
// reported as `precision_degraded`. A fixed budget is the same rule at
// ε = 0: run to the cap in one round.
//
// ONE RULE, TWO CALLERS. NextReplicateTarget is a pure function of the
// replicate values computed so far. The bootstrap engine's replicate loop
// calls it to decide how far to compute; ReplayBootstrap (bootstrap.h)
// calls it over a stored prefix of replicate values to decide whether a
// new request is already answered. Both walk the same schedule, so a
// replayed answer is the answer a fresh run would compute.
//
// WHAT ε BOUNDS. With replicate standard deviation s over B draws, the
// Monte Carlo standard error of the replicate mean is s/√B, so the stop
// test is z·s/√B ≤ ε (z the two-sided normal quantile of the confidence
// level) and the budget it implies is B* = ceil((z·s/ε)²) — the AIDB
// pilot-samples → variance-estimate → additional-samples shape; the
// rule jumps to B* (clamped to at least one escalation block) rather
// than creeping. ε is therefore a RESOLUTION target: it bounds the Monte
// Carlo noise the finite replicate budget adds, i.e. how precisely the B
// replicates pin down the center of the resampling distribution. It does
// NOT bound the reported percentile interval's half-width (≈ z·s): that
// width measures the data's own sampling variability and does not shrink
// as B grows — no replicate budget can narrow it.
//
// Determinism contract (pinned by tests/adaptive_budget_test.cc and the
// bench verify passes): replicate b always evaluates on the b-th
// `Rng::Split()` stream, whatever the round schedule, so the pilot is
// bit-identical to the first `pilot_replicates` of any larger run, and a
// targeted run that settles on budget B produces the byte-identical
// interval of a fixed-B run at that B — for every thread count and block
// size.
#ifndef UUQ_CORE_ADAPTIVE_BUDGET_H_
#define UUQ_CORE_ADAPTIVE_BUDGET_H_

namespace uuq {

/// The precision target behind a replicate budget. Carried on
/// `BootstrapOptions::adaptive`; the cap is `BootstrapOptions::replicates`.
struct AdaptiveBudgetOptions {
  /// Target Monte Carlo half-width: stop once z·s/√B — the resolution at
  /// which the B replicates pin down the replicate mean, NOT the reported
  /// percentile interval's width (header comment) — is ≤ epsilon. 0 means
  /// a fixed budget: run to the cap in one round. Must be >= 0; the stop
  /// rule CHECKs it.
  double epsilon = 0.0;
  /// Two-sided confidence level for the Monte Carlo half-width estimate.
  /// Values outside (0,1) fall back to 0.95 (NormalQuantile's contract)
  /// rather than CHECK, because this field can carry a request-supplied
  /// value (QueryService per-query `confidence`) and a request must never
  /// be able to abort the process.
  double confidence = 0.95;
  /// Pilot block size: replicates always run before the first stop test.
  int pilot_replicates = 16;
  /// Minimum escalation step. The rule may jump further (toward the
  /// variance-implied budget) but never by less than one block, so noisy
  /// half-width estimates cannot stall the loop in +1 increments.
  int escalation_block = 16;
};

/// What a targeted budget actually did — attached to `BootstrapInterval::
/// adaptive` so the serving layer can report `precision_degraded` and
/// telemetry (replicates used, escalations) without re-deriving anything.
/// Left at its defaults (enabled == false) for a fixed budget (ε = 0).
struct AdaptiveBudgetReport {
  bool enabled = false;
  /// The estimated Monte Carlo half-width (z·s/√B) met epsilon.
  bool target_met = false;
  /// The cap (or a deadline) stopped the loop before the target was met.
  /// Mutually exclusive with target_met.
  bool precision_degraded = false;
  /// Final budget: the interval equals a fixed-B run at exactly this B.
  int replicates_used = 0;
  int pilot_replicates = 0;
  /// Escalation rounds taken after the pilot (0 = pilot sufficed).
  int escalations = 0;
  /// The epsilon the loop ran against.
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

/// The stop rule. `values[0..done)` are the replicate values computed so
/// far, in replicate order, and `cap` is the hard budget. Returns the next
/// budget to compute up to (> done), or `done` to stop:
///  * ε = 0: the cap at done == 0, then stop; `report` is not touched.
///  * ε > 0: min(cap, pilot) at done == 0. Afterwards stop when
///    EstimatedHalfWidth ≤ ε (target_met), else stop at the cap
///    (precision_degraded), else jump to min(cap, max(PlannedReplicates,
///    done + escalation_block)) and count an escalation.
/// `report` accumulates the decisions; its replicates_used is `done` of
/// the last call. Pure apart from `report`: the same values give the same
/// schedule in the engine and in a replay over a stored prefix.
int NextReplicateTarget(const double* values, int done, int cap,
                        const AdaptiveBudgetOptions& budget,
                        AdaptiveBudgetReport* report);

}  // namespace uuq

#endif  // UUQ_CORE_ADAPTIVE_BUDGET_H_
