// Estimator currency types: Estimate (what every estimator produces), the
// prefix-row and side-view types of the split-scan kernels, and the
// estimator interfaces. Their input, SampleStats (the sufficient statistics
// every estimator consumes), is defined in integration/sample_stats.h.
#ifndef UUQ_CORE_ESTIMATE_H_
#define UUQ_CORE_ESTIMATE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "integration/sample.h"
#include "integration/sample_stats.h"
#include "integration/sample_view.h"
#include "stats/fstats.h"

namespace uuq {

/// One row of the prefix-sum columns: the running sums of the fields the
/// closed-form Δ expressions read (value_sum_sq is deliberately absent — no
/// inner estimator's Δ reads it). Count fields hold `static_cast<double>` of
/// the int64 running sum, exact below 2^53 (a ~9·10^15-observation sample),
/// so a difference of two rows is exactly the slice's field.
struct PrefixRow {
  double n = 0.0;
  double c = 0.0;
  double f1 = 0.0;
  double sum_mm1 = 0.0;
  double value_sum = 0.0;
  double singleton_sum = 0.0;
};

/// One side of a split scan — the currency of the side kernel
/// (`StatsSumEstimator::DeltaFromPrefixSide`). Lane i is the slice between
/// prefix row i of the columns and the fixed `anchor` row:
///   kLeft:  stats_i = column[i] − anchor   (slice [anchor, cut_i))
///   kRight: stats_i = anchor − column[i]   (slice [cut_i, anchor))
/// one IEEE subtraction per field, the same one SortedEntityIndex::Slice
/// runs, so lane i's stats are exactly the slice's.
///
/// ALL columns are doubles — including the count fields — so the kernels
/// are single-type, branch-free, auto-vectorizable loops over contiguous
/// columns. All pointers must address at least `size` elements; the view
/// does not own them (the dynamic partitioner points them into its
/// cut-space PartitionScratch columns).
struct PrefixSideView {
  enum class Side { kLeft, kRight };

  size_t size = 0;
  const double* n = nullptr;
  const double* c = nullptr;
  const double* f1 = nullptr;
  const double* sum_mm1 = nullptr;
  const double* value_sum = nullptr;
  const double* singleton_sum = nullptr;
  PrefixRow anchor;
  Side side = Side::kLeft;
};

/// One lane field of a side: the subtraction PrefixSideView defines.
template <PrefixSideView::Side kSide>
inline double SideField(double column, double anchor) {
  return kSide == PrefixSideView::Side::kLeft ? column - anchor
                                              : anchor - column;
}

/// The split scan's |Δ| normalization: fabs for finite deltas, +infinity for
/// non-finite ones (singleton-only slices must never look attractive to the
/// split search). The side kernels' contract is stated through it.
inline double NormalizedAbsDelta(double delta) {
  if (!std::isfinite(delta)) {
    return std::numeric_limits<double>::infinity();
  }
  return std::fabs(delta);
}

/// What an estimator returns. delta is the paper's Δ̂; the corrected answer
/// is φK + Δ̂ (Eq. 2).
struct Estimate {
  std::string estimator;       ///< producing estimator's name
  double delta = 0.0;          ///< Δ̂(S)
  double corrected_sum = 0.0;  ///< φK + Δ̂
  double n_hat = 0.0;          ///< N̂ (estimated ground-truth distinct count)
  double missing_count = 0.0;  ///< N̂ − c
  double missing_value = 0.0;  ///< per-missing-item value estimate
  bool finite = true;          ///< false when the formula degenerated (n = f1)
  bool coverage_ok = true;     ///< Ĉ ≥ kCoverageRecommendationThreshold (§6.5)
  int num_buckets = 1;         ///< buckets used (1 for non-bucket estimators)
};

/// Estimators of the unknown-unknowns impact Δ on a SUM query.
class SumEstimator {
 public:
  virtual ~SumEstimator() = default;
  virtual std::string name() const = 0;
  virtual Estimate EstimateImpact(const IntegratedSample& sample) const = 0;

  /// Columnar replicate evaluation — the bootstrap/jackknife hot path. An
  /// estimator that returns true from SupportsReplicates() must make
  /// EstimateReplicate(rep) produce the same Estimate that EstimateImpact
  /// would produce on the materialized IntegratedSample of the same draws
  /// (bit-identical for every fusion policy, kMajority included; see
  /// sample_view.h). The bootstrap and jackknife require it: there is no
  /// materializing fallback.
  virtual bool SupportsReplicates() const { return false; }
  /// Aborts unless SupportsReplicates() — callers must check first.
  virtual Estimate EstimateReplicate(const ReplicateSample& rep) const;
};

/// Estimators whose math needs only SampleStats (naive, frequency). The
/// bucket estimator runs these on value-range slices.
class StatsSumEstimator : public SumEstimator {
 public:
  /// The estimator's definition: its Δ̂ and the rest of the Estimate. The
  /// bucket estimator evaluates it once per bucket and reads the partition
  /// root's |Δ| as NormalizedAbsDelta(FromStats(root).delta).
  ///
  /// CONTRACT: a pure deterministic function of `stats` — the dynamic
  /// partitioner MEMOIZES the |Δ| values it computed for a parent bucket's
  /// candidate slices and reuses them verbatim in the child scans
  /// (bucket.h), so a stateful or input-order-sensitive implementation
  /// would silently break the memoized-vs-fresh bit-identity guarantee.
  virtual Estimate FromStats(const SampleStats& stats) const = 0;

  /// |Δ| of one side of a split scan — the scan's hot kernel. One call
  /// evaluates every candidate's left or right slice in a single pass over
  /// contiguous prefix columns: each lane subtracts the anchor row and runs
  /// the Δ chain (auto-vectorizable; no gather, no virtual dispatch per
  /// lane).
  ///
  /// CONTRACT: for every lane i, out[i] must be the NORMALIZED |Δ| of lane
  /// i's stats (PrefixSideView) — exactly
  /// NormalizedAbsDelta(FromStats(stats_i).delta), with 0.0 for empty
  /// stats (n == 0) — bit-identical to the scalar definition, and as pure
  /// as FromStats.
  virtual void DeltaFromPrefixSide(const PrefixSideView& side,
                                   double* out) const = 0;

  // Sample and replicate entry points: FromStats of the folded stats.
  Estimate EstimateImpact(const IntegratedSample& sample) const final {
    return FromStats(SampleStats::FromSample(sample));
  }
  bool SupportsReplicates() const final { return true; }
  Estimate EstimateReplicate(const ReplicateSample& rep) const final {
    return FromStats(SampleStats::FromReplicate(rep));
  }
};

}  // namespace uuq

#endif  // UUQ_CORE_ESTIMATE_H_
