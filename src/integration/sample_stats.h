// SampleStats: the sufficient statistics every estimator consumes.
//
// SampleStats is deliberately a small closed-form scalar summary — n, c, f1,
// Σm(m−1), value sums — because (a) it is all the paper's formulas need and
// (b) it is additive, so the bucket estimator can evaluate value-range slices
// in O(1) from prefix sums.
//
// It lives beside the samples it summarizes: the columnar replicate build
// (integration/sample_view.h) folds a replicate's stats while it emits the
// replicate and carries them on it, so an estimator reads them instead of
// folding the replicate's entities a second time.
#ifndef UUQ_INTEGRATION_SAMPLE_STATS_H_
#define UUQ_INTEGRATION_SAMPLE_STATS_H_

#include <cstdint>

#include "common/bit_select.h"
#include "integration/sample.h"

namespace uuq {

struct ReplicateSample;

/// The per-entity state estimators actually consume: fused value and
/// multiplicity. (Keys and categories never enter the estimation math.)
struct EntityPoint {
  double value = 0.0;
  int64_t multiplicity = 0;
};

/// Sufficient statistics of a sample (or of a value-range slice of one).
struct SampleStats {
  int64_t n = 0;          ///< observations, duplicates included
  int64_t c = 0;          ///< distinct entities
  int64_t f1 = 0;         ///< singletons
  int64_t sum_mm1 = 0;    ///< Σ over entities of m·(m−1) == Σ i(i−1)f_i
  double value_sum = 0.0;      ///< φK over this slice
  double value_sum_sq = 0.0;   ///< Σ value² (for the §4 bound's σK)
  double singleton_sum = 0.0;  ///< φf1 over this slice

  /// Folds one entity in: the one fold behind every whole-sample, replicate
  /// and prefix-column statistic. Points with m <= 0 are skipped.
  ///
  /// The singleton terms take no branch on the singleton test, which is
  /// data-random: a non-singleton adds 0 to f1 and +0.0 to singleton_sum,
  /// and the value-or-zero choice is a BitSelect (common/bit_select.h; a
  /// ternary compiles to a jump around a `pxor`). Adding +0.0 changes a
  /// double only when it is −0.0, and singleton_sum is never −0.0: it
  /// starts at +0.0, and an IEEE sum (round to nearest) is −0.0 only when
  /// both addends are. So the fold has the bits of the guarded
  /// `if (m == 1)` form, NaN and ±inf values included (the select never
  /// multiplies a value by 0).
  void Add(const EntityPoint& point) {
    const int64_t m = point.multiplicity;
    if (m <= 0) return;
    const bool singleton = m == 1;
    n += m;
    c += 1;
    f1 += singleton;
    singleton_sum += BitSelect(singleton, point.value, 0.0);
    sum_mm1 += m * (m - 1);
    value_sum += point.value;
    value_sum_sq += point.value * point.value;
  }
  void Add(const EntityStat& entity) {
    Add(EntityPoint{entity.value, entity.multiplicity});
  }
  /// Component-wise merge of two disjoint slices.
  void Merge(const SampleStats& other);

  static SampleStats FromSample(const IntegratedSample& sample);
  /// Stats of a columnar replicate: the stats its build folded in
  /// first-touch entity order (the same fold FromSample runs on the
  /// materialized sample), or, for a hand-assembled replicate that carries
  /// none, the fold of its entities in their listed order.
  static SampleStats FromReplicate(const ReplicateSample& rep);

  /// Good-Turing coverage Ĉ = 1 − f1/n (Eq. 4); 0 when empty.
  double Coverage() const;
  /// Squared CV estimate γ̂² (Eq. 6); 0 when undefined.
  double Gamma2() const;
  /// Mean fused value over distinct entities (φK / c); 0 when empty.
  double ValueMean() const;
  /// Sample (n−1) standard deviation of fused values; 0 for c < 2.
  double ValueStdDev() const;

  bool empty() const { return n == 0; }
};

}  // namespace uuq

#endif  // UUQ_INTEGRATION_SAMPLE_STATS_H_
