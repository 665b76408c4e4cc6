// Sample-coverage statistics (paper §3.1.1).
//
// The Good-Turing coverage estimate Ĉ = 1 − f1/n (Eq. 4) measures how much
// of the ground-truth probability mass the sample has touched; the squared
// coefficient-of-variation estimate γ̂² (Eq. 6) corrects for skew in the
// publicity distribution. Both feed the Chao92 estimator in src/core.
#ifndef UUQ_STATS_COVERAGE_H_
#define UUQ_STATS_COVERAGE_H_

#include <algorithm>
#include <cstdint>

#include "stats/fstats.h"

namespace uuq {

/// One fused evaluation of the Eq. 4 / Eq. 6 chain from raw scalar
/// sufficient statistics (n, c, f1, Σm(m−1)) — the division-hoisted core
/// shared by `SampleStats::Coverage`/`Gamma2`, `Chao92Nhat`, and the
/// split-scan side kernels (`StatsSumEstimator::DeltaFromPrefixSide`).
///
/// The historical call chain divided by Ĉ twice with the SAME operands —
/// once for Chao92's c/Ĉ base term and once inside γ̂² — and recomputed Ĉ
/// itself per call. Hoisting computes each division exactly once; because a
/// repeated FP expression over identical operands is deterministic, every
/// field below is bit-identical to what the unfused two-call chain produced.
struct CoverageGammaChain {
  double coverage = 0.0;         ///< Ĉ = 1 − f1/n (Eq. 4), clamped to [0, 1]
  double c_over_coverage = 0.0;  ///< c/Ĉ (left 0 when Ĉ ≤ 0 or n == 0)
  double gamma2 = 0.0;           ///< γ̂² (Eq. 6); 0 when undefined
};

inline CoverageGammaChain FusedCoverageGamma(int64_t n, int64_t c, int64_t f1,
                                             int64_t sum_mm1) {
  CoverageGammaChain out;
  if (n == 0) return out;  // empty: nothing is covered
  out.coverage =
      std::clamp(1.0 - static_cast<double>(f1) / static_cast<double>(n), 0.0,
                 1.0);
  if (out.coverage <= 0.0) return out;  // all singletons: Ĉ = 0, γ̂² undefined
  out.c_over_coverage = static_cast<double>(c) / out.coverage;
  if (n >= 2) {
    const double dispersion = static_cast<double>(sum_mm1) /
                              (static_cast<double>(n) * (n - 1));
    out.gamma2 = std::max(out.c_over_coverage * dispersion - 1.0, 0.0);
  }
  return out;
}

/// Good-Turing sample coverage Ĉ = 1 − f1/n (Eq. 4). Returns 0 for an empty
/// sample (nothing is covered). Always in [0, 1].
double GoodTuringCoverage(const FrequencyStatistics& stats);

/// Estimated unknown-unknowns distribution mass M0 = 1 − Ĉ = f1/n.
double UnseenMass(const FrequencyStatistics& stats);

/// Squared coefficient of variation γ̂² (Eq. 6):
///   γ̂² = max{ (c/Ĉ) · Σ i(i−1)f_i / (n(n−1)) − 1 , 0 }.
/// Returns 0 when it is undefined (n < 2 or Ĉ = 0); Chao92 then degenerates
/// to the pure coverage estimator, matching the paper's treatment.
double SquaredCvEstimate(const FrequencyStatistics& stats);

/// True coefficient of variation γ (Eq. 5) of an explicit publicity vector;
/// used by tests and the simulator to label synthetic populations.
double ExactCv(const std::vector<double>& publicities);

/// The paper's §6.5 usability gate: estimates are recommended only once
/// Ĉ ≥ 0.4 ("Chao92 is inaccurate with very low sample coverage").
constexpr double kCoverageRecommendationThreshold = 0.4;
bool CoverageSufficient(const FrequencyStatistics& stats);

}  // namespace uuq

#endif  // UUQ_STATS_COVERAGE_H_
