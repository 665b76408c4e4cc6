// Sample-coverage statistics (paper §3.1.1).
//
// The Good-Turing coverage estimate Ĉ = 1 − f1/n (Eq. 4) measures how much
// of the ground-truth probability mass the sample has touched; the squared
// coefficient-of-variation estimate γ̂² (Eq. 6) corrects for skew in the
// publicity distribution. Both feed the Chao92 estimator (Eq. 7), whose one
// expression, Chao92NhatLane, lives here with them.
#ifndef UUQ_STATS_COVERAGE_H_
#define UUQ_STATS_COVERAGE_H_

#include <limits>
#include <vector>

#include "stats/fstats.h"

namespace uuq {

/// Ĉ = 1 − f1/n (Eq. 4) clamped to [0, 1] by two compare blends (the
/// values std::clamp selects). n must be nonzero: a degenerate n == 0 lane
/// yields NaN, which the callers mask.
inline double CoverageLane(double nd, double f1d) {
  double cov = 1.0 - f1d / nd;
  cov = cov < 0.0 ? 0.0 : cov;
  return cov > 1.0 ? 1.0 : cov;
}

/// The one expression of the Eq. 4 → Eq. 6 → Eq. 7 chain: Ĉ, then
/// γ̂² = max{(c/Ĉ)·Σm(m−1)/(n(n−1)) − 1, 0}, then both N̂ forms
///   N̂_Chao92 = c/Ĉ + n(1−Ĉ)/Ĉ · γ̂²   and   N̂_GT = c/Ĉ
/// from the sufficient statistics (n, c, f1, Σm(m−1)) as doubles. c/Ĉ is
/// divided once and shared by γ̂² and both N̂ forms.
///
/// Branch-free: every conditional is a blend selecting among IEEE
/// expression results, so the batched side kernels (core/naive.cc,
/// core/frequency.cc) inline it into their vectorized loops, and the scalar
/// entry points (Chao92Nhat, GoodTuringNhat, SampleStats::Gamma2,
/// SquaredCvEstimate) are an empty-sample guard plus one call — one copy
/// of the chain, so the scalar and batched forms cannot drift apart by a
/// reassociation. The count inputs must be cast-exact (below 2^53).
///
///  * γ̂² is forced to 0 for n < 2 or Ĉ ≤ 0 (undefined there; Chao92 then
///    degenerates to the coverage estimator, the paper's treatment). The
///    n == 1 dispersion division produces a discarded NaN/inf.
///  * Both N̂ forms blend to +inf when Ĉ ≤ 0 (an all-singleton sample:
///    "the estimate goes to infinite ... due to division-by-zero", §3.3.1),
///    discarding the IEEE inf/NaN the base + skew sum produces there.
///  * n == 0 lanes carry NaN through every field; callers mask them.
struct Chao92Lane {
  double coverage = 0.0;           ///< Ĉ (Eq. 4), in [0, 1]
  double gamma2 = 0.0;             ///< γ̂² (Eq. 6); 0 when undefined
  double n_hat = 0.0;              ///< Chao92 N̂ (Eq. 7); +inf when Ĉ ≤ 0
  double good_turing_n_hat = 0.0;  ///< c/Ĉ (Eq. 10 form); +inf when Ĉ ≤ 0
};

inline Chao92Lane Chao92NhatLane(double nd, double cd, double f1d,
                                 double mm1d) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Chao92Lane out;
  out.coverage = CoverageLane(nd, f1d);
  const double cov = out.coverage;
  const double c_over_cov = cd / cov;
  const double dispersion = mm1d / (nd * (nd - 1.0));
  double gamma2 = c_over_cov * dispersion - 1.0;
  gamma2 = gamma2 > 0.0 ? gamma2 : 0.0;
  gamma2 = nd >= 2.0 ? gamma2 : 0.0;
  out.gamma2 = cov > 0.0 ? gamma2 : 0.0;
  out.n_hat = c_over_cov + nd * (1.0 - cov) / cov * out.gamma2;
  out.n_hat = cov <= 0.0 ? kInf : out.n_hat;
  out.good_turing_n_hat = cov <= 0.0 ? kInf : c_over_cov;
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
/// Ĉ ≥ 0.4 ("Chao92 is inaccurate with very low sample coverage"). Every
/// estimator's Estimate::coverage_ok and the advisor's default gate read it.
constexpr double kCoverageRecommendationThreshold = 0.4;
bool CoverageSufficient(const FrequencyStatistics& stats);

}  // namespace uuq

#endif  // UUQ_STATS_COVERAGE_H_
