// Chao92 species-richness estimation (paper §3.1.1, Eq. 7) and the plain
// Good-Turing variant (γ̂² = 0).
//
//   N̂_Chao92 = c/Ĉ + n(1−Ĉ)/Ĉ · γ̂²
//
// Degenerate cases follow the paper's treatment: an empty sample estimates 0;
// a sample of only singletons (Ĉ = 0) estimates +infinity ("the estimate
// goes to infinite ... due to division-by-zero", §3.3.1).
#ifndef UUQ_CORE_CHAO92_H_
#define UUQ_CORE_CHAO92_H_

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/estimate.h"
#include "stats/fstats.h"

namespace uuq {

/// N̂ via Chao92 from scalar sufficient statistics.
double Chao92Nhat(const SampleStats& stats);

/// N̂ via Chao92 from full f-statistics (same value; convenience overload).
double Chao92Nhat(const FrequencyStatistics& fstats);

/// N̂ via the sample-coverage-only (Good-Turing) estimator c/Ĉ, i.e. Chao92
/// with γ̂² forced to 0 — converges for skewed publicities too, just slower
/// (§3.2).
double GoodTuringNhat(const SampleStats& stats);

/// Branch-free all-double lane form of the fused coverage/γ² chain + both
/// N̂ estimators — the ONE copy of the expression chain the batched kernels
/// (naive.cc / frequency.cc) inline into their vectorized loops. Every
/// conditional of the scalar path is a value-equivalent blend selecting
/// among the SAME IEEE expression results, so each lane is bit-identical to
/// FusedCoverageGamma + Chao92Nhat/GoodTuringNhat on cast-exact inputs:
///
///  * Ĉ clamped to [0, 1] via two compare blends (NaN from a degenerate
///    n == 0 lane just rides through — callers mask those lanes);
///  * γ̂² forced to 0 for n < 2 or Ĉ ≤ 0, exactly like FusedCoverageGamma
///    (the dispersion division for n == 1 produces a discarded NaN/inf);
///  * both N̂ forms blended to +inf when Ĉ ≤ 0 (the all-singleton
///    divergence), discarding the well-defined IEEE inf/NaN the fused
///    base+skew sum produces at Ĉ = 0.
///
/// Keeping this chain in one place is part of the bit-identity contract:
/// two hand-maintained copies could drift apart by a single reassociation
/// and silently break batch-vs-DeltaFromStats equality for one estimator
/// only (tests/delta_batch_test.cc would catch it; this makes it
/// unrepresentable).
struct Chao92Lane {
  double n_hat = 0.0;              ///< Chao92 N̂; +inf when Ĉ ≤ 0
  double good_turing_n_hat = 0.0;  ///< c/Ĉ (Eq. 10 form); +inf when Ĉ ≤ 0
};

inline Chao92Lane Chao92NhatLane(double nd, double cd, double f1d,
                                 double mm1d) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double cov = 1.0 - f1d / nd;
  cov = cov < 0.0 ? 0.0 : cov;
  cov = cov > 1.0 ? 1.0 : cov;
  const double c_over_cov = cd / cov;
  const double dispersion = mm1d / (nd * (nd - 1.0));
  double gamma2 = c_over_cov * dispersion - 1.0;
  gamma2 = gamma2 > 0.0 ? gamma2 : 0.0;
  gamma2 = nd >= 2.0 ? gamma2 : 0.0;
  gamma2 = cov > 0.0 ? gamma2 : 0.0;
  Chao92Lane out;
  out.n_hat = c_over_cov + nd * (1.0 - cov) / cov * gamma2;
  out.n_hat = cov <= 0.0 ? kInf : out.n_hat;
  out.good_turing_n_hat = cov <= 0.0 ? kInf : c_over_cov;
  return out;
}

}  // namespace uuq

#endif  // UUQ_CORE_CHAO92_H_
