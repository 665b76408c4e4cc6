#include "core/frequency.h"

#include <cmath>
#include <limits>

#include "common/macros.h"
#include "core/chao92.h"
#include "stats/coverage.h"

namespace uuq {

Estimate FrequencyEstimator::FromStats(const SampleStats& stats) const {
  Estimate est;
  est.estimator = name();
  est.coverage_ok = stats.Coverage() >= 0.4;
  if (stats.empty()) {
    est.coverage_ok = false;
    return est;
  }

  const double n_hat =
      assume_uniform_ ? GoodTuringNhat(stats) : Chao92Nhat(stats);
  est.n_hat = n_hat;
  est.missing_count = n_hat - static_cast<double>(stats.c);

  if (stats.f1 == 0) {
    // No singletons: Δ_freq = φf1·(...)/(n−f1) = 0 — the sample looks
    // complete to this estimator (missing_count is also 0 since Ĉ = 1 and
    // γ̂-correction is n·0/Ĉ·γ̂² = 0).
    est.missing_value = 0.0;
    est.delta = 0.0;
    est.corrected_sum = stats.value_sum;
    return est;
  }

  est.missing_value = stats.singleton_sum / static_cast<double>(stats.f1);
  est.delta = est.missing_value * est.missing_count;
  est.finite = std::isfinite(est.delta);
  est.corrected_sum = stats.value_sum + est.delta;
  return est;
}

double FrequencyEstimator::DeltaFromStats(const SampleStats& stats) const {
  // Same expression/operation order as FromStats — bit-identical delta.
  if (stats.empty() || stats.f1 == 0) return 0.0;
  const double n_hat =
      assume_uniform_ ? GoodTuringNhat(stats) : Chao92Nhat(stats);
  const double missing_count = n_hat - static_cast<double>(stats.c);
  const double missing_value =
      stats.singleton_sum / static_cast<double>(stats.f1);
  return missing_value * missing_count;
}

namespace {

/// The batched frequency chain — the naive kernel's structure (see
/// naive.cc for the blend-by-blend bit-identity argument; the shared fused
/// chain is Chao92NhatLane in chao92.h) with the frequency estimator's two
/// differences: the value proxy is φf1/f1 (f1 == 0 lanes blend to 0.0, the
/// "sample looks complete" convention) and `kUniform` selects the γ̂²-free
/// Good-Turing N̂ (the Eq. 10 form; the dead skew computation folds away at
/// compile time).
template <bool kUniform>
inline double FrequencyLane(double nd, double cd, double f1d, double mm1d,
                            double phi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMaxFinite = std::numeric_limits<double>::max();
  const Chao92Lane lane = Chao92NhatLane(nd, cd, f1d, mm1d);
  const double n_hat = kUniform ? lane.good_turing_n_hat : lane.n_hat;
  const double missing_count = n_hat - cd;
  const double missing_value = phi / f1d;
  double abs_delta = std::fabs(missing_value * missing_count);
  abs_delta = abs_delta <= kMaxFinite ? abs_delta : kInf;
  abs_delta = nd == 0.0 ? 0.0 : abs_delta;
  return f1d == 0.0 ? 0.0 : abs_delta;
}

// One loop per N̂ form: any control flow in the loop body defeats the
// vectorizer's if-conversion (see naive.cc).
template <bool kUniform>
UUQ_VECTOR_CLONES void FrequencyBatchKernel(
    size_t size, const double* UUQ_RESTRICT n_col,
    const double* UUQ_RESTRICT c_col, const double* UUQ_RESTRICT f1_col,
    const double* UUQ_RESTRICT mm1_col, const double* UUQ_RESTRICT phi_col,
    double* UUQ_RESTRICT out) {
  for (size_t i = 0; i < size; ++i) {
    out[i] = FrequencyLane<kUniform>(n_col[i], c_col[i], f1_col[i],
                                     mm1_col[i], phi_col[i]);
  }
}

}  // namespace

void FrequencyEstimator::DeltaFromStatsBatch(const StatsBatchView& batch,
                                             double* out) const {
  if (assume_uniform_) {
    FrequencyBatchKernel<true>(batch.size, batch.n, batch.c, batch.f1,
                               batch.sum_mm1, batch.singleton_sum, out);
  } else {
    FrequencyBatchKernel<false>(batch.size, batch.n, batch.c, batch.f1,
                                batch.sum_mm1, batch.singleton_sum, out);
  }
}

}  // namespace uuq
