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
  est.coverage_ok = stats.Coverage() >= kCoverageRecommendationThreshold;
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

namespace {

/// The frequency lane chain — the naive lane's structure (see naive.cc for
/// the blend-by-blend bit-identity argument; the shared chain is
/// Chao92NhatLane in stats/coverage.h) with the frequency estimator's two
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

// One loop per N̂ form and side: any control flow in the loop body defeats
// the vectorizer's if-conversion (see naive.cc).
template <bool kUniform, PrefixSideView::Side kSide>
struct FrequencySideKernel {
  template <int kWidth>
  UUQ_ALWAYS_INLINE static void Run(const PrefixSideView& side, double* out) {
    side_kernel::SideLaneLoop<kSide, FrequencyLane<kUniform>, kWidth>(
        side.size, side.n, side.c, side.f1, side.sum_mm1, side.singleton_sum,
        side.anchor, side.anchor.singleton_sum, out, side.fold);
  }
};

template <bool kUniform>
void FrequencySide(KernelIsa isa, const PrefixSideView& side, double* out) {
  if (side.side == PrefixSideView::Side::kLeft) {
    RunSideKernel<FrequencySideKernel<kUniform, PrefixSideView::Side::kLeft>>(
        isa, side, out);
  } else {
    RunSideKernel<
        FrequencySideKernel<kUniform, PrefixSideView::Side::kRight>>(
        isa, side, out);
  }
}

}  // namespace

void RunFrequencySideKernel(bool assume_uniform, KernelIsa isa,
                            const PrefixSideView& side, double* out) {
  if (assume_uniform) {
    FrequencySide<true>(isa, side, out);
  } else {
    FrequencySide<false>(isa, side, out);
  }
}

void FrequencyEstimator::DeltaFromPrefixSide(const PrefixSideView& side,
                                             double* out) const {
  RunFrequencySideKernel(assume_uniform_, RunnableKernelIsas().back(), side,
                         out);
}

}  // namespace uuq
