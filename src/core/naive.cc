#include "core/naive.h"

#include <cmath>
#include <limits>

#include "common/macros.h"
#include "core/chao92.h"
#include "stats/coverage.h"

namespace uuq {

Estimate NaiveEstimator::FromStats(const SampleStats& stats) const {
  Estimate est;
  est.estimator = name();
  est.coverage_ok = stats.Coverage() >= kCoverageRecommendationThreshold;
  if (stats.empty()) {
    est.coverage_ok = false;
    return est;
  }
  const double n_hat = Chao92Nhat(stats);
  est.n_hat = n_hat;
  est.missing_count = n_hat - static_cast<double>(stats.c);
  est.missing_value = stats.ValueMean();
  est.delta = est.missing_value * est.missing_count;
  est.finite = std::isfinite(est.delta);
  est.corrected_sum = stats.value_sum + est.delta;
  return est;
}

namespace {

/// The naive lane chain: one branch-free evaluation of one slice's stats,
/// every conditional of FromStats rewritten as a value-equivalent blend (the
/// blends select among the SAME IEEE expression results, so each lane is
/// bit-identical to NormalizedAbsDelta(FromStats(stats).delta)). The
/// coverage/γ²/N̂ chain is Chao92NhatLane (stats/coverage.h — the one copy,
/// which Chao92Nhat also calls); this adds the naive-specific tail:
///
///  * n == 0 → 0.0 (the empty-stats convention), blended last;
///  * the final NormalizedAbsDelta via |δ| ≤ DBL_MAX (NaN compares false →
///    +inf, matching the isfinite branch).
///
/// Cloned for AVX2: the chain is division-bound and the 4-wide vdivpd clone
/// roughly doubles its throughput; both clones run the identical IEEE
/// operations per lane, so results never depend on the dispatch (the file is
/// compiled with -fno-trapping-math, which licenses the if-conversion
/// without changing any value).
inline double NaiveLane(double nd, double cd, double f1d, double mm1d,
                        double sum) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMaxFinite = std::numeric_limits<double>::max();
  const double n_hat = Chao92NhatLane(nd, cd, f1d, mm1d).n_hat;
  const double missing = n_hat - cd;
  const double mean = cd == 0.0 ? 0.0 : sum / cd;
  double abs_delta = std::fabs(mean * missing);
  abs_delta = abs_delta <= kMaxFinite ? abs_delta : kInf;
  return nd == 0.0 ? 0.0 : abs_delta;
}

// One kernel per side: any control flow in the loop body would defeat the
// vectorizer's if-conversion. Lane i reads row i of every column — a
// contiguous stream, no gather — and subtracts the anchor row first
// (PrefixSideView).
template <PrefixSideView::Side kSide>
UUQ_VECTOR_CLONES void NaiveSideKernel(size_t size,
                                       const double* UUQ_RESTRICT n_col,
                                       const double* UUQ_RESTRICT c_col,
                                       const double* UUQ_RESTRICT f1_col,
                                       const double* UUQ_RESTRICT mm1_col,
                                       const double* UUQ_RESTRICT sum_col,
                                       PrefixRow a, double* UUQ_RESTRICT out) {
  for (size_t i = 0; i < size; ++i) {
    out[i] = NaiveLane(SideField<kSide>(n_col[i], a.n),
                       SideField<kSide>(c_col[i], a.c),
                       SideField<kSide>(f1_col[i], a.f1),
                       SideField<kSide>(mm1_col[i], a.sum_mm1),
                       SideField<kSide>(sum_col[i], a.value_sum));
  }
}

}  // namespace

void NaiveEstimator::DeltaFromPrefixSide(const PrefixSideView& side,
                                         double* out) const {
  if (side.side == PrefixSideView::Side::kLeft) {
    NaiveSideKernel<PrefixSideView::Side::kLeft>(
        side.size, side.n, side.c, side.f1, side.sum_mm1, side.value_sum,
        side.anchor, out);
  } else {
    NaiveSideKernel<PrefixSideView::Side::kRight>(
        side.size, side.n, side.c, side.f1, side.sum_mm1, side.value_sum,
        side.anchor, out);
  }
}

}  // namespace uuq
