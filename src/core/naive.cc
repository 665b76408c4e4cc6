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
/// Built per KernelIsa: the chain is division-bound and the 4-wide vdivpd
/// build roughly doubles its throughput; every build runs the identical IEEE
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
struct NaiveSideKernel {
  template <int kWidth>
  UUQ_ALWAYS_INLINE static void Run(const PrefixSideView& side, double* out) {
    side_kernel::SideLaneLoop<kSide, NaiveLane, kWidth>(
        side.size, side.n, side.c, side.f1, side.sum_mm1, side.value_sum,
        side.anchor, side.anchor.value_sum, out, side.fold);
  }
};

}  // namespace

void RunNaiveSideKernel(KernelIsa isa, const PrefixSideView& side,
                        double* out) {
  if (side.side == PrefixSideView::Side::kLeft) {
    RunSideKernel<NaiveSideKernel<PrefixSideView::Side::kLeft>>(isa, side,
                                                                out);
  } else {
    RunSideKernel<NaiveSideKernel<PrefixSideView::Side::kRight>>(isa, side,
                                                                 out);
  }
}

void NaiveEstimator::DeltaFromPrefixSide(const PrefixSideView& side,
                                         double* out) const {
  RunNaiveSideKernel(RunnableKernelIsas().back(), side, out);
}

}  // namespace uuq
