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
  est.coverage_ok = stats.Coverage() >= 0.4;
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

double NaiveEstimator::DeltaFromStats(const SampleStats& stats) const {
  // Same expression/operation order as FromStats — bit-identical delta.
  if (stats.empty()) return 0.0;
  const double missing_count =
      Chao92Nhat(stats) - static_cast<double>(stats.c);
  return stats.ValueMean() * missing_count;
}

namespace {

/// The batched naive chain: one branch-free pass over the SoA columns, every
/// conditional of the scalar path rewritten as a value-equivalent blend (the
/// blends select among the SAME IEEE expression results, so each lane is
/// bit-identical to NormalizedAbsDelta(DeltaFromStats(stats))). The fused
/// coverage/γ²/N̂ chain itself lives in Chao92NhatLane (chao92.h — the one
/// shared copy); this adds the naive-specific tail:
///
///  * n == 0 → 0.0 (the empty-stats convention), blended last;
///  * the final NormalizedAbsDelta via |δ| ≤ DBL_MAX (NaN compares false →
///    +inf, matching the isfinite branch).
///
/// Cloned for AVX2: the chain is division-bound and the 4-wide vdivpd clone
/// roughly doubles its throughput; both clones run the identical IEEE
/// operations per lane, so results never depend on the dispatch (the file is compiled with -fno-trapping-math, which licenses
/// the if-conversion without changing any value).
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

// No control flow in the loop body: it would defeat the vectorizer's
// if-conversion.
UUQ_VECTOR_CLONES void NaiveBatchKernel(size_t size,
                                        const double* UUQ_RESTRICT n_col,
                                        const double* UUQ_RESTRICT c_col,
                                        const double* UUQ_RESTRICT f1_col,
                                        const double* UUQ_RESTRICT mm1_col,
                                        const double* UUQ_RESTRICT sum_col,
                                        double* UUQ_RESTRICT out) {
  for (size_t i = 0; i < size; ++i) {
    out[i] = NaiveLane(n_col[i], c_col[i], f1_col[i], mm1_col[i], sum_col[i]);
  }
}

}  // namespace

void NaiveEstimator::DeltaFromStatsBatch(const StatsBatchView& batch,
                                         double* out) const {
  NaiveBatchKernel(batch.size, batch.n, batch.c, batch.f1, batch.sum_mm1,
                   batch.value_sum, out);
}

}  // namespace uuq
