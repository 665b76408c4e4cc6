#include "core/estimate.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "stats/coverage.h"

namespace uuq {

void SampleStats::Merge(const SampleStats& other) {
  n += other.n;
  c += other.c;
  f1 += other.f1;
  sum_mm1 += other.sum_mm1;
  value_sum += other.value_sum;
  value_sum_sq += other.value_sum_sq;
  singleton_sum += other.singleton_sum;
}

SampleStats SampleStats::FromSample(const IntegratedSample& sample) {
  SampleStats stats;
  for (const EntityStat& e : sample.entities()) stats.Add(e);
  return stats;
}

SampleStats SampleStats::FromReplicate(const ReplicateSample& rep) {
  SampleStats stats;
  for (const EntityPoint& point : rep.entities) stats.Add(point);
  return stats;
}

namespace {

template <PrefixSideView::Side kSide>
void ScalarSide(const StatsSumEstimator& est, const PrefixSideView& side,
                double* out) {
  // Count differences are exact in double below 2^53 (PrefixRow), so the
  // int64 casts reproduce the slice's integer fields — the same
  // reconstruction SortedEntityIndex::Slice runs.
  const PrefixRow& a = side.anchor;
  for (size_t i = 0; i < side.size; ++i) {
    const double n = SideField<kSide>(side.n[i], a.n);
    if (n == 0.0) {
      out[i] = 0.0;
      continue;
    }
    SampleStats stats;
    stats.n = static_cast<int64_t>(n);
    stats.c = static_cast<int64_t>(SideField<kSide>(side.c[i], a.c));
    stats.f1 = static_cast<int64_t>(SideField<kSide>(side.f1[i], a.f1));
    stats.sum_mm1 =
        static_cast<int64_t>(SideField<kSide>(side.sum_mm1[i], a.sum_mm1));
    stats.value_sum = SideField<kSide>(side.value_sum[i], a.value_sum);
    stats.singleton_sum =
        SideField<kSide>(side.singleton_sum[i], a.singleton_sum);
    out[i] = NormalizedAbsDelta(est.DeltaFromStats(stats));
  }
}

}  // namespace

void StatsSumEstimator::DeltaFromPrefixSide(const PrefixSideView& side,
                                            double* out) const {
  // Semantics-defining fallback: the scalar chain per lane.
  if (side.side == PrefixSideView::Side::kLeft) {
    ScalarSide<PrefixSideView::Side::kLeft>(*this, side, out);
  } else {
    ScalarSide<PrefixSideView::Side::kRight>(*this, side, out);
  }
}

Estimate SumEstimator::EstimateReplicate(const ReplicateSample& rep) const {
  UUQ_UNUSED(rep);
  UUQ_CHECK_MSG(false,
                "estimator has no columnar replicate path; check "
                "SupportsReplicates()");
  return Estimate{};
}

double SampleStats::Coverage() const {
  // One division only — identical to FusedCoverageGamma's coverage field,
  // but callers that need just Ĉ (the per-bucket coverage_ok gate) should
  // not pay the chain's c/Ĉ and dispersion divisions.
  if (n == 0) return 0.0;
  return std::clamp(1.0 - static_cast<double>(f1) / static_cast<double>(n),
                    0.0, 1.0);
}

double SampleStats::Gamma2() const {
  // γ̂² consumes the whole chain, so the fused form wastes nothing here.
  return FusedCoverageGamma(n, c, f1, sum_mm1).gamma2;
}

double SampleStats::ValueMean() const {
  return c == 0 ? 0.0 : value_sum / static_cast<double>(c);
}

double SampleStats::ValueStdDev() const {
  if (c < 2) return 0.0;
  const double mean = ValueMean();
  // Guard tiny negative values from catastrophic cancellation.
  const double variance = std::max(
      (value_sum_sq - static_cast<double>(c) * mean * mean) /
          static_cast<double>(c - 1),
      0.0);
  return std::sqrt(variance);
}

}  // namespace uuq
