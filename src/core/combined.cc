#include "core/combined.h"

#include <cmath>

#include "stats/coverage.h"

namespace uuq {

Estimate MonteCarloBucketEstimator::EstimateImpact(
    const IntegratedSample& sample) const {
  Estimate est;
  est.estimator = name();
  const SampleStats whole = SampleStats::FromSample(sample);
  est.coverage_ok = whole.Coverage() >= kCoverageRecommendationThreshold;
  if (whole.empty()) {
    est.coverage_ok = false;
    return est;
  }

  const std::vector<ValueBucket> buckets =
      partition_source_.ComputeBuckets(sample);
  est.num_buckets = static_cast<int>(buckets.size());

  double delta = 0.0;
  double n_hat = 0.0;
  for (const ValueBucket& b : buckets) {
    // Re-derive the bucket's sub-sample with exact lineage so the MC
    // simulator sees the right per-source contributions.
    const double lo = b.lo, hi = b.hi;
    const IntegratedSample bucket_sample = sample.Filter(
        [lo, hi](const EntityStat& e) {
          return e.value >= lo && e.value <= hi;
        });
    const double bucket_n_hat = mc_.EstimateNhat(bucket_sample);
    const double missing =
        bucket_n_hat - static_cast<double>(b.stats.c);
    delta += b.stats.ValueMean() * missing;
    n_hat += bucket_n_hat;
  }
  est.delta = delta;
  est.n_hat = n_hat;
  est.missing_count = n_hat - static_cast<double>(whole.c);
  est.missing_value = est.missing_count > 0 ? delta / est.missing_count : 0.0;
  est.finite = std::isfinite(delta);
  est.corrected_sum = whole.value_sum + delta;
  return est;
}

}  // namespace uuq
