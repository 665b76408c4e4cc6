#include "core/avg.h"

#include <cmath>

#include "stats/coverage.h"

namespace uuq {

Estimate AvgEstimator::FromBuckets(
    const SampleStats& stats, const std::vector<ValueBucket>& buckets) const {
  Estimate est;
  est.estimator = name_;
  est.coverage_ok = stats.Coverage() >= kCoverageRecommendationThreshold;
  if (stats.empty()) {
    est.coverage_ok = false;
    return est;
  }
  const double observed_avg = stats.ValueMean();
  est.num_buckets = static_cast<int>(buckets.size());

  double corrected_total = 0.0;
  double corrected_count = 0.0;
  bool usable = !buckets.empty();
  for (const ValueBucket& b : buckets) {
    if (!std::isfinite(b.estimate.n_hat) || !std::isfinite(b.estimate.delta)) {
      usable = false;
      break;
    }
    corrected_total += b.stats.value_sum + b.estimate.delta;
    corrected_count += b.estimate.n_hat;
  }

  if (!usable || corrected_count <= 0.0) {
    // Degenerate: report the observed mean, flagged as non-finite estimate.
    est.corrected_sum = observed_avg;
    est.delta = 0.0;
    est.n_hat = static_cast<double>(stats.c);
    est.finite = false;
    return est;
  }

  est.corrected_sum = corrected_total / corrected_count;
  est.delta = est.corrected_sum - observed_avg;
  est.n_hat = corrected_count;
  est.missing_count = corrected_count - static_cast<double>(stats.c);
  est.finite = std::isfinite(est.corrected_sum);
  return est;
}

Estimate AvgEstimator::EstimateAvg(const IntegratedSample& sample) const {
  return FromBuckets(SampleStats::FromSample(sample),
                     bucket_->ComputeBuckets(sample));
}

Estimate AvgEstimator::EstimateAvg(const ReplicateSample& rep) const {
  return FromBuckets(SampleStats::FromReplicate(rep),
                     bucket_->ComputeBuckets(rep));
}

}  // namespace uuq
