#include "core/minmax.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace uuq {

ExtremeEstimate MinMaxEstimator::FromBuckets(
    const std::vector<ValueBucket>& buckets, bool want_max) const {
  ExtremeEstimate out;
  if (buckets.empty()) return out;
  out.has_data = true;

  // Buckets come back in ascending value order.
  const ValueBucket& extreme = want_max ? buckets.back() : buckets.front();
  out.observed_extreme = want_max ? extreme.hi : extreme.lo;
  out.bucket_lo = extreme.lo;
  out.bucket_hi = extreme.hi;

  const double missing = extreme.estimate.missing_count;
  out.extreme_bucket_missing = std::isfinite(missing)
                                   ? std::max(missing, 0.0)
                                   : std::numeric_limits<double>::infinity();
  out.claim_true_extreme = out.extreme_bucket_missing < claim_threshold_;
  return out;
}

ExtremeEstimate MinMaxEstimator::EstimateMax(
    const IntegratedSample& sample) const {
  return FromBuckets(bucket_->ComputeBuckets(sample), /*want_max=*/true);
}

ExtremeEstimate MinMaxEstimator::EstimateMin(
    const IntegratedSample& sample) const {
  return FromBuckets(bucket_->ComputeBuckets(sample), /*want_max=*/false);
}

ExtremeEstimate MinMaxEstimator::EstimateMax(const ReplicateSample& rep) const {
  return FromBuckets(bucket_->ComputeBuckets(rep), /*want_max=*/true);
}

ExtremeEstimate MinMaxEstimator::EstimateMin(const ReplicateSample& rep) const {
  return FromBuckets(bucket_->ComputeBuckets(rep), /*want_max=*/false);
}

}  // namespace uuq
