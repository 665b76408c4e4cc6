// AVG queries under unknown unknowns (paper §5).
//
// The observed mean is consistent by the law of large numbers UNLESS
// publicity and value are correlated, which biases the sample. The bucket
// correction weights per-bucket corrected totals by per-bucket N̂:
//
//   AVG ≈ Σ_b (φ_b + Δ_b) / Σ_b N̂_b
//
// i.e. the corrected SUM over the corrected COUNT, computed bucket-wise so
// the publicity-value correlation is contained within buckets.
#ifndef UUQ_CORE_AVG_H_
#define UUQ_CORE_AVG_H_

#include <memory>
#include <string>

#include "core/bucket.h"
#include "core/estimate.h"

namespace uuq {

class AvgEstimator {
 public:
  /// Defaults to the dynamic-bucket estimator (the paper's Figure 7 setup).
  AvgEstimator() : AvgEstimator(std::make_shared<BucketSumEstimator>()) {}
  explicit AvgEstimator(std::shared_ptr<const BucketSumEstimator> bucket)
      : bucket_(std::move(bucket)), name_("avg[" + bucket_->name() + "]") {}

  /// corrected_sum holds the corrected AVG; delta the adjustment vs the
  /// observed mean. Falls back to the observed mean (delta = 0, finite =
  /// false) when a bucket count estimate degenerates to infinity.
  Estimate EstimateAvg(const IntegratedSample& sample) const;

  /// Columnar replicate form (bootstrap intervals on corrected AVG): the
  /// bucket breakdown and the mean need only the replicate's value and
  /// multiplicity columns. Runs on the bucket estimator's per-thread
  /// replicate scratch, like the SUM replicate path.
  Estimate EstimateAvg(const ReplicateSample& rep) const;

  /// The corrected AVG of an already-computed partition: `buckets` must be
  /// this estimator's bucket breakdown of the sample whose stats are
  /// `stats` (QueryCorrector passes a snapshot's precomputed one).
  Estimate FromBuckets(const SampleStats& stats,
                       const std::vector<ValueBucket>& buckets) const;

 private:
  std::shared_ptr<const BucketSumEstimator> bucket_;
  std::string name_;  // cached: replicate paths stamp it per Estimate
};

}  // namespace uuq

#endif  // UUQ_CORE_AVG_H_
