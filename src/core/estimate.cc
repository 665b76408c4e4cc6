#include "core/estimate.h"

#include "common/macros.h"

namespace uuq {

Estimate SumEstimator::EstimateReplicate(const ReplicateSample& rep) const {
  UUQ_UNUSED(rep);
  UUQ_CHECK_MSG(false,
                "estimator has no columnar replicate path; check "
                "SupportsReplicates()");
  return Estimate{};
}

}  // namespace uuq
