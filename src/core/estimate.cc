#include "core/estimate.h"

#include "common/macros.h"

namespace uuq {

const std::vector<KernelIsa>& RunnableKernelIsas() {
  static const std::vector<KernelIsa> isas = [] {
    std::vector<KernelIsa> runnable = {KernelIsa::kBaseline};
#if defined(UUQ_KERNEL_BUILDS_X86)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) runnable.push_back(KernelIsa::kAvx2);
    if (__builtin_cpu_supports("avx512f")) {
      runnable.push_back(KernelIsa::kAvx512f);
    }
#endif
    return runnable;
  }();
  return isas;
}

Estimate SumEstimator::EstimateReplicate(const ReplicateSample& rep) const {
  UUQ_UNUSED(rep);
  UUQ_CHECK_MSG(false,
                "estimator has no columnar replicate path; check "
                "SupportsReplicates()");
  return Estimate{};
}

}  // namespace uuq
