// The naive estimator (paper §3.1, Eq. 3/8): Chao92 for the count of missing
// items, mean substitution for their values.
//
//   Δ_naive = (φK / c) · (N̂_Chao92 − c)
//
// It ignores publicity-value correlation and therefore over-estimates when
// popular items are also high-valued (the common real-world case).
#ifndef UUQ_CORE_NAIVE_H_
#define UUQ_CORE_NAIVE_H_

#include "core/estimate.h"

namespace uuq {

class NaiveEstimator final : public StatsSumEstimator {
 public:
  std::string name() const override { return "naive"; }
  Estimate FromStats(const SampleStats& stats) const override;
  /// Chao92NhatLane per lane (no per-candidate virtual dispatch): exact
  /// lanes, or in the AVX-512F build lanes within kApproxSideRho of them.
  void DeltaFromPrefixSide(const PrefixSideView& side,
                           double* out) const override;
};

/// NaiveEstimator's side kernel as built for `isa` (one of
/// RunnableKernelIsas()): DeltaFromPrefixSide runs the widest build, the
/// tests run every one. Returns the ρ its lanes meet: kApproxSideRho for
/// the approximate AVX-512F build, 0 for the exact ones.
double RunNaiveSideKernel(KernelIsa isa, const PrefixSideView& side,
                          double* out);

}  // namespace uuq

#endif  // UUQ_CORE_NAIVE_H_
