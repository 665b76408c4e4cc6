// The frequency estimator (paper §3.2, Eq. 9): like the naive estimator but
// substitutes the mean value of the SINGLETONS for missing items —
// singletons are the best proxy for what is still unobserved, and popular
// high-impact items rarely stay singletons for long.
//
//   Δ_freq = (φf1 / f1) · (N̂_Chao92 − c) = φf1 · (c + γ̂²·n) / (n − f1)
//
// With γ̂² forced to 0 this degenerates to the pure Good-Turing form
// Δ = φf1 · c / (n − f1) (Eq. 10), also provided.
#ifndef UUQ_CORE_FREQUENCY_H_
#define UUQ_CORE_FREQUENCY_H_

#include "core/estimate.h"

namespace uuq {

class FrequencyEstimator final : public StatsSumEstimator {
 public:
  /// `assume_uniform` = true forces γ̂² = 0 (the Eq. 10 Good-Turing form).
  explicit FrequencyEstimator(bool assume_uniform = false)
      : assume_uniform_(assume_uniform) {}

  std::string name() const override {
    return assume_uniform_ ? "freq-gt" : "freq";
  }
  Estimate FromStats(const SampleStats& stats) const override;
  /// Chao92NhatLane per lane (the Chao92 or the γ̂²-free Good-Turing N̂);
  /// bit-identical to FromStats on every lane.
  void DeltaFromPrefixSide(const PrefixSideView& side,
                           double* out) const override;

 private:
  bool assume_uniform_;
};

/// FrequencyEstimator(assume_uniform)'s side kernel as built for `isa` (one
/// of RunnableKernelIsas()): DeltaFromPrefixSide runs the widest build, the
/// tests run every one.
void RunFrequencySideKernel(bool assume_uniform, KernelIsa isa,
                            const PrefixSideView& side, double* out);

}  // namespace uuq

#endif  // UUQ_CORE_FREQUENCY_H_
