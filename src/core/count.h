// COUNT queries under unknown unknowns (paper §5).
//
// COUNT needs only the missing-item count, not values: Δ_count = N̂ − c with
// N̂ from Chao92, plain Good-Turing, or the Monte-Carlo search.
#ifndef UUQ_CORE_COUNT_H_
#define UUQ_CORE_COUNT_H_

#include "core/estimate.h"
#include "core/monte_carlo.h"

namespace uuq {

enum class CountMethod { kChao92, kGoodTuring, kMonteCarlo };

const char* CountMethodName(CountMethod method);

class CountEstimator {
 public:
  explicit CountEstimator(CountMethod method = CountMethod::kChao92,
                          MonteCarloOptions mc_options = {})
      : method_(method), mc_(mc_options) {}

  /// delta = N̂ − c; corrected_sum holds the corrected COUNT (= N̂).
  Estimate EstimateCount(const IntegratedSample& sample) const {
    return EstimateCount(sample, SampleStats::FromSample(sample));
  }
  /// Same, with `stats` == SampleStats::FromSample(sample) already folded.
  Estimate EstimateCount(const IntegratedSample& sample,
                         const SampleStats& stats) const;

  /// Columnar replicate form (bootstrap intervals on corrected COUNT):
  /// Chao92 and Good-Turing read only the sufficient statistics; the
  /// Monte-Carlo method reads the multiplicity and source-size columns.
  Estimate EstimateCount(const ReplicateSample& rep) const;

  CountMethod method() const { return method_; }

 private:
  template <typename Input>
  Estimate EstimateCountImpl(const Input& input,
                             const SampleStats& stats) const;

  CountMethod method_;
  MonteCarloEstimator mc_;
};

}  // namespace uuq

#endif  // UUQ_CORE_COUNT_H_
