// Estimator selection advice (paper §6.5 "Which Estimator To Use").
//
// The decision rules the paper distills from its evaluation:
//  * Ĉ < 0.4                         -> estimates are unreliable; collect more
//  * streakers / uneven sources      -> Monte-Carlo (simulation-based, robust)
//  * fewer than ~5 sources           -> Monte-Carlo (with-replacement
//                                       approximation not yet valid, App. E)
//  * otherwise                       -> dynamic bucket (most accurate)
#ifndef UUQ_CORE_ADVISOR_H_
#define UUQ_CORE_ADVISOR_H_

#include <string>

#include "core/estimate.h"
#include "integration/diagnostics.h"
#include "stats/coverage.h"

namespace uuq {

enum class EstimatorChoice { kCollectMoreData, kBucket, kMonteCarlo };

const char* EstimatorChoiceName(EstimatorChoice choice);

struct Advice {
  EstimatorChoice choice = EstimatorChoice::kCollectMoreData;
  double coverage = 0.0;
  int64_t num_sources = 0;
  bool streaker_suspected = false;
  std::string rationale;
};

class EstimatorAdvisor {
 public:
  struct Options {
    double coverage_threshold = kCoverageRecommendationThreshold;  // §6.5
    int64_t min_sources = 5;           // Appendix E
    double max_share_threshold = 0.5;  // streaker heuristics
    double gini_threshold = 0.6;
  };

  EstimatorAdvisor() : EstimatorAdvisor(Options{}) {}
  explicit EstimatorAdvisor(Options options) : options_(std::move(options)) {}

  /// The §6.5 verdict for `sample`. QueryCorrector's kAuto estimator
  /// follows it: Monte-Carlo for kMonteCarlo, the dynamic bucket estimator
  /// otherwise (kCollectMoreData included, as the least harmful default).
  Advice Advise(const IntegratedSample& sample) const;

 private:
  /// The §6.5 decision tree over pre-derived inputs.
  Advice Decide(const SampleStats& stats,
                const SourceImbalanceReport& imbalance) const;

  Options options_;
};

}  // namespace uuq

#endif  // UUQ_CORE_ADVISOR_H_
