#include "core/advisor.h"

#include "common/strings.h"

namespace uuq {

const char* EstimatorChoiceName(EstimatorChoice choice) {
  switch (choice) {
    case EstimatorChoice::kCollectMoreData:
      return "collect-more-data";
    case EstimatorChoice::kBucket:
      return "bucket";
    case EstimatorChoice::kMonteCarlo:
      return "monte-carlo";
  }
  return "?";
}

Advice EstimatorAdvisor::Advise(const IntegratedSample& sample) const {
  return Decide(SampleStats::FromSample(sample),
                AnalyzeSourceImbalance(sample, options_.max_share_threshold,
                                       options_.gini_threshold));
}

Advice EstimatorAdvisor::Decide(const SampleStats& stats,
                                const SourceImbalanceReport& imbalance) const {
  Advice advice;
  advice.coverage = stats.Coverage();
  advice.num_sources = imbalance.num_sources;
  advice.streaker_suspected = imbalance.streaker_suspected;

  if (advice.coverage < options_.coverage_threshold) {
    advice.choice = EstimatorChoice::kCollectMoreData;
    advice.rationale =
        "sample coverage " + std::to_string(advice.coverage) +
        " is below the " + FormatDouble(options_.coverage_threshold) +
        " reliability gate (Chao92 is inaccurate at very low coverage); "
        "collect more overlapping sources first";
    return advice;
  }
  if (advice.streaker_suspected) {
    advice.choice = EstimatorChoice::kMonteCarlo;
    advice.rationale =
        "source contributions are uneven (dominant source '" +
        imbalance.dominant_source + "' holds " +
        std::to_string(imbalance.max_share) +
        " of observations); Chao92-based estimators assume a sample with "
        "replacement and overestimate under streakers — use Monte-Carlo";
    return advice;
  }
  if (advice.num_sources < options_.min_sources) {
    advice.choice = EstimatorChoice::kMonteCarlo;
    advice.rationale =
        "only " + std::to_string(advice.num_sources) +
        " sources; the with-replacement approximation needs ~5 or more "
        "evenly contributing sources (Appendix E) — use Monte-Carlo";
    return advice;
  }
  advice.choice = EstimatorChoice::kBucket;
  advice.rationale =
      "coverage is sufficient and sources contribute evenly; the dynamic "
      "bucket estimator is the most accurate choice";
  return advice;
}

}  // namespace uuq
