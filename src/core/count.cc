#include "core/count.h"

#include <cmath>

#include "core/chao92.h"
#include "stats/coverage.h"

namespace uuq {

const char* CountMethodName(CountMethod method) {
  switch (method) {
    case CountMethod::kChao92:
      return "chao92";
    case CountMethod::kGoodTuring:
      return "good-turing";
    case CountMethod::kMonteCarlo:
      return "monte-carlo";
  }
  return "?";
}

namespace {

Estimate CountFromNhat(CountMethod method, const SampleStats& stats,
                       double n_hat) {
  Estimate est;
  est.estimator = std::string("count[") + CountMethodName(method) + "]";
  est.coverage_ok = stats.Coverage() >= kCoverageRecommendationThreshold;
  if (stats.empty()) {
    est.coverage_ok = false;
    return est;
  }
  est.n_hat = n_hat;
  est.missing_count = n_hat - static_cast<double>(stats.c);
  est.missing_value = 1.0;  // each missing entity adds one to COUNT
  est.delta = est.missing_count;
  est.finite = std::isfinite(est.delta);
  est.corrected_sum = n_hat;
  return est;
}

}  // namespace

// One body for both entry points: every branch resolves by overload on
// `input` (IntegratedSample or ReplicateSample).
template <typename Input>
Estimate CountEstimator::EstimateCountImpl(const Input& input,
                                           const SampleStats& stats) const {
  double n_hat = 0.0;
  if (!stats.empty()) {
    switch (method_) {
      case CountMethod::kChao92:
        n_hat = Chao92Nhat(stats);
        break;
      case CountMethod::kGoodTuring:
        n_hat = GoodTuringNhat(stats);
        break;
      case CountMethod::kMonteCarlo:
        n_hat = mc_.EstimateNhat(input);
        break;
    }
  }
  return CountFromNhat(method_, stats, n_hat);
}

Estimate CountEstimator::EstimateCount(const IntegratedSample& sample,
                                       const SampleStats& stats) const {
  return EstimateCountImpl(sample, stats);
}

Estimate CountEstimator::EstimateCount(const ReplicateSample& rep) const {
  return EstimateCountImpl(rep, SampleStats::FromReplicate(rep));
}

}  // namespace uuq
