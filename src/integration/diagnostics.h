// Diagnostics over an integrated sample: source-imbalance ("streakers",
// paper §6.3) and completeness/coverage reporting (§6.5).
#ifndef UUQ_INTEGRATION_DIAGNOSTICS_H_
#define UUQ_INTEGRATION_DIAGNOSTICS_H_

#include <string>
#include <vector>

#include "integration/sample.h"

namespace uuq {

/// Summary of how evenly sources contribute to the sample.
struct SourceImbalanceReport {
  int64_t num_sources = 0;
  double gini = 0.0;             ///< 0 = perfectly even contributions
  double max_share = 0.0;        ///< largest n_j / n
  int64_t dominant_index = -1;   ///< position of the largest contributor
  std::string dominant_source;   ///< id (or positional label) of same
  bool streaker_suspected = false;
};

/// The streaker decision rule itself, shared by AnalyzeSourceImbalance and
/// the estimator advisor's columnar replicate path so the definition lives
/// in exactly one place: flag when the largest source holds more than
/// `max_share_threshold` of all observations (with at least two sources) or
/// the contribution Gini exceeds `gini_threshold`.
bool StreakerSuspected(int64_t num_sources, double max_share, double gini,
                       double max_share_threshold, double gini_threshold);

/// Heuristics matching the paper's qualitative definition: a streaker is a
/// source contributing far more than its peers (see StreakerSuspected).
SourceImbalanceReport AnalyzeSourceImbalance(const IntegratedSample& sample,
                                             double max_share_threshold = 0.5,
                                             double gini_threshold = 0.6);

/// The same analysis over a bare size column (no ids; allocation-free, so
/// it also fits per-replicate or per-range use). dominant_source carries the
/// positional label
/// "source-<dominant_index>"; AnalyzeSourceImbalance replaces it with the
/// real id.
SourceImbalanceReport AnalyzeSourceSizes(const std::vector<int64_t>& sizes,
                                         double max_share_threshold = 0.5,
                                         double gini_threshold = 0.6);

/// Coverage-centric completeness summary for end users.
struct CompletenessReport {
  int64_t n = 0;
  int64_t c = 0;
  int64_t singletons = 0;
  double coverage = 0.0;          ///< Good-Turing Ĉ
  bool estimates_recommended = false;  ///< Ĉ >= 0.4 gate (§6.5)
};

CompletenessReport AnalyzeCompleteness(const IntegratedSample& sample);

}  // namespace uuq

#endif  // UUQ_INTEGRATION_DIAGNOSTICS_H_
