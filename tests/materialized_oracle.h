// The materializing replicate reference, kept as a test oracle.
//
// The bootstrap engine (core/bootstrap.h) evaluates every replicate from
// the columnar SampleView. This header states what a replicate MEANS the
// slow way: draw the sources on the engine's Rng streams, rebuild a full
// IntegratedSample (SampleView::MaterializeReplicate /
// MaterializeLeaveOneOut), and evaluate the statistic on it. The engine
// must match it replicate for replicate (docs/ARCHITECTURE.md, "Columnar ≡
// materialized").
#ifndef UUQ_TESTS_MATERIALIZED_ORACLE_H_
#define UUQ_TESTS_MATERIALIZED_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/bootstrap.h"
#include "integration/sample_view.h"
#include "stats/descriptive.h"

namespace uuq {
namespace oracle {

/// Replicate values of a materialized run.
struct Replicates {
  std::vector<double> values;  ///< the finite replicate values, sorted
  /// Percentiles of `values` (Quantile; NaN when no value is finite).
  double lo = 0.0;
  double hi = 0.0;
  double median = 0.0;
  /// Jackknife only: sqrt((l−1)/l · Σ (θ_(i) − θ̄)²) over the finite values
  /// in leave-one-out order, as JackknifeCorrectedSum folds it.
  double standard_error = 0.0;
};

inline Replicates Summarize(const std::vector<double>& raw,
                            double confidence) {
  Replicates out;
  for (double value : raw) {
    if (std::isfinite(value)) out.values.push_back(value);
  }
  std::sort(out.values.begin(), out.values.end());
  const double alpha = (1.0 - confidence) / 2.0;
  out.lo = Quantile(out.values, alpha);
  out.hi = Quantile(out.values, 1.0 - alpha);
  out.median = Quantile(out.values, 0.5);
  return out;
}

/// Fixed-budget bootstrap of `statistic(const IntegratedSample&)`. Reads
/// `options.replicates`, `seed` and `confidence`; replicate b draws on the
/// b-th Rng(seed).Split() stream, exactly as the engine does.
template <typename Statistic>
Replicates MaterializedBootstrap(const IntegratedSample& sample,
                                 const BootstrapOptions& options,
                                 const Statistic& statistic) {
  const SampleView view(sample);
  Rng root(options.seed);
  std::vector<int32_t> draws;
  std::vector<double> raw;
  for (int b = 0; b < options.replicates; ++b) {
    Rng rng = root.Split();
    view.DrawBootstrapSources(&rng, &draws);
    raw.push_back(statistic(view.MaterializeReplicate(draws)));
  }
  return Summarize(raw, options.confidence);
}

/// Delete-one-source jackknife of `statistic`; empty below 2 sources, like
/// JackknifeCorrectedSum.
template <typename Statistic>
Replicates MaterializedJackknife(const IntegratedSample& sample,
                                 const Statistic& statistic,
                                 double confidence = 0.95) {
  const SampleView view(sample);
  if (view.num_sources() < 2) return {};
  std::vector<double> finite;
  for (int32_t s = 0; s < view.num_sources(); ++s) {
    const double value = statistic(view.MaterializeLeaveOneOut(s));
    if (std::isfinite(value)) finite.push_back(value);
  }
  Replicates out = Summarize(finite, confidence);
  if (finite.size() >= 2) {
    const double l = static_cast<double>(finite.size());
    const double mean = Mean(finite);
    double ss = 0.0;
    for (double r : finite) ss += (r - mean) * (r - mean);
    out.standard_error = std::sqrt((l - 1.0) / l * ss);
  }
  return out;
}

}  // namespace oracle
}  // namespace uuq

#endif  // UUQ_TESTS_MATERIALIZED_ORACLE_H_
