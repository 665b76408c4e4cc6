// The headline API: run an aggregate query over an integrated sample and
// attach the unknown-unknowns correction, bound, and advice.
//
//   IntegratedSample sample = ...;                  // from the Integrator
//   QueryCorrector corrector;
//   auto answer = corrector.CorrectSql(sample,
//       "SELECT SUM(employees) FROM us_tech_companies");
//   answer.value().ToString();  // observed, corrected, bound, rationale
//
// Predicates are pushed down by filtering the sample (each entity judged once
// on its fused state, IntegratedSample::Filter), so species estimation runs
// over exactly the predicate-satisfying entity class — the paper's §2.1
// semantics. The observed answer φK is computed here, from the same
// SampleStats the estimators read; there is no separate row-store engine.
#ifndef UUQ_CORE_QUERY_CORRECTION_H_
#define UUQ_CORE_QUERY_CORRECTION_H_

#include <string>
#include <vector>

#include "common/cancel.h"
#include "core/advisor.h"
#include "core/bootstrap.h"
#include "core/bound.h"
#include "core/estimate.h"
#include "core/minmax.h"
#include "core/monte_carlo.h"
#include "db/query.h"

namespace uuq {

/// Which SUM estimator backs the correction.
enum class CorrectionEstimator { kAuto, kBucket, kMonteCarlo, kNaive, kFreq };

struct ValueBucket;  // core/bucket.h

/// Non-owning bundle of QUERY-INDEPENDENT artifacts derived from one
/// IntegratedSample: its flattened columnar view, its default bucket
/// partition, the whole-sample sufficient statistics, and the advisor's
/// verdict. Only QueryCorrector reads it; the estimators it drives receive
/// the artifacts themselves (stats, buckets, view), never the bundle.
/// Every member is a pure deterministic function of the sample, so consuming
/// a precomp instead of recomputing is always bit-identical — that is the
/// contract that lets the serving layer build these once per registered
/// sample (serving/sample_cache.h) and share them across queries. All
/// pointers are optional (nullptr = recompute) and borrowed: whoever passes
/// a precomp guarantees the artifacts outlive the call and belong to the
/// SAME sample the call receives.
struct SamplePrecomp {
  const SampleView* view = nullptr;
  /// BucketSumEstimator().ComputeBuckets(sample): the paper's default
  /// configuration (dynamic partitioning, naive inner estimator), folded
  /// only by the estimators built in that configuration.
  const std::vector<ValueBucket>* buckets = nullptr;
  const SampleStats* stats = nullptr;  ///< SampleStats::FromSample
  /// EstimatorAdvisor::Advise output. Advice depends on the advisor's
  /// options too, so the producer must have run the SAME advisor
  /// configuration the consumer would (the serving layer builds artifacts
  /// with its service-wide correction options, which every query reuses).
  const Advice* advice = nullptr;
};

struct CorrectedAnswer {
  AggregateKind aggregate = AggregateKind::kSum;
  std::string query_text;
  double observed = 0.0;   ///< φK — the closed-world answer
  double corrected = 0.0;  ///< φ̂D = φK + Δ̂
  /// True when the species estimate degenerated to a non-finite value (an
  /// all-singleton sample drives Chao92's coverage term to 0 and N̂ to +inf
  /// — see chao92.cc): nothing constrains the unknown-unknowns impact at
  /// this sample size, so `corrected` falls back to `observed` instead of
  /// reporting inf/NaN. The raw degenerate output stays in `estimate`.
  /// Every produced answer also feeds the process-wide clamp/coverage
  /// counters (core/correction_telemetry.h), so clamp frequency is a
  /// measured output — the accuracy matrix gates it in CI.
  bool unconstrained = false;
  Estimate estimate;       ///< the underlying estimator output
  Advice advice;           ///< §6.5 estimator advice + coverage warning
  /// SUM only: the §4 worst-case bound.
  SumUpperBound bound;
  bool bound_valid = false;
  /// MIN/MAX only: whether the observed extreme is claimed as true.
  bool claim_true_extreme = false;
  ExtremeEstimate extreme;
  /// Set when Options::attach_bootstrap is on: percentile interval of the
  /// corrected answer (SUM/COUNT/AVG) or of the observed extreme (MIN/MAX)
  /// over source-resampled replicates, evaluated on the columnar engine.
  /// `bootstrap.adaptive.stop` says why its budget stopped. A deadline that
  /// fired inside the first round leaves the point estimate above complete
  /// and exact but no interval: bootstrap_valid stays false and
  /// `bootstrap.by_replicate` is empty (the serving layer's point-only
  /// degradation level).
  bool bootstrap_valid = false;
  double bootstrap_confidence = 0.0;
  BootstrapInterval bootstrap;

  /// Multi-line human-readable report.
  std::string ToString() const;
};

class QueryCorrector {
 public:
  struct Options {
    CorrectionEstimator estimator = CorrectionEstimator::kAuto;
    EstimatorAdvisor::Options advisor;
    MonteCarloOptions monte_carlo;  ///< Monte-Carlo species search settings
    BoundOptions bound;
    double minmax_claim_threshold = 0.5;
    /// Attach a source-resampling bootstrap interval to every corrected
    /// answer (columnar replicate engine; see bootstrap.h). Off by default
    /// — B replicate re-estimations per query.
    bool attach_bootstrap = false;
    BootstrapOptions bootstrap;
    /// Pool for every parallel engine the correction drives: the MC grid
    /// and the bootstrap replicate loop. nullptr means ThreadPool::Default()
    /// (the standalone behaviour); the serving layer hands each worker its
    /// private slice pool here so concurrent queries share the box instead
    /// of oversubscribing it (thread_pool.h, POOL SHARING). Pure scheduling
    /// — results are bit-identical for any pool. This pool and `cancel`
    /// below apply to every engine the corrector drives: the nested
    /// `bootstrap.pool`/`bootstrap.cancel` and `monte_carlo.pool`/
    /// `monte_carlo.cancel` are overwritten with them.
    ThreadPool* pool = nullptr;
    /// Cooperative cancellation for the whole correction. The token is
    /// threaded into every long-running engine the query touches: the
    /// dynamic split scan (per bucket), the MC grid (per point), and the
    /// bootstrap loop (per replicate). Firing during the POINT estimate
    /// fails the query with the token's typed status (kCancelled /
    /// kDeadlineExceeded — there is nothing safe to report). Firing during
    /// the INTERVAL depends on the reason: deadline expiry keeps the exact
    /// point estimate and the interval of the last completed round, with
    /// stop reason kDeadline (the caller is late but still listening),
    /// while explicit cancellation fails with kCancelled (nobody wants any
    /// answer). The inert default token leaves every result bit-identical
    /// to an uncancellable run.
    CancelToken cancel;
  };

  QueryCorrector() : QueryCorrector(Options{}) {}
  explicit QueryCorrector(Options options) : options_(std::move(options)) {}

  /// Corrects a bare aggregate (no predicate) over the sample. `pre`
  /// (optional) supplies precomputed artifacts of THIS sample — flattened
  /// view, default point partition, whole-sample stats, advisor verdict —
  /// which the correction consumes instead of recomputing. The partition
  /// serves only the estimators built in its configuration: the
  /// dynamic-bucket SUM, AVG and MIN/MAX. Bit-identical either way
  /// (every artifact is a pure function of the sample); the serving layer's
  /// artifact snapshot is the intended producer (serving/sample_cache.h).
  Result<CorrectedAnswer> Correct(const IntegratedSample& sample,
                                  AggregateKind aggregate,
                                  const SamplePrecomp* pre = nullptr) const;

  /// Parses SQL of the paper's query shape; the table name is recorded but
  /// not resolved (the sample IS the table). WHERE predicates may reference
  /// the integrated view's columns: entity, value, observations, category.
  /// Grouped queries must go through CorrectGroupedSql. `pre` describes the
  /// UNFILTERED sample, so it only accelerates predicate-free queries — a
  /// WHERE clause produces a fresh filtered sample and runs uncached.
  Result<CorrectedAnswer> CorrectSql(const IntegratedSample& sample,
                                     const std::string& sql,
                                     const SamplePrecomp* pre = nullptr) const;

  /// Grouped correction: `... GROUP BY category` runs the full correction
  /// machinery once per category sub-sample — species estimation happens
  /// inside each group, extending the paper's §5 reasoning to grouped
  /// aggregates. Only the `category` column can be grouped on (grouping by
  /// `value` would conflict with the bucket estimator's own value
  /// partitioning; grouping by `entity` makes every group a single row).
  struct GroupedCorrectedAnswer {
    std::string query_text;
    std::vector<std::pair<std::string, CorrectedAnswer>> groups;
    std::string ToString() const;
  };
  Result<GroupedCorrectedAnswer> CorrectGroupedSql(
      const IntegratedSample& sample, const std::string& sql) const;

 private:
  Result<CorrectedAnswer> CorrectFiltered(const IntegratedSample& sample,
                                          AggregateKind aggregate,
                                          std::string query_text,
                                          const SamplePrecomp* pre) const;

  Options options_;
};

}  // namespace uuq

#endif  // UUQ_CORE_QUERY_CORRECTION_H_
