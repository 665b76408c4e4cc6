#include "core/query_correction.h"

#include <cmath>
#include <memory>

#include "common/strings.h"
#include "core/avg.h"
#include "core/correction_telemetry.h"
#include "core/bucket.h"
#include "core/count.h"
#include "core/frequency.h"
#include "core/monte_carlo.h"
#include "core/naive.h"
#include "db/sql_parser.h"

namespace uuq {

std::string CorrectedAnswer::ToString() const {
  std::string out;
  if (!query_text.empty()) out += query_text + "\n";
  out += "  observed  (closed world): " + FormatDouble(observed, 2) + "\n";
  out += "  corrected (+unknown unknowns via " + estimate.estimator +
         "): " + FormatDouble(corrected, 2) + "\n";
  if (unconstrained) {
    out += "  correction UNCONSTRAINED at this sample size (species estimate "
           "diverged; reporting the observed answer)\n";
  }
  if (aggregate == AggregateKind::kMin || aggregate == AggregateKind::kMax) {
    out += claim_true_extreme
               ? "  the observed extreme is likely the TRUE extreme "
                 "(estimated unknowns in the extreme bucket: " +
                     FormatDouble(extreme.extreme_bucket_missing, 2) + ")\n"
               : "  the observed extreme is NOT yet trustworthy (estimated "
                 "unknowns in the extreme bucket: " +
                     FormatDouble(extreme.extreme_bucket_missing, 2) + ")\n";
  } else {
    out += "  estimated missing entities: " +
           FormatDouble(estimate.missing_count, 1) +
           " (N-hat = " + FormatDouble(estimate.n_hat, 1) + ")\n";
  }
  if (bound_valid) {
    out += bound.finite
               ? "  99% worst-case bound on the true answer: " +
                     FormatDouble(bound.phi_upper, 2) + "\n"
               : "  99% worst-case bound: unbounded at this sample size\n";
  }
  if (bootstrap_valid) {
    out += "  " + FormatDouble(bootstrap_confidence * 100.0, 0) +
           "% bootstrap interval (source resampling): [" +
           FormatDouble(bootstrap.lo, 2) + ", " +
           FormatDouble(bootstrap.hi, 2) + "] over " +
           std::to_string(bootstrap.finite_replicates) + " replicates\n";
  }
  if (bootstrap.adaptive.stop == BudgetStop::kDeadline && !bootstrap_valid) {
    out += "  bootstrap interval ABORTED (deadline) — point estimate only\n";
  }
  out += "  advice: " + std::string(EstimatorChoiceName(advice.choice)) +
         " — " + advice.rationale + "\n";
  return out;
}

namespace {

/// The SUM estimator a query runs. `bucket` aliases `estimator` exactly
/// when it is the default bucket configuration (dynamic partitioning, naive
/// inner estimator) — the one whose point partition a snapshot precomputes
/// (SamplePrecomp::buckets). `from_stats` aliases it when it is a
/// StatsSumEstimator, whose point estimate is FromStats of the query's
/// already-folded stats.
struct SumEngine {
  std::unique_ptr<SumEstimator> estimator;
  const BucketSumEstimator* bucket = nullptr;
  const StatsSumEstimator* from_stats = nullptr;
};

/// Whether the query's species estimate runs the Monte-Carlo search: an
/// explicit kMonteCarlo always, kAuto when the §6.5 advice says so. SUM
/// (MakeSumEngine) and COUNT both follow this one rule.
bool UsesMonteCarlo(CorrectionEstimator estimator,
                    EstimatorChoice recommended) {
  return estimator == CorrectionEstimator::kMonteCarlo ||
         (estimator == CorrectionEstimator::kAuto &&
          recommended == EstimatorChoice::kMonteCarlo);
}

/// The Monte-Carlo options a query runs with: Options::monte_carlo with
/// the corrector's cancel token and pool.
MonteCarloOptions QueryMonteCarloOptions(
    const QueryCorrector::Options& options) {
  MonteCarloOptions mc = options.monte_carlo;
  mc.cancel = options.cancel;
  mc.pool = options.pool;
  return mc;
}

/// Instantiates the SUM estimator with Options::cancel threaded into its
/// long-running engines. `recommended` is the already-computed §6.5 advice,
/// so kAuto resolves without re-running the advisor (same decision —
/// Advise() is deterministic over the same sample and options — and one
/// fewer diagnostic pass). With the inert default token every branch
/// constructs the exact configuration the pre-cancellation code did.
SumEngine MakeSumEngine(const QueryCorrector::Options& options,
                        EstimatorChoice recommended) {
  if (UsesMonteCarlo(options.estimator, recommended)) {
    return SumEngine{std::make_unique<MonteCarloEstimator>(
        QueryMonteCarloOptions(options))};
  }
  const auto from_stats = [](std::unique_ptr<StatsSumEstimator> estimator) {
    const StatsSumEstimator* handle = estimator.get();
    return SumEngine{std::move(estimator), nullptr, handle};
  };
  switch (options.estimator) {
    case CorrectionEstimator::kNaive:
      return from_stats(std::make_unique<NaiveEstimator>());
    case CorrectionEstimator::kFreq:
      return from_stats(std::make_unique<FrequencyEstimator>());
    case CorrectionEstimator::kAuto:
    case CorrectionEstimator::kBucket:
    case CorrectionEstimator::kMonteCarlo:
      break;
  }
  auto bucket = std::make_unique<BucketSumEstimator>(
      std::make_shared<DynamicPartitioner>(options.cancel),
      std::make_shared<NaiveEstimator>());
  const BucketSumEstimator* handle = bucket.get();
  return SumEngine{std::move(bucket), handle};
}

}  // namespace

Result<CorrectedAnswer> QueryCorrector::CorrectFiltered(
    const IntegratedSample& sample, AggregateKind aggregate,
    std::string query_text, const SamplePrecomp* pre) const {
  // A token that fired before any work (queue time ate the whole budget)
  // fails fast with the typed status — no engine spins up at all.
  if (options_.cancel.Fired()) {
    return options_.cancel.ToStatus("correction");
  }

  CorrectedAnswer answer;
  answer.aggregate = aggregate;
  answer.query_text = std::move(query_text);

  // Precomputed advice/stats are the exact outputs of the expressions below
  // on the same sample (SamplePrecomp's contract), so consuming them is
  // bit-identical — the per-query advisor pass and stats fold are what the
  // serving layer's artifact snapshot exists to skip.
  if (pre != nullptr && pre->advice != nullptr) {
    answer.advice = *pre->advice;
  } else {
    const EstimatorAdvisor advisor(options_.advisor);
    answer.advice = advisor.Advise(sample);
  }
  const SampleStats stats = pre != nullptr && pre->stats != nullptr
                                ? *pre->stats
                                : SampleStats::FromSample(sample);
  // The snapshot's point partition (SamplePrecomp::buckets) is the default
  // bucket configuration's. This is the one place that decides which point
  // estimates fold it instead of partitioning the sample again: the
  // dynamic-bucket SUM (SumEngine::bucket), and AVG and MIN/MAX, which
  // always run the default configuration. The SUM estimator's cancellable
  // partitioner partitions identically while its token is quiet, and a
  // token that fires is still reported by finish()'s gate.
  const std::vector<ValueBucket>* point_buckets =
      pre != nullptr ? pre->buckets : nullptr;

  // Degenerate species estimates (coverage <= 0 sends Chao92's N̂ — and
  // with it Δ̂ and the corrected answer — to +inf, or to NaN once an inf
  // flows through 0-weighted arithmetic) must not leak out of the
  // correction layer: flag the answer unconstrained and report the observed
  // value. Runs before attach() so the bootstrap's point estimate (and the
  // degenerate [point, point] interval of an all-non-finite replicate set)
  // is the clamped, finite answer.
  const auto clamp_unconstrained = [&answer] {
    if (!std::isfinite(answer.corrected)) {
      answer.unconstrained = true;
      answer.corrected = answer.observed;
    }
  };

  // Shared tail of every aggregate case: first the cancellation gate — a
  // token that fired during the POINT estimate invalidates the whole
  // answer (the engines' under-cancellation outputs are clamps, not
  // estimates), so the typed status is all the caller gets — then the
  // optional bootstrap interval. A deadline firing inside the interval loop
  // keeps the exact point estimate and the interval of the completed
  // prefix, if any (stop reason kDeadline); with no prefix there is no
  // interval (the serving layer's point-only degradation level). Explicit
  // cancellation means nobody is waiting for ANY answer, so it fails the
  // query even this late, whatever the loop returned.
  const auto finish = [&](const std::function<double(const ReplicateSample&)>&
                              statistic) -> Result<CorrectedAnswer> {
    if (options_.cancel.Fired()) {
      return options_.cancel.ToStatus("correction");
    }
    if (options_.attach_bootstrap && !sample.empty()) {
      BootstrapOptions bootstrap_options = options_.bootstrap;
      bootstrap_options.cancel = options_.cancel;
      bootstrap_options.pool = options_.pool;
      answer.bootstrap = BootstrapAggregate(
          sample, pre != nullptr ? pre->view : nullptr, answer.corrected,
          statistic, bootstrap_options);
      if (options_.cancel.reason() == StatusCode::kCancelled) {
        return options_.cancel.ToStatus("correction");
      }
      if (!answer.bootstrap.by_replicate.empty()) {
        answer.bootstrap_confidence = bootstrap_options.confidence;
        answer.bootstrap_valid = true;
      }
    }
    // Every produced answer — clamped or not — feeds the process-wide
    // clamp/coverage counters the accuracy trajectory reads; typed-status
    // failures above return without counting.
    internal::RecordCorrection(answer);
    return answer;
  };

  switch (aggregate) {
    case AggregateKind::kSum: {
      const SumEngine engine = MakeSumEngine(options_, answer.advice.choice);
      if (engine.bucket != nullptr && point_buckets != nullptr) {
        answer.estimate = engine.bucket->FromBuckets(stats, *point_buckets);
      } else if (engine.from_stats != nullptr) {
        answer.estimate = engine.from_stats->FromStats(stats);
      } else {
        answer.estimate = engine.estimator->EstimateImpact(sample);
      }
      answer.observed = stats.value_sum;
      answer.corrected = answer.estimate.corrected_sum;
      answer.bound = ComputeSumUpperBound(stats, options_.bound);
      answer.bound_valid = true;
      clamp_unconstrained();
      // answer.corrected already holds the point estimate, so go through
      // finish() (which reuses it) rather than BootstrapCorrectedSum (which
      // would re-run the estimator on the full sample). Every estimator
      // MakeSumEngine builds has a replicate path.
      const SumEstimator* sum_estimator = engine.estimator.get();
      return finish([sum_estimator](const ReplicateSample& rep) {
        return sum_estimator->EstimateReplicate(rep).corrected_sum;
      });
    }
    case AggregateKind::kCount: {
      const CountEstimator count(
          UsesMonteCarlo(options_.estimator, answer.advice.choice)
              ? CountMethod::kMonteCarlo
              : CountMethod::kChao92,
          QueryMonteCarloOptions(options_));
      answer.estimate = count.EstimateCount(sample, stats);
      answer.observed = static_cast<double>(stats.c);
      answer.corrected = answer.estimate.corrected_sum;
      clamp_unconstrained();
      return finish([&count](const ReplicateSample& rep) {
        return count.EstimateCount(rep).corrected_sum;
      });
    }
    case AggregateKind::kAvg: {
      // The default (uncancellable) dynamic-bucket estimator: AVG's point
      // estimate has always run to completion.
      const AvgEstimator avg;
      answer.estimate = point_buckets != nullptr
                            ? avg.FromBuckets(stats, *point_buckets)
                            : avg.EstimateAvg(sample);
      answer.observed = stats.ValueMean();
      answer.corrected = answer.estimate.corrected_sum;
      clamp_unconstrained();
      return finish([&avg](const ReplicateSample& rep) {
        return avg.EstimateAvg(rep).corrected_sum;
      });
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      const MinMaxEstimator minmax(options_.minmax_claim_threshold);
      const bool want_max = aggregate == AggregateKind::kMax;
      if (point_buckets != nullptr) {
        answer.extreme = minmax.FromBuckets(*point_buckets, want_max);
      } else {
        answer.extreme = want_max ? minmax.EstimateMax(sample)
                                  : minmax.EstimateMin(sample);
      }
      answer.observed = answer.extreme.observed_extreme;
      answer.corrected = answer.extreme.observed_extreme;
      answer.claim_true_extreme = answer.extreme.claim_true_extreme;
      answer.estimate.estimator = "minmax[bucket]";
      answer.estimate.missing_count = answer.extreme.extreme_bucket_missing;
      return finish([&minmax, want_max](const ReplicateSample& rep) {
        return (want_max ? minmax.EstimateMax(rep) : minmax.EstimateMin(rep))
            .observed_extreme;
      });
    }
  }
  return Status::InvalidArgument("unsupported aggregate");
}

Result<CorrectedAnswer> QueryCorrector::Correct(
    const IntegratedSample& sample, AggregateKind aggregate,
    const SamplePrecomp* pre) const {
  AggregateQuery query;
  query.aggregate = aggregate;
  query.attribute = "value";
  query.table_name = "integrated";
  query.predicate = MakeTrue();
  return CorrectFiltered(sample, aggregate, query.ToString(), pre);
}

namespace {

// The integrated view's columns, in schema order.
enum ViewColumn : size_t { kEntity, kValue, kObservations, kCategory };

Schema IntegratedViewSchema() {
  return Schema({{"entity", ValueType::kString},
                 {"value", ValueType::kDouble},
                 {"observations", ValueType::kInt64},
                 {"category", ValueType::kString}});
}

/// Filters the sample to the entities whose integrated-view row satisfies
/// `predicate`. One row is reused for every entity, and only the cells the
/// predicate reads are refreshed.
IntegratedSample ApplyPredicate(const IntegratedSample& sample,
                                const BoundPredicate& predicate) {
  const bool reads_entity = predicate.Reads(kEntity);
  const bool reads_value = predicate.Reads(kValue);
  const bool reads_observations = predicate.Reads(kObservations);
  const bool reads_category = predicate.Reads(kCategory);
  Row row(4);
  return sample.Filter([&](const EntityStat& entity) {
    if (reads_entity) row[kEntity] = Value(entity.key);
    if (reads_value) row[kValue] = Value(entity.value);
    if (reads_observations) row[kObservations] = Value(entity.multiplicity);
    if (reads_category) {
      row[kCategory] = entity.category.empty() ? Value::Null()
                                               : Value(entity.category);
    }
    return predicate(row);
  });
}

}  // namespace

Result<CorrectedAnswer> QueryCorrector::CorrectSql(
    const IntegratedSample& sample, const std::string& sql,
    const SamplePrecomp* pre) const {
  auto parsed = ParseQuery(sql);
  if (!parsed.ok()) return parsed.status();
  const AggregateQuery& query = parsed.value();
  if (!query.group_by.empty()) {
    return Status::InvalidArgument(
        "grouped queries go through CorrectGroupedSql");
  }

  // Predicates are bound to the integrated view's schema once per query.
  const PredicatePtr predicate =
      query.predicate != nullptr ? query.predicate : MakeTrue();
  auto bound = predicate->Bind(IntegratedViewSchema());
  if (!bound.ok()) return bound.status();

  if (predicate->ToString() == "TRUE") {
    // The precomp (if any) describes exactly this unfiltered sample, so the
    // cached artifacts apply — the serving fast path.
    return CorrectFiltered(sample, query.aggregate, query.ToString(), pre);
  }

  // A real predicate produces a fresh filtered sample the precomp does not
  // describe; run uncached (SamplePrecomp's same-sample contract).
  return CorrectFiltered(ApplyPredicate(sample, bound.value()),
                         query.aggregate, query.ToString(), /*pre=*/nullptr);
}

std::string QueryCorrector::GroupedCorrectedAnswer::ToString() const {
  std::string out = query_text + "\n";
  for (const auto& [category, answer] : groups) {
    out += "[" + (category.empty() ? std::string("(uncategorized)") : category)
           + "] observed " + FormatDouble(answer.observed, 2) +
           " -> corrected " + FormatDouble(answer.corrected, 2) + " (" +
           answer.estimate.estimator + ")" +
           (answer.unconstrained ? " UNCONSTRAINED" : "") + "\n";
  }
  return out;
}

Result<QueryCorrector::GroupedCorrectedAnswer> QueryCorrector::CorrectGroupedSql(
    const IntegratedSample& sample, const std::string& sql) const {
  auto parsed = ParseQuery(sql);
  if (!parsed.ok()) return parsed.status();
  const AggregateQuery& query = parsed.value();
  if (query.group_by.empty()) {
    return Status::InvalidArgument("query has no GROUP BY clause");
  }
  if (!EqualsIgnoreCase(query.group_by, "category")) {
    return Status::InvalidArgument(
        "corrected grouping is only supported on the 'category' column");
  }
  const PredicatePtr predicate =
      query.predicate != nullptr ? query.predicate : MakeTrue();
  auto bound = predicate->Bind(IntegratedViewSchema());
  if (!bound.ok()) return bound.status();
  const IntegratedSample base = ApplyPredicate(sample, bound.value());

  GroupedCorrectedAnswer out;
  out.query_text = query.ToString();
  std::vector<std::string> categories = base.Categories();
  // Entities without a category form their own group (SQL NULL group).
  bool has_uncategorized = false;
  for (const EntityStat& entity : base.entities()) {
    if (entity.category.empty()) {
      has_uncategorized = true;
      break;
    }
  }
  if (has_uncategorized) categories.push_back("");

  for (const std::string& category : categories) {
    const IntegratedSample group = base.Filter(
        [&category](const EntityStat& e) { return e.category == category; });
    auto answer = CorrectFiltered(group, query.aggregate, "", /*pre=*/nullptr);
    if (!answer.ok()) return answer.status();
    out.groups.emplace_back(category, std::move(answer).value());
  }
  return out;
}

}  // namespace uuq
