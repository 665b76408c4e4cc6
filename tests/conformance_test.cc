// Estimator conformance suite for the columnar bootstrap engine.
//
// Two layers of guarantees:
//  1. COLUMNAR vs MATERIALIZED: for every estimator and every query
//     aggregate, the columnar bootstrap/jackknife must agree with the
//     materializing oracle (materialized_oracle.h — the exact pre-columnar
//     semantics, replicate for replicate) within 1e-9 relative tolerance.
//     In practice they are bit-identical for every fusion policy; the
//     tolerance documents the contract, not the observed slack.
//  2. GOLDEN: fixed-seed end-to-end estimates on the paper's calibrated
//     scenarios, pinned with a loose relative tolerance so a platform's FP
//     contraction choices can't flake the suite while genuine estimator
//     regressions still trip it.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/avg.h"
#include "core/bootstrap.h"
#include "core/bucket.h"
#include "core/count.h"
#include "core/frequency.h"
#include "core/minmax.h"
#include "core/monte_carlo.h"
#include "core/naive.h"
#include "core/query_correction.h"
#include "materialized_oracle.h"
#include "simulation/crowd.h"
#include "simulation/population.h"
#include "simulation/scenarios.h"

namespace uuq {
namespace {

constexpr double kOldNewRelTol = 1e-9;

void ExpectRelNear(double actual, double expected, double rel_tol,
                   const std::string& what) {
  const double scale = std::max({std::fabs(actual), std::fabs(expected), 1.0});
  EXPECT_NEAR(actual, expected, rel_tol * scale) << what;
}

void ExpectMatchesOracle(const BootstrapInterval& columnar,
                         const oracle::Replicates& materialized,
                         const std::string& what) {
  const std::vector<double> finite =
      oracle::SortedFinite(columnar.by_replicate);
  ASSERT_EQ(finite.size(), materialized.values.size()) << what;
  EXPECT_EQ(columnar.finite_replicates,
            static_cast<int>(materialized.values.size()))
      << what;
  for (size_t i = 0; i < finite.size(); ++i) {
    ExpectRelNear(finite[i], materialized.values[i],
                  kOldNewRelTol,
                  what + ".replicates[" + std::to_string(i) + "]");
  }
  if (materialized.values.empty()) return;  // [point, point] by contract
  ExpectRelNear(columnar.lo, materialized.lo, kOldNewRelTol, what + ".lo");
  ExpectRelNear(columnar.hi, materialized.hi, kOldNewRelTol, what + ".hi");
  ExpectRelNear(columnar.median, materialized.median, kOldNewRelTol,
                what + ".median");
}

IntegratedSample SyntheticSample(uint64_t seed = 3,
                                 FusionPolicy policy = FusionPolicy::kAverage) {
  SyntheticPopulationConfig pop;
  pop.num_items = 100;
  pop.lambda = 1.0;
  pop.rho = 1.0;
  pop.seed = seed;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 20;
  crowd.answers_per_worker = 20;
  crowd.seed = seed + 1;
  IntegratedSample sample(policy);
  for (const Observation& obs :
       CrowdSimulator(&population, crowd).GenerateStream()) {
    sample.Add(obs);
  }
  return sample;
}

IntegratedSample PaperSample(int64_t n = 400) {
  const Scenario scenario = scenarios::UsTechEmployment();
  IntegratedSample sample;
  for (int64_t i = 0;
       i < n && i < static_cast<int64_t>(scenario.stream.size()); ++i) {
    sample.Add(scenario.stream[i]);
  }
  return sample;
}

void ExpectBootstrapMatchesOracle(const IntegratedSample& sample,
                                  const SumEstimator& estimator,
                                  const std::string& what,
                                  int replicates = 32) {
  BootstrapOptions options;
  options.replicates = replicates;
  ExpectMatchesOracle(
      BootstrapCorrectedSum(sample, estimator, options),
      oracle::MaterializedBootstrap(
          sample, options,
          [&estimator](const IntegratedSample& rep) {
            return estimator.EstimateImpact(rep).corrected_sum;
          }),
      what);
}

// ---------------------------------------------------------------------------
// Columnar vs materialized, per estimator.
// ---------------------------------------------------------------------------

TEST(BootstrapConformance, BucketColumnarMatchesMaterialized) {
  ExpectBootstrapMatchesOracle(SyntheticSample(), BucketSumEstimator(),
                               "bucket/synthetic");
  ExpectBootstrapMatchesOracle(PaperSample(), BucketSumEstimator(),
                               "bucket/us-tech");
}

TEST(BootstrapConformance, NaiveAndFrequencyColumnarMatchesMaterialized) {
  ExpectBootstrapMatchesOracle(SyntheticSample(), NaiveEstimator(),
                               "naive/synthetic");
  ExpectBootstrapMatchesOracle(SyntheticSample(7), FrequencyEstimator(),
                               "frequency/synthetic");
}

TEST(BootstrapConformance, MonteCarloColumnarMatchesMaterialized) {
  MonteCarloOptions options;
  options.runs_per_point = 2;
  options.n_grid_steps = 4;
  ExpectBootstrapMatchesOracle(SyntheticSample(11),
                               MonteCarloEstimator(options),
                               "monte-carlo/synthetic", /*replicates=*/8);
}

TEST(BootstrapConformance, FusionPoliciesColumnarMatchesMaterialized) {
  ExpectBootstrapMatchesOracle(SyntheticSample(9, FusionPolicy::kFirst),
                               BucketSumEstimator(), "bucket/first");
  ExpectBootstrapMatchesOracle(SyntheticSample(9, FusionPolicy::kLast),
                               BucketSumEstimator(), "bucket/last");
  ExpectBootstrapMatchesOracle(SyntheticSample(9, FusionPolicy::kMajority),
                               BucketSumEstimator(), "bucket/majority");
}

TEST(JackknifeConformance, ColumnarMatchesMaterialized) {
  const IntegratedSample sample = SyntheticSample();
  const BucketSumEstimator bucket;
  const NaiveEstimator naive;
  for (const SumEstimator* estimator :
       {static_cast<const SumEstimator*>(&bucket),
        static_cast<const SumEstimator*>(&naive)}) {
    const JackknifeInterval jk = JackknifeCorrectedSum(sample, *estimator);
    const oracle::Replicates reference = oracle::MaterializedJackknife(
        sample, [estimator](const IntegratedSample& loo) {
          return estimator->EstimateImpact(loo).corrected_sum;
        });
    ExpectRelNear(jk.point, estimator->EstimateImpact(sample).corrected_sum,
                  kOldNewRelTol, "jk.point");
    ExpectRelNear(jk.standard_error, reference.standard_error, kOldNewRelTol,
                  "jk.se");
    ExpectRelNear(jk.lo, jk.point - 1.96 * reference.standard_error,
                  kOldNewRelTol, "jk.lo");
    ExpectRelNear(jk.hi, jk.point + 1.96 * reference.standard_error,
                  kOldNewRelTol, "jk.hi");
    EXPECT_EQ(jk.finite_replicates,
              static_cast<int>(reference.values.size()));
  }
}

// ---------------------------------------------------------------------------
// Golden fixed-seed scenario estimates (loose tolerance: FP contraction may
// differ across compilers; estimator regressions are orders louder).
// ---------------------------------------------------------------------------

constexpr double kGoldenRelTol = 1e-6;

TEST(GoldenConformance, UsTechEmploymentBucketBootstrap) {
  const IntegratedSample sample = PaperSample(400);
  const BucketSumEstimator bucket;
  BootstrapOptions options;
  options.replicates = 48;
  const BootstrapInterval interval =
      BootstrapCorrectedSum(sample, bucket, options);
  ExpectRelNear(interval.point, 3652759.39, kGoldenRelTol, "point");
  ExpectRelNear(interval.lo, 2074518.184, kGoldenRelTol, "lo");
  ExpectRelNear(interval.hi, 2758483.274, kGoldenRelTol, "hi");
  ExpectRelNear(interval.median, 2378656.099, kGoldenRelTol, "median");
  EXPECT_EQ(interval.finite_replicates, 48);
}

TEST(GoldenConformance, UsTechEmploymentBucketJackknife) {
  const IntegratedSample sample = PaperSample(400);
  const JackknifeInterval jk =
      JackknifeCorrectedSum(sample, BucketSumEstimator());
  ExpectRelNear(jk.point, 3652759.39, kGoldenRelTol, "point");
  ExpectRelNear(jk.standard_error, 469481.4536, kGoldenRelTol, "se");
  ExpectRelNear(jk.lo, 2732575.741, kGoldenRelTol, "lo");
  ExpectRelNear(jk.hi, 4572943.039, kGoldenRelTol, "hi");
}

TEST(GoldenConformance, UsTechEmploymentNaiveBootstrap) {
  const IntegratedSample sample = PaperSample(400);
  BootstrapOptions options;
  options.replicates = 48;
  const BootstrapInterval interval =
      BootstrapCorrectedSum(sample, NaiveEstimator(), options);
  ExpectRelNear(interval.point, 8322380.614, kGoldenRelTol, "point");
  ExpectRelNear(interval.lo, 2674519.507, kGoldenRelTol, "lo");
  ExpectRelNear(interval.hi, 4945342.271, kGoldenRelTol, "hi");
}

// ---------------------------------------------------------------------------
// Query-level intervals ride the same engine.
// ---------------------------------------------------------------------------

/// The materialized statistic QueryCorrector bootstraps for `aggregate`:
/// the same estimator construction as CorrectFiltered, evaluated on a full
/// IntegratedSample. `advice` is the answer's own §6.5 verdict.
std::function<double(const IntegratedSample&)> MaterializedStatistic(
    const QueryCorrector::Options& options, AggregateKind aggregate,
    const Advice& advice) {
  // SUM and COUNT run Monte-Carlo under the same rule: an explicit mc, or
  // auto when the advice says so.
  const CorrectionEstimator choice = options.estimator;
  const bool use_mc =
      choice == CorrectionEstimator::kMonteCarlo ||
      (choice == CorrectionEstimator::kAuto &&
       advice.choice == EstimatorChoice::kMonteCarlo);
  const MonteCarloOptions mc = options.monte_carlo;
  switch (aggregate) {
    case AggregateKind::kSum: {
      std::shared_ptr<const SumEstimator> estimator;
      if (use_mc) {
        estimator = std::make_shared<MonteCarloEstimator>(mc);
      } else if (choice == CorrectionEstimator::kNaive) {
        estimator = std::make_shared<NaiveEstimator>();
      } else if (choice == CorrectionEstimator::kFreq) {
        estimator = std::make_shared<FrequencyEstimator>();
      } else {
        estimator = std::make_shared<BucketSumEstimator>();
      }
      return [estimator](const IntegratedSample& rep) {
        return estimator->EstimateImpact(rep).corrected_sum;
      };
    }
    case AggregateKind::kCount: {
      const CountEstimator count(
          use_mc ? CountMethod::kMonteCarlo : CountMethod::kChao92, mc);
      return [count](const IntegratedSample& rep) {
        return count.EstimateCount(rep).corrected_sum;
      };
    }
    case AggregateKind::kAvg:
      return [avg = AvgEstimator()](const IntegratedSample& rep) {
        return avg.EstimateAvg(rep).corrected_sum;
      };
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      const MinMaxEstimator minmax(options.minmax_claim_threshold);
      const bool want_max = aggregate == AggregateKind::kMax;
      return [minmax, want_max](const IntegratedSample& rep) {
        return (want_max ? minmax.EstimateMax(rep) : minmax.EstimateMin(rep))
            .observed_extreme;
      };
    }
  }
  return nullptr;
}

TEST(QueryBootstrapConformance, EveryEstimatorAndAggregateMatchesOracle) {
  const struct {
    const char* name;
    IntegratedSample sample;
  } samples[] = {{"average", SyntheticSample()},
                 {"majority", SyntheticSample(9, FusionPolicy::kMajority)}};
  const struct {
    const char* name;
    CorrectionEstimator estimator;
  } estimators[] = {{"auto", CorrectionEstimator::kAuto},
                    {"bucket", CorrectionEstimator::kBucket},
                    {"mc", CorrectionEstimator::kMonteCarlo},
                    {"naive", CorrectionEstimator::kNaive},
                    {"freq", CorrectionEstimator::kFreq}};
  const struct {
    const char* sql;
    AggregateKind aggregate;
  } queries[] = {{"SELECT SUM(value) FROM integrated", AggregateKind::kSum},
                 {"SELECT COUNT(value) FROM integrated", AggregateKind::kCount},
                 {"SELECT AVG(value) FROM integrated", AggregateKind::kAvg},
                 {"SELECT MIN(value) FROM integrated", AggregateKind::kMin},
                 {"SELECT MAX(value) FROM integrated", AggregateKind::kMax}};
  for (const auto& [sample_name, sample] : samples) {
    for (const auto& [estimator_name, estimator] : estimators) {
      for (const auto& [sql, aggregate] : queries) {
        const std::string what = std::string(sample_name) + "/" +
                                 estimator_name + "/" + sql;
        QueryCorrector::Options options;
        options.estimator = estimator;
        options.monte_carlo.runs_per_point = 2;
        options.monte_carlo.n_grid_steps = 4;
        options.attach_bootstrap = true;
        options.bootstrap.replicates = 12;
        const auto answer = QueryCorrector(options).CorrectSql(sample, sql);
        ASSERT_TRUE(answer.ok()) << what;
        ASSERT_TRUE(answer.value().bootstrap_valid) << what;
        EXPECT_GT(answer.value().bootstrap.finite_replicates, 0) << what;
        ExpectMatchesOracle(
            answer.value().bootstrap,
            oracle::MaterializedBootstrap(
                sample, options.bootstrap,
                MaterializedStatistic(options, aggregate,
                                      answer.value().advice)),
            what);
      }
    }
  }
}

}  // namespace
}  // namespace uuq
