// Fuzz/property suite for columnar fusion — ALL four policies, kMajority
// front and center: every columnar replicate (bootstrap and leave-one-out)
// must match the materialized IntegratedSample of the same draws
// bit-identically, entity for entity, including kMajority's mode selection
// and its tie-breaking by first occurrence in replay order.
//
// The samples here are adversarial for majority fusion: report values are
// drawn from tiny per-entity pools so replicates constantly create ties,
// flip modes, and drop report values entirely.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/bootstrap.h"
#include "core/bucket.h"
#include "core/estimate.h"
#include "integration/sample.h"
#include "integration/sample_view.h"
#include "materialized_oracle.h"

namespace uuq {
namespace {

const FusionPolicy kAllPolicies[] = {FusionPolicy::kAverage,
                                     FusionPolicy::kFirst, FusionPolicy::kLast,
                                     FusionPolicy::kMajority};

/// A random sample tuned to stress fusion: few distinct report values per
/// entity (ties are the norm, not the exception), heavy entity overlap
/// across sources.
IntegratedSample TieHeavySample(Rng* rng, FusionPolicy policy,
                                int max_sources = 12, int max_entities = 30,
                                int max_observations = 240) {
  IntegratedSample sample(policy);
  const int num_sources = 2 + static_cast<int>(rng->NextBounded(max_sources));
  const int pool = 1 + static_cast<int>(rng->NextBounded(max_entities));
  const int n = 1 + static_cast<int>(rng->NextBounded(max_observations));
  for (int i = 0; i < n; ++i) {
    const int s = static_cast<int>(rng->NextBounded(num_sources));
    const int e = static_cast<int>(rng->NextBounded(pool));
    // Each entity reports one of 3 canonical values keyed off its id, so
    // multiplicity-2 ties and mode flips happen constantly under draws.
    const double value =
        10.0 * (e + 1) + static_cast<double>(rng->NextBounded(3));
    sample.Add("src-" + std::to_string(s), "entity-" + std::to_string(e),
               value);
  }
  return sample;
}

void ExpectBitIdenticalToMaterialized(const ReplicateSample& rep,
                                      const IntegratedSample& sample,
                                      const SampleView& view,
                                      const IntegratedSample& mat,
                                      const std::string& what) {
  // The replicate lists the materialized entities in view-rank order.
  ASSERT_EQ(rep.entities.size(), static_cast<size_t>(mat.c())) << what;
  const std::vector<EntityStat> entities =
      oracle::EntitiesInViewRankOrder(sample, view, mat);
  for (size_t i = 0; i < rep.entities.size(); ++i) {
    EXPECT_EQ(rep.entities[i].multiplicity, entities[i].multiplicity)
        << what << " entity " << i;
    // Bit-identical fused value, not just approximately equal.
    EXPECT_EQ(rep.entities[i].value, entities[i].value)
        << what << " entity " << i << " (" << entities[i].key << ")";
  }
  EXPECT_EQ(rep.source_sizes, mat.SourceSizeVector()) << what;
}

TEST(MajorityColumnarFuzz, BootstrapReplicatesMatchMaterialized) {
  Rng rng(0xA11);
  ReplicateScratch scratch;  // one scratch across every policy and trial
  ReplicateSample rep;
  for (int trial = 0; trial < 80; ++trial) {
    const FusionPolicy policy = kAllPolicies[trial % 4];
    const IntegratedSample sample = TieHeavySample(&rng, policy);
    const SampleView view(sample);
    std::vector<int32_t> draws;
    view.DrawBootstrapSources(&rng, &draws);
    view.BuildReplicate(draws, &scratch, &rep);
    ExpectBitIdenticalToMaterialized(
        rep, sample, view, oracle::MaterializeReplicate(sample, draws),
        "trial " + std::to_string(trial) + " policy " +
            std::to_string(static_cast<int>(policy)));
  }
}

TEST(MajorityColumnarFuzz, LeaveOneOutMatchesMaterialized) {
  Rng rng(0xA12);
  ReplicateScratch scratch;
  ReplicateSample rep;
  for (int trial = 0; trial < 24; ++trial) {
    const FusionPolicy policy = kAllPolicies[trial % 4];
    const IntegratedSample sample = TieHeavySample(&rng, policy);
    const SampleView view(sample);
    for (int32_t excluded = 0;
         excluded < static_cast<int32_t>(view.num_sources()); ++excluded) {
      view.BuildLeaveOneOut(excluded, &scratch, &rep);
      ExpectBitIdenticalToMaterialized(
          rep, sample, view, oracle::MaterializeLeaveOneOut(sample, excluded),
          "trial " + std::to_string(trial) + " excluded " +
              std::to_string(excluded));
    }
  }
}

TEST(MajorityColumnar, TieBreaksByFirstOccurrenceInReplayOrder) {
  // Entity "x" gets reports 7 (source a), 9 (source b), 9 (source c),
  // 7 (source d): a global 2-2 tie. The winner must be whichever value
  // OCCURS FIRST in the replicate's replay order — MajorityVote's tie rule
  // (integration/fusion.h) — so it flips with the draw order.
  IntegratedSample sample(FusionPolicy::kMajority);
  sample.Add("a", "x", 7.0);
  sample.Add("b", "x", 9.0);
  sample.Add("c", "x", 9.0);
  sample.Add("d", "x", 7.0);
  const SampleView view(sample);
  ReplicateScratch scratch;
  ReplicateSample rep;

  struct Case {
    std::vector<int32_t> draws;
    double expected;
  };
  // Source indices are id-sorted: a=0, b=1, c=2, d=3.
  const Case cases[] = {
      {{0, 1, 2, 3}, 7.0},  // 7 first, 2-2 tie -> 7
      {{1, 0, 2, 3}, 9.0},  // 9 first, 2-2 tie -> 9
      {{1, 2, 0, 0}, 9.0},  // 9 leads 2-1 before 7 catches up -> still 9
      {{0, 3, 1, 1}, 7.0},  // 7 reaches 2 first, then 9 ties -> 7
      {{1, 1, 1, 0}, 9.0},  // 9 outright majority
      {{0, 0, 3, 1}, 7.0},  // 7 outright majority
  };
  for (const Case& c : cases) {
    view.BuildReplicate(c.draws, &scratch, &rep);
    ASSERT_EQ(rep.entities.size(), 1u);
    EXPECT_EQ(rep.entities[0].value, c.expected);
    // And the materialized reference agrees, draw for draw.
    const IntegratedSample mat = oracle::MaterializeReplicate(sample, c.draws);
    EXPECT_EQ(mat.entities()[0].value, c.expected);
  }
}

TEST(MajorityColumnar, NanReportsNeverOutvoteFiniteValues) {
  // Reports match with ==, so a NaN report never shares a slot and never
  // wins while any finite report exists; with ONLY NaN reports the first
  // occurrence survives. The sample and the columnar fold run the same
  // MajorityVote, so both behaviours hold in each.
  IntegratedSample sample(FusionPolicy::kMajority);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  sample.Add("a", "mixed", nan);
  sample.Add("b", "mixed", 5.0);
  sample.Add("a", "allnan", nan);
  sample.Add("b", "allnan", nan);
  const SampleView view(sample);
  ReplicateScratch scratch;
  ReplicateSample rep;
  for (const std::vector<int32_t>& draws :
       {std::vector<int32_t>{0, 1}, std::vector<int32_t>{1, 0},
        std::vector<int32_t>{0, 0, 1}}) {
    view.BuildReplicate(draws, &scratch, &rep);
    const IntegratedSample mat = oracle::MaterializeReplicate(sample, draws);
    ASSERT_EQ(rep.entities.size(), static_cast<size_t>(mat.c()));
    const std::vector<EntityStat> entities =
        oracle::EntitiesInViewRankOrder(sample, view, mat);
    for (size_t i = 0; i < rep.entities.size(); ++i) {
      const double a = rep.entities[i].value;
      const double b = entities[i].value;
      if (std::isnan(b)) {
        EXPECT_TRUE(std::isnan(a)) << "entity " << entities[i].key;
      } else {
        EXPECT_EQ(a, b) << "entity " << entities[i].key;
      }
    }
  }
}

TEST(MajorityColumnar, StatsFoldMatchesMaterializedFold) {
  // SampleStats::FromReplicate over a kMajority replicate must equal
  // FromSample over the materialized sample — the build folds its carried
  // stats in first-touch order.
  Rng rng(0xA13);
  ReplicateScratch scratch;
  ReplicateSample rep;
  for (int trial = 0; trial < 20; ++trial) {
    const IntegratedSample sample =
        TieHeavySample(&rng, FusionPolicy::kMajority);
    const SampleView view(sample);
    std::vector<int32_t> draws;
    view.DrawBootstrapSources(&rng, &draws);
    view.BuildReplicate(draws, &scratch, &rep);
    const SampleStats a = SampleStats::FromReplicate(rep);
    const SampleStats b =
        SampleStats::FromSample(oracle::MaterializeReplicate(sample, draws));
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.c, b.c);
    EXPECT_EQ(a.f1, b.f1);
    EXPECT_EQ(a.sum_mm1, b.sum_mm1);
    EXPECT_EQ(a.value_sum, b.value_sum);
    EXPECT_EQ(a.value_sum_sq, b.value_sum_sq);
    EXPECT_EQ(a.singleton_sum, b.singleton_sum);
  }
}

TEST(MajorityColumnar, BucketEstimatesMatchAcrossEvaluationModes) {
  // End to end: the bucket estimator's columnar replicate estimate equals
  // EstimateImpact on the materialized replicate, for every policy.
  Rng rng(0xA14);
  const BucketSumEstimator bucket;
  ReplicateScratch scratch;
  ReplicateSample rep;
  for (int trial = 0; trial < 32; ++trial) {
    const FusionPolicy policy = kAllPolicies[trial % 4];
    const IntegratedSample sample = TieHeavySample(&rng, policy);
    const SampleView view(sample);
    std::vector<int32_t> draws;
    view.DrawBootstrapSources(&rng, &draws);
    view.BuildReplicate(draws, &scratch, &rep);
    const Estimate columnar = bucket.EstimateReplicate(rep);
    const Estimate materialized =
        bucket.EstimateImpact(oracle::MaterializeReplicate(sample, draws));
    EXPECT_EQ(columnar.delta, materialized.delta) << "trial " << trial;
    EXPECT_EQ(columnar.corrected_sum, materialized.corrected_sum)
        << "trial " << trial;
    EXPECT_EQ(columnar.n_hat, materialized.n_hat) << "trial " << trial;
    EXPECT_EQ(columnar.num_buckets, materialized.num_buckets)
        << "trial " << trial;
  }
}

TEST(MajorityColumnar, BootstrapIntervalsAgreeAcrossPathsAndThreads) {
  Rng rng(0xA15);
  const IntegratedSample sample =
      TieHeavySample(&rng, FusionPolicy::kMajority, /*max_sources=*/10,
                     /*max_entities=*/25, /*max_observations=*/200);
  const BucketSumEstimator bucket;
  BootstrapOptions options;
  options.replicates = 24;

  ThreadPool serial(1);
  ThreadPool quad(4);
  options.pool = &serial;
  const BootstrapInterval columnar = BootstrapCorrectedSum(sample, bucket,
                                                           options);
  const oracle::Replicates materialized = oracle::MaterializedBootstrap(
      sample, options, [&bucket](const IntegratedSample& rep) {
        return bucket.EstimateImpact(rep).corrected_sum;
      });
  options.pool = &quad;
  const BootstrapInterval threaded = BootstrapCorrectedSum(sample, bucket,
                                                           options);

  const std::vector<double> finite =
      oracle::SortedFinite(columnar.by_replicate);
  ASSERT_EQ(finite.size(), materialized.values.size());
  ASSERT_EQ(columnar.by_replicate.size(), threaded.by_replicate.size());
  for (size_t i = 0; i < finite.size(); ++i) {
    // Columnar vs materialized: bit-identical replicate for replicate.
    EXPECT_EQ(finite[i], materialized.values[i]) << i;
  }
  for (size_t i = 0; i < columnar.by_replicate.size(); ++i) {
    // Thread count never changes a replicate value.
    EXPECT_EQ(columnar.by_replicate[i], threaded.by_replicate[i]) << i;
  }
  EXPECT_EQ(columnar.lo, threaded.lo);
  EXPECT_EQ(columnar.hi, threaded.hi);
}

}  // namespace
}  // namespace uuq
