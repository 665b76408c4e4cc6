// Property/fuzz tests for the columnar SampleView: random IntegratedSamples
// must round-trip losslessly, and every columnar replicate must match the
// materialized IntegratedSample of the same draws entity for entity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/estimate.h"
#include "integration/sample.h"
#include "integration/sample_view.h"
#include "materialized_oracle.h"

namespace uuq {
namespace {

/// A random sample: up to `max_sources` sources reporting entities from a
/// shared pool (heavy overlap so multiplicities and fusion get exercised),
/// values spanning sign and magnitude.
IntegratedSample RandomSample(Rng* rng, FusionPolicy policy,
                              int max_sources = 8, int max_entities = 40,
                              int max_observations = 200) {
  IntegratedSample sample(policy);
  const int num_sources = 1 + static_cast<int>(rng->NextBounded(max_sources));
  const int pool = 1 + static_cast<int>(rng->NextBounded(max_entities));
  const int n = 1 + static_cast<int>(rng->NextBounded(max_observations));
  for (int i = 0; i < n; ++i) {
    const int s = static_cast<int>(rng->NextBounded(num_sources));
    const int e = static_cast<int>(rng->NextBounded(pool));
    const double value = rng->NextUniform(-1e3, 1e3);
    // Occasionally categorized, to exercise the materialized LOO replay.
    const std::string category =
        rng->NextBernoulli(0.2) ? "cat" + std::to_string(e % 3) : "";
    sample.Add("src-" + std::to_string(s), "entity " + std::to_string(e),
               value, category);
  }
  return sample;
}

void ExpectReplicateMatchesMaterialized(const ReplicateSample& rep,
                                        const IntegratedSample& sample,
                                        const SampleView& view,
                                        const IntegratedSample& mat) {
  // Entity-by-entity: the columnar replicate must list the materialized
  // entities in view-rank order with bitwise-equal fused values.
  ASSERT_EQ(rep.entities.size(), static_cast<size_t>(mat.c()));
  const std::vector<EntityStat> entities =
      oracle::EntitiesInViewRankOrder(sample, view, mat);
  for (size_t i = 0; i < rep.entities.size(); ++i) {
    EXPECT_EQ(rep.entities[i].multiplicity, entities[i].multiplicity)
        << "entity " << i;
    EXPECT_DOUBLE_EQ(rep.entities[i].value, entities[i].value)
        << "entity " << i;
  }
  // Source sizes in the materialized sample's id-sorted order.
  EXPECT_EQ(rep.source_sizes, mat.SourceSizeVector());
  // Sufficient statistics, folded in the same (first-touch) order.
  const SampleStats a = SampleStats::FromReplicate(rep);
  const SampleStats b = SampleStats::FromSample(mat);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.c, b.c);
  EXPECT_EQ(a.f1, b.f1);
  EXPECT_EQ(a.sum_mm1, b.sum_mm1);
  EXPECT_DOUBLE_EQ(a.value_sum, b.value_sum);
  EXPECT_DOUBLE_EQ(a.value_sum_sq, b.value_sum_sq);
  EXPECT_DOUBLE_EQ(a.singleton_sum, b.singleton_sum);
}

TEST(SampleViewRoundTrip, LosslessFlattening) {
  Rng rng(0xF1A7);
  const FusionPolicy policies[] = {FusionPolicy::kAverage, FusionPolicy::kFirst,
                                   FusionPolicy::kLast,
                                   FusionPolicy::kMajority};
  for (int trial = 0; trial < 40; ++trial) {
    const FusionPolicy policy = policies[trial % 4];
    const IntegratedSample sample = RandomSample(&rng, policy);
    const SampleView view(sample);
    EXPECT_EQ(view.num_observations(), sample.n());
    EXPECT_EQ(view.num_entities(), sample.c());
    EXPECT_EQ(view.num_sources(), sample.num_sources());
    EXPECT_EQ(view.policy(), sample.policy());
    // Sources come back sorted by id with their original sizes.
    ASSERT_TRUE(std::is_sorted(view.source_ids().begin(),
                               view.source_ids().end()));
    int64_t total = 0;
    for (int32_t s = 0; s < static_cast<int32_t>(view.num_sources()); ++s) {
      const auto it = sample.source_sizes().find(view.source_ids()[s]);
      ASSERT_NE(it, sample.source_sizes().end());
      EXPECT_EQ(view.source_size(s), it->second);
      total += view.source_size(s);
    }
    EXPECT_EQ(total, sample.n());
  }
}

TEST(SampleViewProperty, BootstrapReplicateMatchesMaterialized) {
  Rng rng(0xB00);
  const FusionPolicy policies[] = {FusionPolicy::kAverage, FusionPolicy::kFirst,
                                   FusionPolicy::kLast,
                                   FusionPolicy::kMajority};
  ReplicateScratch scratch;  // shared across all trials: reuse must be safe
  ReplicateSample rep;
  for (int trial = 0; trial < 60; ++trial) {
    const FusionPolicy policy = policies[trial % 4];
    // Up to 16 sources so the "bs10" lexicographic source-size ordering
    // regime (draws >= 11) is exercised directly, not just numerically.
    const IntegratedSample sample =
        RandomSample(&rng, policy, /*max_sources=*/16, /*max_entities=*/40,
                     /*max_observations=*/300);
    const SampleView view(sample);

    std::vector<int32_t> draws;
    view.DrawBootstrapSources(&rng, &draws);
    ASSERT_EQ(draws.size(), static_cast<size_t>(view.num_sources()));
    for (int32_t d : draws) {
      ASSERT_GE(d, 0);
      ASSERT_LT(d, static_cast<int32_t>(view.num_sources()));
    }

    view.BuildReplicate(draws, &scratch, &rep);
    ExpectReplicateMatchesMaterialized(
        rep, sample, view, oracle::MaterializeReplicate(sample, draws));

    // Per-source multiplicity conservation: the replicate holds exactly the
    // drawn sources' observations, nothing more, nothing less.
    int64_t expected_n = 0;
    for (int32_t d : draws) expected_n += view.source_size(d);
    int64_t actual_n = 0;
    for (const EntityPoint& point : rep.entities) {
      actual_n += point.multiplicity;
    }
    EXPECT_EQ(actual_n, expected_n);
    int64_t sizes_n = 0;
    for (int64_t s : rep.source_sizes) sizes_n += s;
    EXPECT_EQ(sizes_n, expected_n);
  }
}

TEST(SampleViewProperty, LeaveOneOutMatchesMaterialized) {
  Rng rng(0x100);
  const FusionPolicy policies[] = {FusionPolicy::kAverage, FusionPolicy::kFirst,
                                   FusionPolicy::kLast,
                                   FusionPolicy::kMajority};
  ReplicateScratch scratch;
  ReplicateSample rep;
  for (int trial = 0; trial < 30; ++trial) {
    const FusionPolicy policy = policies[trial % 4];
    const IntegratedSample sample = RandomSample(&rng, policy);
    const SampleView view(sample);
    for (int32_t excluded = 0;
         excluded < static_cast<int32_t>(view.num_sources()); ++excluded) {
      view.BuildLeaveOneOut(excluded, &scratch, &rep);
      ExpectReplicateMatchesMaterialized(
          rep, sample, view, oracle::MaterializeLeaveOneOut(sample, excluded));
      EXPECT_EQ(rep.source_sizes.size(),
                static_cast<size_t>(view.num_sources()) - 1);
    }
  }
}

TEST(SampleViewProperty, MaterializedLeaveOneOutMatchesLegacyReplay) {
  // The materialized LOO must equal replaying the arrival-order observation
  // log minus the excluded source — the exact pre-columnar jackknife body.
  Rng rng(0x3E11);
  const IntegratedSample sample = RandomSample(&rng, FusionPolicy::kAverage);
  const SampleView view(sample);
  for (int32_t excluded = 0;
       excluded < static_cast<int32_t>(view.num_sources()); ++excluded) {
    const std::string& excluded_id =
        view.source_ids()[static_cast<size_t>(excluded)];
    IntegratedSample legacy(sample.policy());
    for (const RawObservation& entry : sample.raw_log()) {
      const std::string& source = sample.source_names()[entry.source_index];
      if (source == excluded_id) continue;
      const EntityStat& entity = sample.entities()[entry.entity_index];
      legacy.Add(source, entity.key, entry.value, entity.category);
    }
    const IntegratedSample loo =
        oracle::MaterializeLeaveOneOut(sample, excluded);
    ASSERT_EQ(loo.n(), legacy.n());
    ASSERT_EQ(loo.c(), legacy.c());
    EXPECT_DOUBLE_EQ(loo.ObservedSum(), legacy.ObservedSum());
    EXPECT_DOUBLE_EQ(SampleStats::FromSample(loo).singleton_sum,
                     SampleStats::FromSample(legacy).singleton_sum);
    for (int64_t i = 0; i < loo.c(); ++i) {
      EXPECT_EQ(loo.entities()[i].key, legacy.entities()[i].key);
      EXPECT_DOUBLE_EQ(loo.entities()[i].value, legacy.entities()[i].value);
    }
  }
}

TEST(SampleViewProperty, ScratchReuseIsDeterministic) {
  Rng rng(0x5C);
  const IntegratedSample a = RandomSample(&rng, FusionPolicy::kAverage);
  const IntegratedSample b = RandomSample(&rng, FusionPolicy::kLast);
  const SampleView view_a(a);
  const SampleView view_b(b);
  std::vector<int32_t> draws_a, draws_b;
  Rng draw_rng(7);
  view_a.DrawBootstrapSources(&draw_rng, &draws_a);
  view_b.DrawBootstrapSources(&draw_rng, &draws_b);

  ReplicateScratch scratch;
  ReplicateSample first, again;
  // Interleave two views through ONE scratch; rebuilding the same draws must
  // reproduce the same replicate bit for bit (the resting-state invariant).
  view_a.BuildReplicate(draws_a, &scratch, &first);
  view_b.BuildReplicate(draws_b, &scratch, &again);
  view_a.BuildReplicate(draws_a, &scratch, &again);
  ASSERT_EQ(first.entities.size(), again.entities.size());
  for (size_t i = 0; i < first.entities.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.entities[i].value, again.entities[i].value);
    EXPECT_EQ(first.entities[i].multiplicity, again.entities[i].multiplicity);
  }
  EXPECT_EQ(first.source_sizes, again.source_sizes);
}

TEST(SampleViewProperty, ReplicateTouchingEveryEntityMatchesMaterialized) {
  // Drawing every source (some twice) touches every entity, and the
  // observations after the last first touch keep writing the first-touch
  // log's spare slot; the rank-order entities must still cover every
  // entity once, in rank order.
  Rng rng(0xA11);
  const FusionPolicy policies[] = {FusionPolicy::kAverage, FusionPolicy::kFirst,
                                   FusionPolicy::kLast,
                                   FusionPolicy::kMajority};
  ReplicateScratch scratch;
  ReplicateSample rep;
  for (int trial = 0; trial < 40; ++trial) {
    const IntegratedSample sample = RandomSample(&rng, policies[trial % 4]);
    const SampleView view(sample);
    std::vector<int32_t> draws;
    for (int32_t s = 0; s < static_cast<int32_t>(view.num_sources()); ++s) {
      draws.push_back(s);
    }
    for (int32_t s = 0; s < static_cast<int32_t>(view.num_sources()); ++s) {
      draws.push_back(s);
    }
    view.BuildReplicate(draws, &scratch, &rep);
    ASSERT_EQ(rep.entities.size(), static_cast<size_t>(view.num_entities()));
    // Every entity, each at its rank: position r holds the sample's entity
    // ranked r, whose multiplicity the doubled draws double.
    std::vector<int32_t> by_rank(static_cast<size_t>(view.num_entities()), -1);
    for (size_t e = 0; e < view.entity_rank().size(); ++e) {
      by_rank[static_cast<size_t>(view.entity_rank()[e])] =
          static_cast<int32_t>(e);
    }
    for (size_t r = 0; r < by_rank.size(); ++r) {
      ASSERT_GE(by_rank[r], 0) << "rank " << r;
      const EntityStat& entity =
          sample.entities()[static_cast<size_t>(by_rank[r])];
      EXPECT_EQ(rep.entities[r].multiplicity, 2 * entity.multiplicity)
          << "rank " << r;
    }
    ExpectReplicateMatchesMaterialized(
        rep, sample, view, oracle::MaterializeReplicate(sample, draws));
  }
}

TEST(SampleViewProperty, DrawConsumesRngLikeLegacyResampler) {
  // The legacy map-based body drew l times with NextBounded(l); seed
  // compatibility requires the exact same consumption.
  Rng rng(0xD1CE);
  const IntegratedSample sample = RandomSample(&rng, FusionPolicy::kAverage);
  const SampleView view(sample);
  const uint64_t l = static_cast<uint64_t>(view.num_sources());

  Rng a(42), b(42);
  std::vector<int32_t> draws;
  view.DrawBootstrapSources(&a, &draws);
  for (size_t i = 0; i < draws.size(); ++i) {
    EXPECT_EQ(static_cast<uint64_t>(draws[i]), b.NextBounded(l)) << i;
  }
  // Both generators must now be in the same state.
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(SampleViewProperty, EmptySample) {
  IntegratedSample empty;
  const SampleView view(empty);
  EXPECT_EQ(view.num_sources(), 0);
  EXPECT_EQ(view.num_observations(), 0);
  Rng rng(1);
  std::vector<int32_t> draws;
  view.DrawBootstrapSources(&rng, &draws);
  EXPECT_TRUE(draws.empty());
  ReplicateScratch scratch;
  ReplicateSample rep;
  view.BuildReplicate(draws, &scratch, &rep);
  EXPECT_TRUE(rep.entities.empty());
  EXPECT_TRUE(rep.source_sizes.empty());
  EXPECT_TRUE(oracle::MaterializeReplicate(empty, draws).empty());
}

TEST(SampleViewProperty, MajorityPolicyBuildsColumnar) {
  // kMajority folds columnar through the report-slot histogram; the tiny
  // deterministic case pins the mode and the first-occurrence tie-break
  // (the fuzz suite in majority_columnar_test.cc covers the general case).
  IntegratedSample sample(FusionPolicy::kMajority);
  sample.Add("a", "x", 1.0);
  sample.Add("b", "x", 2.0);
  sample.Add("c", "x", 2.0);
  const SampleView view(sample);
  ReplicateScratch scratch;
  ReplicateSample rep;

  // Draws {a, b, c}: reports 1, 2, 2 — the mode is 2.
  view.BuildReplicate({0, 1, 2}, &scratch, &rep);
  ASSERT_EQ(rep.entities.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.entities[0].value, 2.0);
  EXPECT_EQ(rep.entities[0].multiplicity, 3);

  // Draws {a, b}: 1 and 2 tie — the first occurrence in replay order wins.
  view.BuildReplicate({0, 1}, &scratch, &rep);
  ASSERT_EQ(rep.entities.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.entities[0].value, 1.0);
  view.BuildReplicate({1, 0}, &scratch, &rep);
  EXPECT_DOUBLE_EQ(rep.entities[0].value, 2.0);

  // Each build matches the materialized reference exactly.
  ExpectReplicateMatchesMaterialized(
      rep, sample, view, oracle::MaterializeReplicate(sample, {1, 0}));
}

}  // namespace
}  // namespace uuq
