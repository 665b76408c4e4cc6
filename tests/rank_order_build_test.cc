// Contract of the rank-order replicate build (integration/sample_view.h):
// for every fusion policy, with NaN reports and value ties, every
// bootstrap and leave-one-out replicate
//
//  * lists the materialized replicate's entities in view-rank order, bit for
//    bit (oracle::EntitiesInViewRankOrder);
//  * carries SampleStats equal to SampleStats::FromSample of the
//    materialized replicate in every field, bit for bit — the build folds
//    them in first-touch order;
//  * rebuilds, through IndexScratch::RebuildIndex, the same index as a
//    SortedEntityIndex over the materialized entities: every point and all
//    seven prefix columns, bitwise.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/bucket.h"
#include "integration/sample.h"
#include "integration/sample_stats.h"
#include "integration/sample_view.h"
#include "materialized_oracle.h"

namespace uuq {
namespace {

const FusionPolicy kAllPolicies[] = {FusionPolicy::kAverage,
                                     FusionPolicy::kFirst, FusionPolicy::kLast,
                                     FusionPolicy::kMajority};

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Heavy source overlap, report values from a small pool (value ties across
/// entities, mode ties under kMajority) and ~10% NaN reports.
IntegratedSample TieAndNanSample(Rng* rng, FusionPolicy policy) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  IntegratedSample sample(policy);
  const int num_sources = 2 + static_cast<int>(rng->NextBounded(12));
  const int pool = 1 + static_cast<int>(rng->NextBounded(60));
  const int n = 1 + static_cast<int>(rng->NextBounded(400));
  for (int i = 0; i < n; ++i) {
    const int s = static_cast<int>(rng->NextBounded(num_sources));
    const int e = static_cast<int>(rng->NextBounded(pool));
    double value = 0.5 * static_cast<double>(rng->NextBounded(8));
    if (rng->NextBernoulli(0.1)) value = nan;
    sample.Add("src-" + std::to_string(s), "entity-" + std::to_string(e),
               value);
  }
  return sample;
}

void ExpectStatsBitIdentical(const SampleStats& a, const SampleStats& b,
                             const std::string& what) {
  EXPECT_EQ(a.n, b.n) << what;
  EXPECT_EQ(a.c, b.c) << what;
  EXPECT_EQ(a.f1, b.f1) << what;
  EXPECT_EQ(a.sum_mm1, b.sum_mm1) << what;
  EXPECT_EQ(Bits(a.value_sum), Bits(b.value_sum)) << what;
  EXPECT_EQ(Bits(a.value_sum_sq), Bits(b.value_sum_sq)) << what;
  EXPECT_EQ(Bits(a.singleton_sum), Bits(b.singleton_sum)) << what;
}

void ExpectSameColumn(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i])) << what << " row " << i;
  }
}

/// The three clauses of the contract for one built replicate.
void ExpectBuildContract(const ReplicateSample& rep,
                         const IntegratedSample& sample,
                         const SampleView& view, const IntegratedSample& mat,
                         IndexScratch* scratch, const std::string& what) {
  const std::vector<EntityStat> ranked =
      oracle::EntitiesInViewRankOrder(sample, view, mat);
  ASSERT_EQ(rep.entities.size(), ranked.size()) << what;
  for (size_t i = 0; i < ranked.size(); ++i) {
    ASSERT_EQ(Bits(rep.entities[i].value), Bits(ranked[i].value))
        << what << " entity " << i << " (" << ranked[i].key << ")";
    ASSERT_EQ(rep.entities[i].multiplicity, ranked[i].multiplicity)
        << what << " entity " << i << " (" << ranked[i].key << ")";
  }

  ASSERT_TRUE(rep.stats.has_value()) << what;
  ExpectStatsBitIdentical(*rep.stats, SampleStats::FromSample(mat), what);
  ExpectStatsBitIdentical(SampleStats::FromReplicate(rep),
                          SampleStats::FromSample(mat), what);

  const SortedEntityIndex& rebuilt = scratch->RebuildIndex(rep);
  const SortedEntityIndex fresh(mat.entities());
  ASSERT_EQ(rebuilt.size(), fresh.size()) << what;
  for (size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(Bits(rebuilt.entities()[i].value),
              Bits(fresh.entities()[i].value))
        << what << " point " << i;
    ASSERT_EQ(rebuilt.entities()[i].multiplicity,
              fresh.entities()[i].multiplicity)
        << what << " point " << i;
  }
  const SortedEntityIndex::Prefix& pa = rebuilt.prefix();
  const SortedEntityIndex::Prefix& pb = fresh.prefix();
  ExpectSameColumn(pa.n, pb.n, what + " n");
  ExpectSameColumn(pa.c, pb.c, what + " c");
  ExpectSameColumn(pa.f1, pb.f1, what + " f1");
  ExpectSameColumn(pa.sum_mm1, pb.sum_mm1, what + " sum_mm1");
  ExpectSameColumn(pa.value_sum, pb.value_sum, what + " value_sum");
  ExpectSameColumn(pa.value_sum_sq, pb.value_sum_sq, what + " value_sum_sq");
  ExpectSameColumn(pa.singleton_sum, pb.singleton_sum, what + " singletons");
}

TEST(RankOrderBuild, BootstrapReplicatesKeepTheContract) {
  Rng rng(0x2A0);
  ReplicateScratch rscratch;  // shared across policies, samples and draws
  ReplicateSample rep;
  IndexScratch iscratch;
  for (int trial = 0; trial < 80; ++trial) {
    const FusionPolicy policy = kAllPolicies[trial % 4];
    const IntegratedSample sample = TieAndNanSample(&rng, policy);
    const SampleView view(sample);
    for (int b = 0; b < 3; ++b) {
      std::vector<int32_t> draws;
      view.DrawBootstrapSources(&rng, &draws);
      view.BuildReplicate(draws, &rscratch, &rep);
      ExpectBuildContract(rep, sample, view,
                          oracle::MaterializeReplicate(sample, draws),
                          &iscratch,
                          "trial " + std::to_string(trial) + " policy " +
                              std::to_string(static_cast<int>(policy)) +
                              " replicate " + std::to_string(b));
    }
  }
}

TEST(RankOrderBuild, LeaveOneOutReplicatesKeepTheContract) {
  Rng rng(0x2A1);
  ReplicateScratch rscratch;
  ReplicateSample rep;
  IndexScratch iscratch;
  for (int trial = 0; trial < 24; ++trial) {
    const FusionPolicy policy = kAllPolicies[trial % 4];
    const IntegratedSample sample = TieAndNanSample(&rng, policy);
    const SampleView view(sample);
    for (int32_t excluded = 0;
         excluded < static_cast<int32_t>(view.num_sources()); ++excluded) {
      view.BuildLeaveOneOut(excluded, &rscratch, &rep);
      ExpectBuildContract(rep, sample, view,
                          oracle::MaterializeLeaveOneOut(sample, excluded),
                          &iscratch,
                          "trial " + std::to_string(trial) + " policy " +
                              std::to_string(static_cast<int>(policy)) +
                              " excluded " + std::to_string(excluded));
    }
  }
}

TEST(RankOrderBuild, FilteredSamplesKeepTheContract) {
  // A Filter() result carries its parent's fusion state, kMajority's report
  // slots included, and its view builds from that state.
  Rng rng(0x2A2);
  ReplicateScratch rscratch;
  ReplicateSample rep;
  IndexScratch iscratch;
  for (int trial = 0; trial < 24; ++trial) {
    const FusionPolicy policy = kAllPolicies[trial % 4];
    const IntegratedSample parent = TieAndNanSample(&rng, policy);
    std::set<std::string> kept;
    for (const EntityStat& e : parent.entities()) {
      if (rng.NextBernoulli(0.7)) kept.insert(e.key);
    }
    const IntegratedSample sample = parent.Filter(
        [&kept](const EntityStat& e) { return kept.count(e.key) > 0; });
    if (sample.empty()) continue;
    const SampleView view(sample);
    const std::string label = "trial " + std::to_string(trial) + " policy " +
                              std::to_string(static_cast<int>(policy));
    std::vector<int32_t> draws;
    view.DrawBootstrapSources(&rng, &draws);
    view.BuildReplicate(draws, &rscratch, &rep);
    ExpectBuildContract(rep, sample, view,
                        oracle::MaterializeReplicate(sample, draws), &iscratch,
                        label + " bootstrap");
    if (view.num_sources() < 2) continue;
    view.BuildLeaveOneOut(0, &rscratch, &rep);
    ExpectBuildContract(rep, sample, view,
                        oracle::MaterializeLeaveOneOut(sample, 0), &iscratch,
                        label + " leave-one-out");
  }
}

TEST(RankOrderBuild, AllNegativeZeroAverageKeepsItsSign) {
  // Under kAverage, "z" has reports {−0.0, −0.0} and "lone" one −0.0. The
  // sample and the replicate build run one fold, which starts from the
  // first report, so both fuse to −0.0 in every replicate.
  IntegratedSample sample(FusionPolicy::kAverage);
  sample.Add("a", "z", -0.0);
  sample.Add("b", "z", -0.0);
  sample.Add("a", "lone", -0.0);
  sample.Add("c", "w", 2.0);
  ASSERT_EQ(Bits(sample.entities()[0].value), Bits(-0.0));
  ASSERT_EQ(Bits(sample.entities()[1].value), Bits(-0.0));
  const SampleView view(sample);
  ReplicateScratch rscratch;
  ReplicateSample rep;
  IndexScratch iscratch;
  // Every draw multiset of the three sources.
  for (int32_t code = 0; code < 27; ++code) {
    const std::vector<int32_t> draws = {code % 3, code / 3 % 3, code / 9};
    view.BuildReplicate(draws, &rscratch, &rep);
    ExpectBuildContract(rep, sample, view,
                        oracle::MaterializeReplicate(sample, draws), &iscratch,
                        "draws " + std::to_string(code));
  }
  for (int32_t excluded = 0; excluded < 3; ++excluded) {
    view.BuildLeaveOneOut(excluded, &rscratch, &rep);
    ExpectBuildContract(rep, sample, view,
                        oracle::MaterializeLeaveOneOut(sample, excluded),
                        &iscratch, "excluded " + std::to_string(excluded));
  }
  // Ranks: the two −0.0 entities by index, then "w".
  view.BuildReplicate({0, 1, 2}, &rscratch, &rep);
  ASSERT_EQ(rep.entities.size(), 3u);
  EXPECT_EQ(Bits(rep.entities[0].value), Bits(-0.0));
  EXPECT_EQ(Bits(rep.entities[1].value), Bits(-0.0));
}

TEST(RankOrderBuild, HandAssembledReplicateFoldsItsEntities) {
  // Without carried stats, FromReplicate folds the entities as listed.
  ReplicateSample rep;
  rep.entities = {{3.0, 1}, {1.0, 2}, {2.5, 1}};
  SampleStats expected;
  for (const EntityPoint& point : rep.entities) expected.Add(point);
  ExpectStatsBitIdentical(SampleStats::FromReplicate(rep), expected,
                          "hand-assembled");
  // And RebuildIndex sorts an arbitrary order canonically.
  IndexScratch scratch;
  const SortedEntityIndex& index = scratch.RebuildIndex(rep);
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index.entities()[0].value, 1.0);
  EXPECT_EQ(index.entities()[1].value, 2.5);
  EXPECT_EQ(index.entities()[2].value, 3.0);
}

}  // namespace
}  // namespace uuq
