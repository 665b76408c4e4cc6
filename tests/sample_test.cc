#include "integration/sample.h"

#include <gtest/gtest.h>

#include "core/estimate.h"

namespace uuq {
namespace {

TEST(IntegratedSample, EmptyInitially) {
  IntegratedSample sample;
  EXPECT_TRUE(sample.empty());
  EXPECT_EQ(sample.n(), 0);
  EXPECT_EQ(sample.c(), 0);
  EXPECT_DOUBLE_EQ(sample.ObservedSum(), 0.0);
}

TEST(IntegratedSample, CountsDistinctAndTotal) {
  IntegratedSample sample;
  sample.Add("w1", "a", 10);
  sample.Add("w1", "b", 20);
  sample.Add("w2", "a", 10);
  EXPECT_EQ(sample.n(), 3);
  EXPECT_EQ(sample.c(), 2);
}

TEST(IntegratedSample, NormalizesEntityKeys) {
  IntegratedSample sample;
  sample.Add("w1", "IBM  Corp", 10);
  sample.Add("w2", " ibm corp", 10);
  EXPECT_EQ(sample.c(), 1);
  EXPECT_EQ(sample.entities()[0].multiplicity, 2);
}

TEST(IntegratedSample, FstatsTrackMultiplicities) {
  IntegratedSample sample;
  sample.Add("w1", "a", 1);   // a: 1
  sample.Add("w2", "a", 1);   // a: 2
  sample.Add("w1", "b", 2);   // b: 1
  sample.Add("w3", "a", 1);   // a: 3
  const auto stats = sample.Fstats();
  EXPECT_EQ(stats.f(1), 1);  // b
  EXPECT_EQ(stats.f(3), 1);  // a
  EXPECT_EQ(stats.n(), 4);
  EXPECT_EQ(stats.c(), 2);
}

TEST(IntegratedSample, ObservedSumWithAverageFusion) {
  IntegratedSample sample(FusionPolicy::kAverage);
  sample.Add("w1", "a", 10);
  EXPECT_DOUBLE_EQ(sample.ObservedSum(), 10.0);
  sample.Add("w2", "a", 20);  // fused value becomes 15
  EXPECT_DOUBLE_EQ(sample.ObservedSum(), 15.0);
  sample.Add("w3", "b", 5);
  EXPECT_DOUBLE_EQ(sample.ObservedSum(), 20.0);
}

TEST(IntegratedSample, FirstFusionKeepsFirstReport) {
  IntegratedSample sample(FusionPolicy::kFirst);
  sample.Add("w1", "a", 10);
  sample.Add("w2", "a", 99);
  EXPECT_DOUBLE_EQ(sample.entities()[0].value, 10.0);
}

TEST(IntegratedSample, LastFusionKeepsLatestReport) {
  IntegratedSample sample(FusionPolicy::kLast);
  sample.Add("w1", "a", 10);
  sample.Add("w2", "a", 99);
  EXPECT_DOUBLE_EQ(sample.entities()[0].value, 99.0);
}

TEST(IntegratedSample, MajorityFusionPicksMode) {
  IntegratedSample sample(FusionPolicy::kMajority);
  sample.Add("w1", "a", 7);
  sample.Add("w2", "a", 9);
  sample.Add("w3", "a", 9);
  EXPECT_DOUBLE_EQ(sample.entities()[0].value, 9.0);
}

TEST(IntegratedSample, MajorityTieBreaksToFirstSeen) {
  IntegratedSample sample(FusionPolicy::kMajority);
  sample.Add("w1", "a", 7);
  sample.Add("w2", "a", 9);
  EXPECT_DOUBLE_EQ(sample.entities()[0].value, 7.0);
}

TEST(IntegratedSample, SingletonSumTracksFusionChanges) {
  IntegratedSample sample(FusionPolicy::kAverage);
  sample.Add("w1", "a", 10);
  sample.Add("w1", "b", 30);
  EXPECT_DOUBLE_EQ(SampleStats::FromSample(sample).singleton_sum, 40.0);
  sample.Add("w2", "a", 20);  // a leaves singleton set
  EXPECT_DOUBLE_EQ(SampleStats::FromSample(sample).singleton_sum, 30.0);
  sample.Add("w2", "b", 50);  // b leaves too
  EXPECT_DOUBLE_EQ(SampleStats::FromSample(sample).singleton_sum, 0.0);
}

TEST(IntegratedSample, SourceSizes) {
  IntegratedSample sample;
  sample.Add("w1", "a", 1);
  sample.Add("w1", "b", 1);
  sample.Add("w2", "a", 1);
  EXPECT_EQ(sample.num_sources(), 2);
  EXPECT_EQ(sample.source_sizes().at("w1"), 2);
  EXPECT_EQ(sample.source_sizes().at("w2"), 1);
  const auto sizes = sample.SourceSizeVector();
  EXPECT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0] + sizes[1], 3);
}

TEST(IntegratedSample, ValuesFollowEntityOrder) {
  IntegratedSample sample;
  sample.Add("w1", "x", 5);
  sample.Add("w1", "y", 7);
  ASSERT_EQ(sample.c(), 2);
  EXPECT_EQ(sample.entities()[0].value, 5.0);
  EXPECT_EQ(sample.entities()[1].value, 7.0);
}

TEST(IntegratedSample, FilterKeepsMatchingEntitiesExactly) {
  IntegratedSample sample;
  sample.Add("w1", "big", 100);
  sample.Add("w2", "big", 100);
  sample.Add("w1", "small", 1);
  sample.Add("w3", "small", 3);

  const IntegratedSample filtered = sample.Filter(
      [](const EntityStat& e) { return e.value >= 50.0; });
  EXPECT_EQ(filtered.c(), 1);
  EXPECT_EQ(filtered.n(), 2);
  EXPECT_EQ(filtered.entities()[0].key, "big");
  EXPECT_EQ(filtered.entities()[0].multiplicity, 2);
}

TEST(IntegratedSample, FilterRecomputesSourceSizes) {
  IntegratedSample sample;
  sample.Add("w1", "big", 100);
  sample.Add("w1", "small", 1);
  sample.Add("w2", "small", 1);

  const IntegratedSample filtered = sample.Filter(
      [](const EntityStat& e) { return e.value < 50.0; });
  EXPECT_EQ(filtered.num_sources(), 2);
  EXPECT_EQ(filtered.source_sizes().at("w1"), 1);
  EXPECT_EQ(filtered.source_sizes().at("w2"), 1);
}

TEST(IntegratedSample, FilterJudgesOnFusedValue) {
  // Entity 'a' reports 10 and 30 -> fused 20; predicate >= 15 keeps it,
  // replaying BOTH raw observations.
  IntegratedSample sample(FusionPolicy::kAverage);
  sample.Add("w1", "a", 10);
  sample.Add("w2", "a", 30);
  const IntegratedSample filtered =
      sample.Filter([](const EntityStat& e) { return e.value >= 15.0; });
  EXPECT_EQ(filtered.c(), 1);
  EXPECT_EQ(filtered.n(), 2);
  EXPECT_DOUBLE_EQ(filtered.entities()[0].value, 20.0);
}

TEST(IntegratedSample, FilterAllOutYieldsEmpty) {
  IntegratedSample sample;
  sample.Add("w1", "a", 1);
  const IntegratedSample filtered =
      sample.Filter([](const EntityStat&) { return false; });
  EXPECT_TRUE(filtered.empty());
}

TEST(IntegratedSampleDeathTest, EmptyKeyAborts) {
  IntegratedSample sample;
  EXPECT_DEATH(sample.Add("w1", "  ", 1), "empty entity key");
}

}  // namespace
}  // namespace uuq
