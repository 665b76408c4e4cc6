#include "core/bucket.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/chao92.h"
#include "core/frequency.h"
#include "core/naive.h"
#include "index_oracle.h"

namespace uuq {
namespace {

std::vector<EntityStat> MakeEntities(
    const std::vector<std::pair<double, int64_t>>& pairs) {
  std::vector<EntityStat> out;
  int i = 0;
  for (const auto& [value, mult] : pairs) {
    out.push_back({"e" + std::to_string(i++), value, mult, ""});
  }
  return out;
}

IntegratedSample SampleFromEntities(
    const std::vector<std::pair<double, int64_t>>& pairs) {
  IntegratedSample sample;
  int entity = 0;
  for (const auto& [value, mult] : pairs) {
    for (int64_t m = 0; m < mult; ++m) {
      sample.Add("w" + std::to_string(m), "e" + std::to_string(entity), value);
    }
    ++entity;
  }
  return sample;
}

TEST(SortedEntityIndex, SortsByValue) {
  SortedEntityIndex index(MakeEntities({{30, 1}, {10, 2}, {20, 3}}));
  EXPECT_DOUBLE_EQ(index.entities()[0].value, 10.0);
  EXPECT_DOUBLE_EQ(index.entities()[2].value, 30.0);
}

TEST(SortedEntityIndex, SliceMatchesDirectComputation) {
  Rng rng(3);
  std::vector<std::pair<double, int64_t>> pairs;
  for (int i = 0; i < 50; ++i) {
    pairs.push_back({rng.NextUniform(0, 100),
                     1 + static_cast<int64_t>(rng.NextBounded(5))});
  }
  SortedEntityIndex index(MakeEntities(pairs));
  for (int trial = 0; trial < 30; ++trial) {
    size_t a = rng.NextBounded(51);
    size_t b = rng.NextBounded(51);
    if (a > b) std::swap(a, b);
    const SampleStats sliced = oracle::SlicePoints(index, a, b);
    SampleStats direct;
    for (size_t i = a; i < b; ++i) direct.Add(index.entities()[i]);
    EXPECT_EQ(sliced.n, direct.n);
    EXPECT_EQ(sliced.c, direct.c);
    EXPECT_EQ(sliced.f1, direct.f1);
    EXPECT_EQ(sliced.sum_mm1, direct.sum_mm1);
    EXPECT_NEAR(sliced.value_sum, direct.value_sum, 1e-9);
    EXPECT_NEAR(sliced.singleton_sum, direct.singleton_sum, 1e-9);
  }
}

TEST(SortedEntityIndex, UpperBoundOfValueSkipsTies) {
  SortedEntityIndex index(
      MakeEntities({{10, 1}, {10, 2}, {10, 3}, {20, 1}, {30, 1}}));
  EXPECT_EQ(oracle::UpperBoundOfValueAt(index, 0), 3u);
  EXPECT_EQ(oracle::UpperBoundOfValueAt(index, 3), 4u);
  EXPECT_EQ(oracle::UpperBoundOfValueAt(index, 4), 5u);
}

TEST(SortedEntityIndex, OnePrefixRowPerValueRun) {
  // A run boundary is a point whose value differs (!=) from its
  // predecessor's: the zeros of either sign share one run, and every NaN
  // point is a run of its own. Row k is the prefix at the start of run k,
  // the last row the prefix at size().
  const double nan = std::nan("");
  const SortedEntityIndex index(MakeEntities({{nan, 2},
                                              {1.0, 1},
                                              {0.0, 2},
                                              {nan, 1},
                                              {-0.0, 1},
                                              {1.0, 3},
                                              {2.0, 1}}));
  // Sorted: −0, +0, 1 (×1), 1 (×3), 2, NaN (×1), NaN (×2).
  EXPECT_EQ(index.runs(), 5u);
  EXPECT_EQ(index.row_positions(),
            (std::vector<size_t>{0, 2, 4, 5, 6, 7}));
  for (size_t row = 0; row <= index.runs(); ++row) {
    const size_t end = index.row_positions()[row];
    SampleStats direct;
    for (size_t i = 0; i < end; ++i) direct.Add(index.entities()[i]);
    const PrefixRow prefix = index.Row(row);
    EXPECT_EQ(prefix.n, static_cast<double>(direct.n)) << row;
    EXPECT_EQ(prefix.c, static_cast<double>(direct.c)) << row;
    EXPECT_EQ(prefix.f1, static_cast<double>(direct.f1)) << row;
    EXPECT_EQ(prefix.sum_mm1, static_cast<double>(direct.sum_mm1)) << row;
    const SampleStats sliced = oracle::SlicePoints(index, 0, end);
    EXPECT_EQ(sliced.n, direct.n) << row;
    EXPECT_EQ(sliced.c, direct.c) << row;
    const SampleStats rows = index.SliceRows(0, row);
    EXPECT_EQ(rows.n, direct.n) << row;
  }
  const SortedEntityIndex empty(std::vector<EntityPoint>{});
  EXPECT_EQ(empty.runs(), 0u);
  EXPECT_EQ(empty.row_positions(), (std::vector<size_t>{0}));
}

TEST(SortedEntityIndex, SignedZerosSortCanonically) {
  // == cannot tell −0.0 from +0.0, so the order breaks the tie by sign bit
  // before multiplicity: any input order gives the same points and buckets.
  uint64_t neg_zero_bits = 0;
  const double neg_zero = -0.0;
  std::memcpy(&neg_zero_bits, &neg_zero, sizeof(neg_zero_bits));
  const auto bits = [](double v) {
    uint64_t out = 0;
    std::memcpy(&out, &v, sizeof(out));
    return out;
  };
  const std::vector<std::vector<std::pair<double, int64_t>>> orders = {
      {{0.0, 1}, {-0.0, 1}, {5.0, 2}},
      {{-0.0, 1}, {0.0, 1}, {5.0, 2}},
      {{5.0, 2}, {0.0, 1}, {-0.0, 1}},
  };
  const SortedEntityIndex first(MakeEntities(orders[0]));
  const auto first_buckets =
      BucketSumEstimator().ComputeBuckets(SampleFromEntities(orders[0]));
  EXPECT_EQ(bits(first.entities()[0].value), neg_zero_bits);
  EXPECT_EQ(bits(first.entities()[1].value), bits(0.0));
  EXPECT_EQ(bits(first_buckets.front().lo), neg_zero_bits);
  for (const auto& order : orders) {
    const SortedEntityIndex index(MakeEntities(order));
    ASSERT_EQ(index.size(), first.size());
    for (size_t i = 0; i < index.size(); ++i) {
      EXPECT_EQ(bits(index.entities()[i].value),
                bits(first.entities()[i].value));
      EXPECT_EQ(index.entities()[i].multiplicity,
                first.entities()[i].multiplicity);
    }
    const auto buckets =
        BucketSumEstimator().ComputeBuckets(SampleFromEntities(order));
    ASSERT_EQ(buckets.size(), first_buckets.size());
    for (size_t b = 0; b < buckets.size(); ++b) {
      EXPECT_EQ(bits(buckets[b].lo), bits(first_buckets[b].lo));
      EXPECT_EQ(bits(buckets[b].hi), bits(first_buckets[b].hi));
    }
  }
  // Among equal zeros the sign decides before multiplicity.
  const SortedEntityIndex mixed(MakeEntities({{0.0, 1}, {-0.0, 3}}));
  EXPECT_EQ(bits(mixed.entities()[0].value), neg_zero_bits);
  EXPECT_EQ(mixed.entities()[0].multiplicity, 3);
}

TEST(EquiWidthPartitioner, SplitsValueRange) {
  // Values 0..99, 2 buckets: boundary at 49.5.
  std::vector<std::pair<double, int64_t>> pairs;
  for (int i = 0; i < 100; ++i) pairs.push_back({static_cast<double>(i), 2});
  SortedEntityIndex index(MakeEntities(pairs));
  NaiveEstimator inner;
  const auto bounds = EquiWidthPartitioner(2).Partition(index, inner);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[1], 50u);
  EXPECT_EQ(bounds[2], 100u);
}

TEST(EquiWidthPartitioner, EmptyBucketsCollapse) {
  // All mass at the extremes: middle buckets vanish instead of appearing
  // as empty ranges.
  SortedEntityIndex index(MakeEntities({{0, 2}, {1, 1}, {99, 1}, {100, 2}}));
  NaiveEstimator inner;
  const auto bounds = EquiWidthPartitioner(10).Partition(index, inner);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
  EXPECT_EQ(bounds.back(), 4u);
}

TEST(EquiWidthPartitioner, SingleValuedDataYieldsOneBucket) {
  SortedEntityIndex index(MakeEntities({{5, 1}, {5, 2}, {5, 3}}));
  NaiveEstimator inner;
  const auto bounds = EquiWidthPartitioner(4).Partition(index, inner);
  EXPECT_EQ(bounds, (std::vector<size_t>{0, 3}));
}

TEST(EquiWidthPartitioner, NonFiniteValuesDoNotCollapseTheRange) {
  // The width spans the finite values 0..7 (1.75 per bucket): −inf joins
  // the first bucket, +inf and NaN (sorted last) the last one, and the
  // finite points split as they do alone.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, int64_t>> finite;
  for (int i = 0; i < 8; ++i) finite.push_back({static_cast<double>(i), 1});
  struct Case {
    double ninth;
    std::vector<size_t> bounds;
  };
  const Case cases[] = {
      {7.5, {0, 2, 4, 6, 9}},
      {std::numeric_limits<double>::quiet_NaN(), {0, 2, 4, 6, 9}},
      {kInf, {0, 2, 4, 6, 9}},
      {-kInf, {0, 3, 5, 7, 9}},
  };
  const NaiveEstimator inner;
  const EquiWidthPartitioner partitioner(4);
  for (const Case& c : cases) {
    std::vector<std::pair<double, int64_t>> pairs = finite;
    pairs.push_back({c.ninth, 1});
    const SortedEntityIndex index(MakeEntities(pairs));
    EXPECT_EQ(partitioner.Partition(index, inner), c.bounds) << c.ninth;
  }

  // No finite value leaves no range to divide: one bucket.
  const SortedEntityIndex non_finite(MakeEntities(
      {{-kInf, 1}, {kInf, 2}, {std::numeric_limits<double>::quiet_NaN(), 1}}));
  EXPECT_EQ(partitioner.Partition(non_finite, inner),
            (std::vector<size_t>{0, 3}));
}

TEST(EquiHeightPartitioner, EqualCardinalityBuckets) {
  std::vector<std::pair<double, int64_t>> pairs;
  for (int i = 0; i < 12; ++i) pairs.push_back({static_cast<double>(i), 1});
  SortedEntityIndex index(MakeEntities(pairs));
  NaiveEstimator inner;
  const auto bounds = EquiHeightPartitioner(3).Partition(index, inner);
  EXPECT_EQ(bounds, (std::vector<size_t>{0, 4, 8, 12}));
}

TEST(EquiHeightPartitioner, TiedValuesStayTogether) {
  // 6 entities all value 7 except the last: a boundary can't cut the tie
  // run.
  SortedEntityIndex index(MakeEntities(
      {{7, 1}, {7, 1}, {7, 2}, {7, 1}, {7, 3}, {9, 1}}));
  NaiveEstimator inner;
  const auto bounds = EquiHeightPartitioner(2).Partition(index, inner);
  // Tie run covers [0,5); the only legal interior boundary is 5.
  EXPECT_EQ(bounds, (std::vector<size_t>{0, 5, 6}));
}

TEST(EquiHeightPartitioner, MoreBucketsThanEntitiesClamps) {
  SortedEntityIndex index(MakeEntities({{1, 1}, {2, 1}}));
  NaiveEstimator inner;
  const auto bounds = EquiHeightPartitioner(10).Partition(index, inner);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 2u);
}

TEST(DynamicPartitioner, ToyExampleSplitsOffBigCompany) {
  // Appendix F before s5: A(1000,×1) B(2000,×2) D(10000,×4) splits into
  // {A,B} | {D}.
  SortedEntityIndex index(
      MakeEntities({{1000, 1}, {2000, 2}, {10000, 4}}));
  NaiveEstimator inner;
  const auto bounds = DynamicPartitioner().Partition(index, inner);
  EXPECT_EQ(bounds, (std::vector<size_t>{0, 2, 3}));
}

TEST(DynamicPartitioner, DoesNotSplitWhenNoImprovement) {
  // Uniform values and multiplicities: any split only raises N̂ (Eq. 13),
  // value means are equal, so no split lowers |Δ|.
  std::vector<std::pair<double, int64_t>> pairs;
  for (int i = 0; i < 10; ++i) pairs.push_back({100.0 + i, 3});
  SortedEntityIndex index(MakeEntities(pairs));
  NaiveEstimator inner;
  const auto bounds = DynamicPartitioner().Partition(index, inner);
  EXPECT_EQ(bounds, (std::vector<size_t>{0, 10}));
}

TEST(DynamicPartitioner, NeverCreatesSingletonOnlyBucket) {
  Rng rng(11);
  std::vector<std::pair<double, int64_t>> pairs;
  for (int i = 0; i < 60; ++i) {
    pairs.push_back({rng.NextUniform(0, 1000),
                     1 + static_cast<int64_t>(rng.NextBounded(4))});
  }
  SortedEntityIndex index(MakeEntities(pairs));
  NaiveEstimator inner;
  const auto bounds = DynamicPartitioner().Partition(index, inner);
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    const SampleStats stats =
        oracle::SlicePoints(index, bounds[i], bounds[i + 1]);
    // A singleton-only bucket has an infinite Δ; the split rule must never
    // produce one (it can only keep the initial full-range bucket if that
    // is itself all singletons).
    if (bounds.size() > 2) {
      EXPECT_LT(stats.f1, stats.c == 0 ? 1 : stats.n) << "bucket " << i;
    }
  }
}

TEST(DynamicPartitioner, EmptyInput) {
  SortedEntityIndex index(std::vector<EntityPoint>{});
  NaiveEstimator inner;
  const auto bounds = DynamicPartitioner().Partition(index, inner);
  EXPECT_EQ(bounds, (std::vector<size_t>{0, 0}));
}

TEST(BucketSumEstimator, SumsBucketDeltas) {
  const auto sample =
      SampleFromEntities({{1000, 1}, {2000, 2}, {10000, 4}});
  const Estimate est = BucketSumEstimator().EstimateImpact(sample);
  EXPECT_NEAR(est.delta, 1500.0, 1e-9);
  EXPECT_NEAR(est.corrected_sum, 14500.0, 1e-9);
}

TEST(BucketSumEstimator, ComputeBucketsExposesPerBucketStats) {
  const auto sample =
      SampleFromEntities({{1000, 1}, {2000, 2}, {10000, 4}});
  const auto buckets = BucketSumEstimator().ComputeBuckets(sample);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].lo, 1000.0);
  EXPECT_DOUBLE_EQ(buckets[0].hi, 2000.0);
  EXPECT_EQ(buckets[0].stats.c, 2);
  EXPECT_DOUBLE_EQ(buckets[1].lo, 10000.0);
  EXPECT_EQ(buckets[1].stats.n, 4);
}

TEST(BucketSumEstimator, EmptySample) {
  IntegratedSample sample;
  const Estimate est = BucketSumEstimator().EstimateImpact(sample);
  EXPECT_DOUBLE_EQ(est.delta, 0.0);
  EXPECT_EQ(est.num_buckets, 0);
  EXPECT_FALSE(est.coverage_ok);
}

TEST(BucketSumEstimator, NameReflectsConfiguration) {
  EXPECT_EQ(BucketSumEstimator().name(), "bucket[dynamic]");
  const BucketSumEstimator eq_width(
      std::make_shared<EquiWidthPartitioner>(6),
      std::make_shared<NaiveEstimator>());
  EXPECT_EQ(eq_width.name(), "bucket[eq-width-6]");
  const BucketSumEstimator freq_inner(
      std::make_shared<DynamicPartitioner>(),
      std::make_shared<FrequencyEstimator>());
  EXPECT_EQ(freq_inner.name(), "bucket[dynamic,freq]");
}

TEST(BucketSumEstimator, DynamicNeverWorseThanWholeSampleObjective) {
  // The split rule only accepts strict improvements of Σ|Δ|, so the final
  // objective is ≤ the single-bucket |Δ|.
  Rng rng(29);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::pair<double, int64_t>> pairs;
    const int c = 5 + static_cast<int>(rng.NextBounded(40));
    for (int i = 0; i < c; ++i) {
      pairs.push_back({rng.NextUniform(1, 1000),
                       1 + static_cast<int64_t>(rng.NextBounded(5))});
    }
    const auto sample = SampleFromEntities(pairs);
    const SampleStats whole = SampleStats::FromSample(sample);
    const Estimate single = NaiveEstimator().FromStats(whole);
    const Estimate bucketed = BucketSumEstimator().EstimateImpact(sample);
    if (std::isfinite(single.delta)) {
      EXPECT_LE(std::fabs(bucketed.delta), std::fabs(single.delta) + 1e-6);
    }
  }
}

// Appendix C: the count estimate is minimized by the even singleton split
// (α = 0.5) and splitting never lowers the (uniform-case) Chao92 estimate.
TEST(AppendixC, SplitInequalityHolds) {
  Rng rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    const double n = 10.0 + rng.NextBounded(1000);
    const double c = 2.0 + rng.NextBounded(static_cast<uint64_t>(n) - 2);
    // Keep denominators positive: f1 < n/2.
    const double f1 = rng.NextBounded(static_cast<uint64_t>(n / 2));
    const double before = n * c / (n - f1);
    for (double alpha : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
      const double after = (n / 2) * (c / 2) / (n / 2 - alpha * f1) +
                           (n / 2) * (c / 2) / (n / 2 - (1 - alpha) * f1);
      EXPECT_GE(after, before - 1e-9)
          << "n=" << n << " c=" << c << " f1=" << f1 << " alpha=" << alpha;
    }
    // Minimum at α = 0.5 equals the pre-split estimate.
    const double at_half =
        (n / 2) * (c / 2) / (n / 2 - 0.5 * f1) * 2.0;
    EXPECT_NEAR(at_half, before, 1e-6 * before);
  }
}

}  // namespace
}  // namespace uuq
