// SampleStats — the estimator currency type — plus order-invariance
// properties of the integration pipeline that the estimators rely on.
#include "core/estimate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/bucket.h"
#include "core/naive.h"
#include "integration/integrator.h"

namespace uuq {
namespace {

TEST(SampleStats, AddAccumulatesEveryField) {
  SampleStats stats;
  stats.Add({"a", 10.0, 1, ""});
  stats.Add({"b", 20.0, 3, ""});
  EXPECT_EQ(stats.n, 4);
  EXPECT_EQ(stats.c, 2);
  EXPECT_EQ(stats.f1, 1);
  EXPECT_EQ(stats.sum_mm1, 6);  // 3·2
  EXPECT_DOUBLE_EQ(stats.value_sum, 30.0);
  EXPECT_DOUBLE_EQ(stats.value_sum_sq, 500.0);
  EXPECT_DOUBLE_EQ(stats.singleton_sum, 10.0);
}

TEST(SampleStats, ZeroMultiplicityIgnored) {
  SampleStats stats;
  stats.Add({"ghost", 99.0, 0, ""});
  EXPECT_TRUE(stats.empty());
}

/// SampleStats::Add with the singleton terms behind a branch: the oracle
/// for the branch-free fold.
void GuardedAdd(SampleStats* stats, const EntityPoint& point) {
  const int64_t m = point.multiplicity;
  if (m <= 0) return;
  stats->n += m;
  stats->c += 1;
  if (m == 1) {
    stats->f1 += 1;
    stats->singleton_sum += point.value;
  }
  stats->sum_mm1 += m * (m - 1);
  stats->value_sum += point.value;
  stats->value_sum_sq += point.value * point.value;
}

/// Same bits, or both NaN: IEEE leaves a NaN result's sign and payload to
/// the operand order the compiler picks, so they carry no information.
bool SameDouble(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  uint64_t a_bits = 0;
  uint64_t b_bits = 0;
  std::memcpy(&a_bits, &a, sizeof(a_bits));
  std::memcpy(&b_bits, &b, sizeof(b_bits));
  return a_bits == b_bits;
}

TEST(SampleStats, BranchFreeAddMatchesGuardedForm) {
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,   -0.0,  1.5,    -2.25, 1e308, -1e308,
                           inf,   -inf,  5e-324, -7.0,  std::nan("")};
  const int64_t multiplicities[] = {-2, -1, 0, 1, 1, 2, 3};
  Rng rng(0xADD);
  for (int trial = 0; trial < 400; ++trial) {
    // Early trials draw only signed zeros, so the sums sit at ±0.0.
    const size_t value_choices = trial < 100 ? 2 : std::size(values);
    const size_t length = rng.NextBounded(24);
    SampleStats branch_free;
    SampleStats guarded;
    for (size_t i = 0; i < length; ++i) {
      const EntityPoint point{values[rng.NextBounded(value_choices)],
                              multiplicities[rng.NextBounded(
                                  std::size(multiplicities))]};
      branch_free.Add(point);
      GuardedAdd(&guarded, point);
    }
    EXPECT_EQ(branch_free.n, guarded.n) << trial;
    EXPECT_EQ(branch_free.c, guarded.c) << trial;
    EXPECT_EQ(branch_free.f1, guarded.f1) << trial;
    EXPECT_EQ(branch_free.sum_mm1, guarded.sum_mm1) << trial;
    EXPECT_TRUE(SameDouble(branch_free.value_sum, guarded.value_sum))
        << trial;
    EXPECT_TRUE(SameDouble(branch_free.value_sum_sq, guarded.value_sum_sq))
        << trial;
    EXPECT_TRUE(SameDouble(branch_free.singleton_sum, guarded.singleton_sum))
        << trial;
  }
}

TEST(SampleStats, MergeEqualsSequentialAdd) {
  Rng rng(5);
  SampleStats all, left, right;
  for (int i = 0; i < 40; ++i) {
    EntityStat e{"e" + std::to_string(i), rng.NextUniform(0, 100),
                 1 + static_cast<int64_t>(rng.NextBounded(5)), ""};
    all.Add(e);
    (i % 2 == 0 ? left : right).Add(e);
  }
  left.Merge(right);
  EXPECT_EQ(left.n, all.n);
  EXPECT_EQ(left.c, all.c);
  EXPECT_EQ(left.f1, all.f1);
  EXPECT_EQ(left.sum_mm1, all.sum_mm1);
  EXPECT_NEAR(left.value_sum, all.value_sum, 1e-9);
  EXPECT_NEAR(left.value_sum_sq, all.value_sum_sq, 1e-6);
  EXPECT_NEAR(left.singleton_sum, all.singleton_sum, 1e-9);
}

TEST(SampleStats, ValueMeanAndStdDev) {
  SampleStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add({"k" + std::to_string(stats.c), v, 2, ""});
  }
  EXPECT_DOUBLE_EQ(stats.ValueMean(), 5.0);
  EXPECT_NEAR(stats.ValueStdDev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SampleStats, StdDevDegenerateCases) {
  SampleStats empty;
  EXPECT_DOUBLE_EQ(empty.ValueStdDev(), 0.0);
  SampleStats one;
  one.Add({"a", 5.0, 1, ""});
  EXPECT_DOUBLE_EQ(one.ValueStdDev(), 0.0);
}

TEST(SampleStats, CoverageAndGamma2MatchFstatsPath) {
  IntegratedSample sample;
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const int copies = 1 + static_cast<int>(rng.NextBounded(4));
    for (int k = 0; k < copies; ++k) {
      sample.Add("w" + std::to_string(k), "e" + std::to_string(i),
                 rng.NextUniform(0, 10));
    }
  }
  const SampleStats stats = SampleStats::FromSample(sample);
  const FrequencyStatistics fstats = sample.Fstats();
  EXPECT_EQ(stats.n, fstats.n());
  EXPECT_EQ(stats.c, fstats.c());
  EXPECT_EQ(stats.f1, fstats.singletons());
  EXPECT_EQ(stats.sum_mm1, fstats.SumIiMinusOneFi());
}

TEST(OrderInvariance, AverageFusionIgnoresArrivalOrder) {
  // For kAverage fusion, the final sample state must not depend on the
  // order in which observations arrive.
  std::vector<Observation> stream;
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    stream.push_back({"w" + std::to_string(rng.NextBounded(6)),
                      "e" + std::to_string(rng.NextBounded(15)),
                      rng.NextUniform(0, 100), ""});
  }
  IntegratedSample forward;
  for (const Observation& obs : stream) forward.Add(obs);
  std::vector<Observation> shuffled = stream;
  rng.Shuffle(&shuffled);
  IntegratedSample permuted;
  for (const Observation& obs : shuffled) permuted.Add(obs);

  EXPECT_EQ(forward.n(), permuted.n());
  EXPECT_EQ(forward.c(), permuted.c());
  EXPECT_NEAR(forward.ObservedSum(), permuted.ObservedSum(), 1e-6);

  // And therefore every estimator result is order-invariant too.
  const Estimate a = BucketSumEstimator().EstimateImpact(forward);
  const Estimate b = BucketSumEstimator().EstimateImpact(permuted);
  EXPECT_NEAR(a.delta, b.delta, 1e-6);
}

TEST(OrderInvariance, FirstFusionDependsOnOrderByDesign) {
  IntegratedSample forward(FusionPolicy::kFirst);
  forward.Add("w1", "a", 10);
  forward.Add("w2", "a", 99);
  IntegratedSample reversed(FusionPolicy::kFirst);
  reversed.Add("w2", "a", 99);
  reversed.Add("w1", "a", 10);
  EXPECT_NE(forward.ObservedSum(), reversed.ObservedSum());
}

TEST(OrderInvariance, FilterThenStatsEqualsStatsOfFiltered) {
  IntegratedSample sample;
  Rng rng(13);
  for (int i = 0; i < 30; ++i) {
    const int copies = 1 + static_cast<int>(rng.NextBounded(3));
    for (int k = 0; k < copies; ++k) {
      sample.Add("w" + std::to_string(k), "e" + std::to_string(i),
                 static_cast<double>(i));
    }
  }
  const auto keep = [](const EntityStat& e) { return e.value >= 15.0; };
  const IntegratedSample filtered = sample.Filter(keep);
  // Filter is idempotent.
  const IntegratedSample twice = filtered.Filter(keep);
  EXPECT_EQ(filtered.n(), twice.n());
  EXPECT_EQ(filtered.c(), twice.c());
  EXPECT_DOUBLE_EQ(filtered.ObservedSum(), twice.ObservedSum());
}

TEST(FuzzyIntegration, ResolverReducesPhantomSingletons) {
  // The same three companies spelled sloppily by three sources. Without
  // fuzzy resolution the sample sees 3 extra phantom entities (all
  // singletons); with it, multiplicities line up.
  auto build = [](bool fuzzy) {
    Integrator::Options options;
    options.fuzzy_resolution = fuzzy;
    Integrator integrator(options);
    DataSource s1("s1"), s2("s2"), s3("s3");
    (void)s1.Add("IBM Corp", 100);
    (void)s1.Add("Acme Robotics Inc", 5);
    (void)s2.Add("I.B.M.", 100);
    (void)s2.Add("Acme Robotics", 5);
    (void)s3.Add("IBM", 100);
    (void)s3.Add("Tiny Startup", 1);
    (void)integrator.AddSource(s1);
    (void)integrator.AddSource(s2);
    (void)integrator.AddSource(s3);
    return integrator.sample().c();
  };
  EXPECT_GT(build(false), build(true));
  EXPECT_EQ(build(true), 3);  // IBM, Acme Robotics, Tiny Startup
}

TEST(FuzzyIntegration, NaiveEstimateBenefitsFromResolution) {
  // Phantom singletons inflate f1 and with it the naive correction.
  auto estimate = [](bool fuzzy) {
    Integrator::Options options;
    options.fuzzy_resolution = fuzzy;
    Integrator integrator(options);
    // Odd source count so the variant spellings become singletons.
    for (int w = 0; w < 3; ++w) {
      DataSource s("s" + std::to_string(w));
      (void)s.Add(w % 2 == 0 ? "Mega Corp" : "Mega Corp Inc", 1000);
      (void)s.Add(w % 2 == 0 ? "Beta LLC" : "Beta", 50);
      (void)integrator.AddSource(s);
    }
    return NaiveEstimator().EstimateImpact(integrator.sample());
  };
  const Estimate merged = estimate(true);
  const Estimate split = estimate(false);
  EXPECT_EQ(merged.missing_count, 0.0);  // everything seen 3 times
  EXPECT_GT(split.missing_count, 0.0);   // phantom singletons -> missing mass
}

}  // namespace
}  // namespace uuq
