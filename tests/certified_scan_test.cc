// The certified split scan against the exact oracle.
//
// DynamicPartitioner lets its side kernels write approximate lanes (within
// ρ of the exact |Δ|), lists the cuts whose bracketed totals can still be
// the first minimum, and re-evaluates only those exactly (CutFold).
// oracle::ExactDynamicPartition is the scan as it ran on exact lanes: every
// candidate's exact total through the in-order fold. The two must return
// the same bounds on every input — real 6k and 50k replicates,
// rest-dominated deep buckets, equal-total plateaus (lanes whose exact
// totals round to the same bits included), ±0, NaN value runs, ±inf sums,
// f1 = 0 and f1 = n slices, n ∈ {1, 2}, huge counts — and on CPUs without
// the approximate build, where every lane is exact. The work counters pin
// how many cuts the scan re-evaluates, so a bracket that silently widens
// to every cut fails here even though its bounds stay right.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/bucket.h"
#include "core/frequency.h"
#include "core/naive.h"
#include "integration/sample_view.h"
#include "partition_oracle.h"
#include "perfbench_stream.h"

namespace uuq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// One inner estimator with its exact side kernel (the baseline build).
struct Inner {
  std::shared_ptr<const StatsSumEstimator> estimator;
  oracle::ExactSide exact;
};

std::vector<Inner> AllInners() {
  return {
      {std::make_shared<NaiveEstimator>(),
       [](const PrefixSideView& view, double* out) {
         RunNaiveSideKernel(KernelIsa::kBaseline, view, out);
       }},
      {std::make_shared<FrequencyEstimator>(),
       [](const PrefixSideView& view, double* out) {
         RunFrequencySideKernel(false, KernelIsa::kBaseline, view, out);
       }},
      {std::make_shared<FrequencyEstimator>(/*assume_uniform=*/true),
       [](const PrefixSideView& view, double* out) {
         RunFrequencySideKernel(true, KernelIsa::kBaseline, view, out);
       }},
  };
}

/// One scratch shared by every comparison, so scans also run warm on
/// buffers left by indexes of other shapes.
PartitionScratch& SharedScratch() {
  static PartitionScratch scratch;
  return scratch;
}

/// What the comparisons of one test exercised: buckets the partitions
/// produced beyond the root, and scans whose kernel listed candidates.
struct Exercised {
  int64_t splits = 0;
  int64_t scans = 0;
};
Exercised& Tally() {
  static Exercised tally;
  return tally;
}

void ExpectMatchesOracle(const SortedEntityIndex& index, const Inner& inner,
                         const std::string& what) {
  const std::vector<size_t> expected =
      oracle::ExactDynamicPartition(index, *inner.estimator, inner.exact);
  std::vector<size_t> bounds;
  DynamicPartitioner().PartitionInto(index, *inner.estimator,
                                     &SharedScratch(), &bounds);
  ASSERT_EQ(bounds, expected) << inner.estimator->name() << " " << what;
  Tally().splits += static_cast<int64_t>(bounds.size()) - 2;
  Tally().scans += SharedScratch().folded_scans;
}

/// Resets the tally, and checks at the end of the test that its inputs
/// split and scanned at least that often.
class CertifiedScan : public ::testing::Test {
 protected:
  void SetUp() override { Tally() = Exercised(); }
  void ExpectExercised(int64_t splits, int64_t scans) const {
    EXPECT_GE(Tally().splits, splits);
    EXPECT_GE(Tally().scans, scans);
  }
};

void ExpectAllMatch(const std::vector<EntityPoint>& points,
                    const std::string& what) {
  const SortedEntityIndex index{std::vector<EntityPoint>(points)};
  for (const Inner& inner : AllInners()) {
    ExpectMatchesOracle(index, inner, what);
  }
}

TEST_F(CertifiedScan, RealReplicatesMatchExactOracle) {
  for (const size_t observations : {size_t{6000}, size_t{50000}}) {
    const auto sample = PerfbenchStreamPrefix(observations);
    const SampleView view(*sample);
    const std::vector<Inner> inners = AllInners();
    // The 50k replicates run the naive estimator only: the served default
    // and the only approximate kernel.
    const size_t num_inners = observations == 6000 ? inners.size() : 1;
    const int replicates = observations == 6000 ? 6 : 2;
    for (size_t k = 0; k < num_inners; ++k) {
      const std::string what = std::to_string(observations);
      ExpectMatchesOracle(SortedEntityIndex(sample->entities()), inners[k],
                          what + " point");
      Rng rng(0xCE57 + observations);
      ReplicateScratch scratch;
      ReplicateSample rep;
      std::vector<int32_t> draws;
      for (int r = 0; r < replicates; ++r) {
        view.DrawBootstrapSources(&rng, &draws);
        view.BuildReplicate(draws, &scratch, &rep);
        ExpectMatchesOracle(SortedEntityIndex(rep.entities), inners[k],
                            what + " replicate " + std::to_string(r));
      }
    }
  }
  ExpectExercised(800, 1500);
}

TEST_F(CertifiedScan, RestDominatedDeepBuckets) {
  // Many clusters far apart: the partition recurses deep, and each deep
  // bucket's scan runs with a delta_rest that dwarfs its own halves, so the
  // totals differ only in their last bits.
  Rng rng(0xDEE9);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<EntityPoint> points;
    const int clusters = 8 + static_cast<int>(rng.NextBounded(40));
    for (int k = 0; k < clusters; ++k) {
      const double base = std::ldexp(1.0, k % 30) * (1 + k);
      const int size = 2 + static_cast<int>(rng.NextBounded(30));
      for (int i = 0; i < size; ++i) {
        const int64_t m = rng.NextBounded(3) == 0
                              ? 1
                              : 1 + static_cast<int64_t>(rng.NextBounded(9));
        points.push_back({base + rng.NextUniform(0.0, 1.0), m});
      }
    }
    // One heavy singleton cluster keeps delta_rest large.
    for (int i = 0; i < 40; ++i) points.push_back({1e12 + i, 1});
    points.push_back({1e12 + 50, 3});
    ExpectAllMatch(points, "deep trial " + std::to_string(trial));
  }
  ExpectExercised(30, 60);
}

TEST_F(CertifiedScan, EqualTotalPlateaus) {
  Rng rng(0x9A7E);
  for (int trial = 0; trial < 8; ++trial) {
    // Mirror-image halves: cuts at mirrored rows have equal totals.
    std::vector<EntityPoint> points;
    const int half = 3 + static_cast<int>(rng.NextBounded(40));
    for (int i = 0; i < half; ++i) {
      const int64_t m = 1 + static_cast<int64_t>(rng.NextBounded(4));
      const double v = 1.0 + static_cast<double>(rng.NextBounded(6));
      points.push_back({100.0 + i, m});
      points.push_back({300.0 - i, m});
      points.push_back({100.5 + i, 1 + m % 2});
      points.push_back({299.5 - i, 1 + m % 2});
      if (trial % 2 == 0) points.push_back({v, 2});
    }
    ExpectAllMatch(points, "mirror trial " + std::to_string(trial));

    // Tiny deltas under a huge remainder: distinct exact totals round to
    // the same bits.
    std::vector<EntityPoint> rounded;
    for (int i = 0; i < 60; ++i) {
      rounded.push_back({1e-3 * (1 + static_cast<int>(rng.NextBounded(50))),
                         1 + static_cast<int64_t>(rng.NextBounded(3))});
    }
    for (int i = 0; i < 30; ++i) rounded.push_back({1e15 + 2.0 * i, 1});
    rounded.push_back({1e15 + 100.0, 2});
    ExpectAllMatch(rounded, "rounded trial " + std::to_string(trial));

    // Few value levels, many tied points.
    std::vector<EntityPoint> ties;
    for (int i = 0; i < 200; ++i) {
      ties.push_back({10.0 * static_cast<double>(rng.NextBounded(5)),
                      1 + static_cast<int64_t>(rng.NextBounded(3))});
    }
    ExpectAllMatch(ties, "tie trial " + std::to_string(trial));
  }
  ExpectExercised(60, 150);
}

TEST_F(CertifiedScan, SignedZerosNanRunsAndInfiniteSums) {
  Rng rng(0x5EC1);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<EntityPoint> points;
    const int n = 10 + static_cast<int>(rng.NextBounded(120));
    for (int i = 0; i < n; ++i) {
      double value = rng.NextUniform(-50.0, 500.0);
      switch (rng.NextBounded(10)) {
        case 0:
          value = 0.0;
          break;
        case 1:
          value = -0.0;
          break;
        case 2:
          value = trial % 3 == 0 ? kNan : value;
          break;
        case 3:
          value = trial % 3 == 1 ? kInf : value;
          break;
        case 4:
          value = trial % 3 == 2 ? -kInf : value;
          break;
        default:
          break;
      }
      points.push_back({value, 1 + static_cast<int64_t>(rng.NextBounded(4))});
    }
    ExpectAllMatch(points, "special trial " + std::to_string(trial));
  }
  ExpectExercised(10, 40);
}

TEST_F(CertifiedScan, DegenerateSlicesAndHugeCounts) {
  // n ∈ {1, 2}.
  ExpectAllMatch({{5.0, 1}}, "one singleton");
  ExpectAllMatch({{5.0, 2}}, "one doubleton");
  ExpectAllMatch({{5.0, 1}, {6.0, 1}}, "two singletons");
  ExpectAllMatch({{5.0, 1}, {6.0, 2}}, "singleton and doubleton");
  Rng rng(0xDE6E);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<EntityPoint> no_singletons;  // f1 = 0 everywhere
    std::vector<EntityPoint> all_singletons;  // f1 = n everywhere
    std::vector<EntityPoint> mixed;
    for (int i = 0; i < 80; ++i) {
      const double v = rng.NextUniform(0.0, 100.0);
      no_singletons.push_back(
          {v, 2 + static_cast<int64_t>(rng.NextBounded(5))});
      all_singletons.push_back({v, 1});
      // Runs of singletons between non-singleton points: slices with
      // f1 = 0 and f1 = n next to mixed ones.
      mixed.push_back({v, (i / 7) % 2 == 0 ? 1 : 2});
    }
    // Counts near 2^31: Σm(m−1) stays within int64.
    mixed.push_back({50.5, int64_t{1} << 31});
    mixed.push_back({70.5, (int64_t{1} << 30) + 7});
    ExpectAllMatch(no_singletons, "f1 = 0 trial " + std::to_string(trial));
    ExpectAllMatch(all_singletons, "f1 = n trial " + std::to_string(trial));
    ExpectAllMatch(mixed, "mixed trial " + std::to_string(trial));
  }
  ExpectExercised(60, 150);
}

TEST_F(CertifiedScan, RandomIndexesMatchExactOracle) {
  Rng rng(0xA11D);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<EntityPoint> points;
    const int n = 1 + static_cast<int>(rng.NextBounded(600));
    const int levels = trial % 2 == 0 ? 0 : 2 + static_cast<int>(rng.NextBounded(30));
    for (int i = 0; i < n; ++i) {
      const double v = levels > 0
                           ? static_cast<double>(rng.NextBounded(levels))
                           : rng.NextUniform(-100.0, 1000.0);
      points.push_back({v, 1 + static_cast<int64_t>(rng.NextBounded(6))});
    }
    ExpectAllMatch(points, "random trial " + std::to_string(trial));
  }
  ExpectExercised(200, 400);
}

TEST_F(CertifiedScan, ExactReevaluationsPerScanArePinned) {
  // The 6k prefix, its point partition and four replicates, naive inner
  // estimator: the kernel lists about one cut per splitting scan (its
  // winner) and none where the bracket certifies "no split" — 41 cuts over
  // 84 scans and 40 splits at kApproxSideRho, 40 cuts with every lane
  // exact. A bracket widened to every cut lists hundreds per scan.
  const auto sample = PerfbenchStreamPrefix(6000);
  const SampleView view(*sample);
  const NaiveEstimator naive;
  PartitionScratch scratch;
  std::vector<size_t> bounds;
  int64_t scans = 0;
  int64_t candidates = 0;
  int64_t splits = 0;
  const auto run = [&](const SortedEntityIndex& index) {
    DynamicPartitioner().PartitionInto(index, naive, &scratch, &bounds);
    scans += scratch.folded_scans;
    candidates += scratch.exact_candidates;
    splits += static_cast<int64_t>(bounds.size()) - 2;
  };
  run(SortedEntityIndex(sample->entities()));
  Rng rng(0x5EED6000);
  ReplicateScratch rscratch;
  ReplicateSample rep;
  std::vector<int32_t> draws;
  for (int r = 0; r < 4; ++r) {
    view.DrawBootstrapSources(&rng, &draws);
    view.BuildReplicate(draws, &rscratch, &rep);
    run(SortedEntityIndex(rep.entities));
  }
  ASSERT_GT(scans, 50);
  // Every split needs its winner re-evaluated.
  EXPECT_GE(candidates, splits);
  EXPECT_LE(candidates, scans)
      << candidates << " exact re-evaluations over " << scans << " scans";
}

}  // namespace
}  // namespace uuq
