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
// to every cut fails here even though its bounds stay right. The
// IndexCertificate tests check the views the scan certifies with its
// index's total n: same lanes as an unset view, and none above 2^21.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
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

// The index certificate (PrefixSideView::index_n): the naive AVX-512F
// build skips its per-lane domain and bound checks for a view that slices
// an index of at most 2^21 observations, and must write the lanes the
// unset view writes. The tests build views as DynamicPartitioner does:
// prefix rows of one index, the left side anchored at a bucket's begin and
// the right side at its end.

using Side = PrefixSideView::Side;

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool HasApproximateBuild() {
  const auto& isas = RunnableKernelIsas();
  return std::find(isas.begin(), isas.end(), KernelIsa::kAvx512f) !=
         isas.end();
}

/// Lanes [begin + 1, end) of `index` against the bucket's begin (left) or
/// end (right) row, with the certificate unset.
PrefixSideView BucketSide(const SortedEntityIndex& index, size_t begin,
                          size_t end, Side side) {
  const SortedEntityIndex::Prefix& prefix = index.prefix();
  const size_t first = begin + 1;
  PrefixSideView view;
  view.size = end - first;
  view.n = prefix.n.data() + first;
  view.c = prefix.c.data() + first;
  view.f1 = prefix.f1.data() + first;
  view.sum_mm1 = prefix.sum_mm1.data() + first;
  view.value_sum = prefix.value_sum.data() + first;
  view.singleton_sum = prefix.singleton_sum.data() + first;
  view.anchor = index.Row(side == Side::kLeft ? begin : end);
  view.side = side;
  return view;
}

/// One side's lanes and, with a fold, its candidate list.
struct SideRun {
  std::vector<double> lanes;
  std::vector<size_t> candidates;
};
SideRun RunSide(KernelIsa isa, PrefixSideView view, CutFold fold,
                bool with_fold) {
  SideRun run;
  run.lanes.assign(view.size, kNan);
  fold.candidates = &run.candidates;
  view.fold = with_fold ? &fold : nullptr;
  RunNaiveSideKernel(isa, view, run.lanes.data());
  return run;
}

/// Checks every build's certified lanes of bucket [begin, end) of `index`
/// against its unset lanes, bit for bit, with and without a fold over the
/// other side's exact lanes, and against the scalar chain within ρ.
/// Adds to `approximated` the lanes that differ from the exact chain's.
void ExpectCertifiedMatchesUnset(const SortedEntityIndex& index,
                                 size_t begin, size_t end,
                                 const std::string& what,
                                 int64_t* approximated) {
  const NaiveEstimator naive;
  for (const Side side : {Side::kLeft, Side::kRight}) {
    const PrefixSideView unset = BucketSide(index, begin, end, side);
    PrefixSideView certified = unset;
    certified.index_n = index.prefix().n.back();
    const Side other_side = side == Side::kLeft ? Side::kRight : Side::kLeft;
    std::vector<double> exact(unset.size);
    std::vector<double> other(unset.size);
    RunNaiveSideKernel(KernelIsa::kBaseline, unset, exact.data());
    RunNaiveSideKernel(KernelIsa::kBaseline,
                       BucketSide(index, begin, end, other_side),
                       other.data());
    CutFold fold;
    fold.other = other.data();
    fold.delta_min = kInf;
    const std::string where =
        what + (side == Side::kLeft ? " left" : " right");
    for (size_t i = 0; i < unset.size; ++i) {
      const size_t row = begin + 1 + i;
      const SampleStats stats = side == Side::kLeft
                                    ? index.SliceRows(begin, row)
                                    : index.SliceRows(row, end);
      const double reference =
          stats.empty() ? 0.0
                        : NormalizedAbsDelta(naive.FromStats(stats).delta);
      ASSERT_EQ(Bits(exact[i]), Bits(reference)) << where << " lane " << i;
    }
    for (const KernelIsa isa : RunnableKernelIsas()) {
      for (const bool with_fold : {false, true}) {
        const SideRun want = RunSide(isa, unset, fold, with_fold);
        const SideRun got = RunSide(isa, certified, fold, with_fold);
        for (size_t i = 0; i < unset.size; ++i) {
          ASSERT_EQ(Bits(got.lanes[i]), Bits(want.lanes[i]))
              << where << " lane " << i << " of " << unset.size << ": "
              << got.lanes[i] << " vs " << want.lanes[i];
          const double e = exact[i];
          ASSERT_TRUE(Bits(got.lanes[i]) == Bits(e) ||
                      (std::isfinite(got.lanes[i]) && std::isfinite(e) &&
                       std::fabs(got.lanes[i] - e) <=
                           kApproxSideRho * got.lanes[i]))
              << where << " lane " << i << ": " << got.lanes[i] << " vs "
              << e;
          if (isa == KernelIsa::kAvx512f && !with_fold) {
            *approximated += Bits(got.lanes[i]) != Bits(e);
          }
        }
        ASSERT_EQ(got.candidates, want.candidates) << where;
      }
    }
  }
}

/// The whole index and its middle third as buckets.
int64_t ExpectIndexCertifiedMatchesUnset(const SortedEntityIndex& index,
                                         const std::string& what) {
  const size_t runs = index.runs();
  int64_t approximated = 0;
  ExpectCertifiedMatchesUnset(index, 0, runs, what, &approximated);
  if (runs >= 6) {
    ExpectCertifiedMatchesUnset(index, runs / 3, 2 * runs / 3, what + " mid",
                                &approximated);
  }
  return approximated;
}

TEST(IndexCertificate, CertifiedLanesEqualUnsetLanesOnIndexViews) {
  // A 50k replicate, the 6k prefix, and the tie-heavy 6k prefix with and
  // without its NaN level.
  const auto sample = PerfbenchStreamPrefix(50000);
  const SampleView view(*sample);
  Rng rng(0xCE7750);
  std::vector<int32_t> draws;
  ReplicateScratch scratch;
  ReplicateSample rep;
  view.DrawBootstrapSources(&rng, &draws);
  view.BuildReplicate(draws, &scratch, &rep);
  const SortedEntityIndex replicate(rep.entities);
  ASSERT_LE(replicate.prefix().n.back(), 0x1p21);
  const int64_t approximated =
      ExpectIndexCertifiedMatchesUnset(replicate, "50k replicate");
  ASSERT_FALSE(HasFatalFailure());
  if (HasApproximateBuild()) {
    // The certified lanes run approximate, not all on the exact fallback.
    EXPECT_GT(approximated, static_cast<int64_t>(replicate.runs()));
  }
  ExpectIndexCertifiedMatchesUnset(
      SortedEntityIndex(PerfbenchStreamPrefix(6000)->entities()), "6k");
  ASSERT_FALSE(HasFatalFailure());
  for (const bool nan_level : {false, true}) {
    ExpectIndexCertifiedMatchesUnset(
        SortedEntityIndex(TieHeavyStreamPrefix(6000, nan_level)->entities()),
        nan_level ? "tie-heavy with NaN" : "tie-heavy");
    ASSERT_FALSE(HasFatalFailure());
  }
}

TEST(IndexCertificate, CertifiedLanesEqualUnsetLanesOnSpecialValues) {
  // ±0 and ±inf values, and buckets with f1 = 0 and f1 = n everywhere.
  Rng rng(0xCE7751);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<EntityPoint> specials;
    std::vector<EntityPoint> no_singletons;
    std::vector<EntityPoint> all_singletons;
    for (int i = 0; i < 150; ++i) {
      const double v = rng.NextUniform(-50.0, 500.0);
      const double pick[] = {0.0, -0.0, kInf, -kInf, v, v};
      specials.push_back({pick[rng.NextBounded(6)],
                          1 + static_cast<int64_t>(rng.NextBounded(4))});
      no_singletons.push_back(
          {v, 2 + static_cast<int64_t>(rng.NextBounded(5))});
      all_singletons.push_back({v, 1});
    }
    const std::string t = " trial " + std::to_string(trial);
    ExpectIndexCertifiedMatchesUnset(SortedEntityIndex(std::move(specials)),
                                     "±0/±inf" + t);
    ExpectIndexCertifiedMatchesUnset(
        SortedEntityIndex(std::move(no_singletons)), "f1 = 0" + t);
    ExpectIndexCertifiedMatchesUnset(
        SortedEntityIndex(std::move(all_singletons)), "f1 = n" + t);
    ASSERT_FALSE(HasFatalFailure());
  }
}

/// An index of exactly `total` observations with one singleton, at the
/// lowest value or at the highest, and every other entity of multiplicity
/// 2 to 1024: every lane holding the singleton has f1 = 1.
SortedEntityIndex OneSingletonIndex(Rng* rng, int64_t total,
                                    bool singleton_last) {
  std::vector<EntityPoint> points;
  points.push_back({singleton_last ? 1e9 : -1.0, 1});
  int64_t left = total - 1;
  for (int i = 0; left > 0; ++i) {
    int64_t m = 2 + static_cast<int64_t>(rng->NextBounded(1023));
    if (left - m < 2) m = left;  // the last entity takes the remainder
    points.push_back({static_cast<double>(i) + rng->NextUniform(0.0, 0.5), m});
    left -= m;
  }
  return SortedEntityIndex(std::move(points));
}

TEST(IndexCertificate, IndexAtTheBoundStaysWithinRho) {
  // Total n = 2^21, the largest certified index: the lanes with f1 = 1
  // and n near 2^21 are where the skipped bound is tightest.
  Rng rng(0xB0B21);
  for (const bool singleton_last : {false, true}) {
    const SortedEntityIndex index =
        OneSingletonIndex(&rng, int64_t{1} << 21, singleton_last);
    ASSERT_EQ(index.prefix().n.back(), 0x1p21);
    ASSERT_EQ(index.prefix().f1.back(), 1.0);
    int64_t approximated = 0;
    ExpectCertifiedMatchesUnset(
        index, 0, index.runs(),
        singleton_last ? "singleton last" : "singleton first", &approximated);
    ASSERT_FALSE(HasFatalFailure());
    if (HasApproximateBuild()) {
      EXPECT_GT(approximated, static_cast<int64_t>(index.runs() / 2));
    }
  }
}

/// The naive estimator, checking every view the partitioner hands it: its
/// certificate is the index's total n, and its lanes (and candidates) are
/// the unset view's, bit for bit. Counts the lanes with f1 = 1 and
/// n > 2^23, where no index above the bound may skip the per-lane proof
/// (it fails there) and a lane is exact.
class CertificateSpy final : public StatsSumEstimator {
 public:
  explicit CertificateSpy(double index_n) : index_n_(index_n) {}
  std::string name() const override { return naive_.name(); }
  Estimate FromStats(const SampleStats& stats) const override {
    return naive_.FromStats(stats);
  }
  void DeltaFromPrefixSide(const PrefixSideView& side,
                           double* out) const override {
    EXPECT_EQ(side.index_n, index_n_);
    PrefixSideView unset = side;
    unset.index_n = kInf;
    std::vector<size_t> unset_candidates;
    CutFold unset_fold;
    if (side.fold != nullptr) {
      unset_fold = *side.fold;
      unset_fold.candidates = &unset_candidates;
      unset.fold = &unset_fold;
    }
    std::vector<double> want(side.size);
    std::vector<double> exact(side.size);
    RunNaiveSideKernel(RunnableKernelIsas().back(), unset, want.data());
    unset.fold = nullptr;
    RunNaiveSideKernel(KernelIsa::kBaseline, unset, exact.data());
    naive_.DeltaFromPrefixSide(side, out);
    const PrefixRow& a = side.anchor;
    const bool left = side.side == PrefixSideView::Side::kLeft;
    for (size_t i = 0; i < side.size; ++i) {
      ASSERT_EQ(Bits(out[i]), Bits(want[i])) << "lane " << i;
      const double n = left ? side.n[i] - a.n : a.n - side.n[i];
      const double f1 = left ? side.f1[i] - a.f1 : a.f1 - side.f1[i];
      if (f1 == 1.0 && n > 0x1p23) {
        ++unprovable_lanes_;
        ASSERT_EQ(Bits(out[i]), Bits(exact[i])) << "lane " << i;
      }
    }
    if (side.fold != nullptr) {
      ASSERT_EQ(*side.fold->candidates, unset_candidates);
    }
  }

  int64_t unprovable_lanes() const { return unprovable_lanes_; }

 private:
  NaiveEstimator naive_;
  double index_n_;
  mutable int64_t unprovable_lanes_ = 0;
};

TEST(IndexCertificate, PartitionerCertifiesNoIndexAboveTheBound) {
  Rng rng(0xAB0FE);
  PartitionScratch scratch;
  std::vector<size_t> bounds;
  // At the bound: certified, and the partition is the exact oracle's.
  const SortedEntityIndex at_bound =
      OneSingletonIndex(&rng, int64_t{1} << 21, /*singleton_last=*/false);
  const CertificateSpy at_spy(0x1p21);
  DynamicPartitioner().PartitionInto(at_bound, at_spy, &scratch, &bounds);
  ASSERT_FALSE(HasFatalFailure());
  const auto exact_naive = [](const PrefixSideView& view, double* out) {
    RunNaiveSideKernel(KernelIsa::kBaseline, view, out);
  };
  EXPECT_EQ(bounds,
            oracle::ExactDynamicPartition(at_bound, at_spy, exact_naive));

  // Above it: multiplicities near 2^30 around one singleton, so the lanes
  // holding the singleton have f1 = 1 and n ≥ 2^30, and ordinary entities
  // in between split the scan into many buckets.
  int64_t unprovable = 0;
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<EntityPoint> points;
    int64_t total = 0;
    for (int k = 0; k < 6; ++k) {
      const int64_t m = (int64_t{1} << 30) +
                        static_cast<int64_t>(rng.NextBounded(1 << 20));
      points.push_back({100.0 * k + 50.0, m});
      total += m;
      for (int i = 0; i < 20; ++i) {
        const int64_t small = 2 + static_cast<int64_t>(rng.NextBounded(4));
        points.push_back({100.0 * k + rng.NextUniform(0.0, 99.0), small});
        total += small;
      }
    }
    points.push_back({250.5 + trial, 1});
    total += 1;
    const SortedEntityIndex index{std::move(points)};
    ASSERT_EQ(index.prefix().n.back(), static_cast<double>(total));
    const CertificateSpy spy(static_cast<double>(total));
    DynamicPartitioner().PartitionInto(index, spy, &scratch, &bounds);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_EQ(bounds, oracle::ExactDynamicPartition(index, spy, exact_naive));
    unprovable += spy.unprovable_lanes();
  }
  EXPECT_GT(unprovable, 100);
}

}  // namespace
}  // namespace uuq
