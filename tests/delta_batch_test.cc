// Fuzz suite for the split scan's side kernels.
//
// StatsSumEstimator::DeltaFromPrefixSide must be BIT-IDENTICAL to the
// estimator's definition — NormalizedAbsDelta(FromStats(slice).delta) — on
// every lane of either side, for every inner estimator (naive, frequency,
// freq-gt). Lanes are cut-space
// prefix rows of a real index (compacted the way the dynamic partitioner
// does) against anchors at the start, middle and end, with lane counts
// 0–17 plus one large count so every vector remainder path runs, over
// random / tie-heavy / all-singleton / constant-value indexes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/bucket.h"
#include "core/estimate.h"
#include "core/frequency.h"
#include "core/naive.h"

namespace uuq {
namespace {

using Side = PrefixSideView::Side;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Lane counts per side: every remainder of the 2-, 4- and 8-wide clones,
/// then one large count.
std::vector<size_t> LaneCounts() {
  std::vector<size_t> counts;
  for (size_t k = 0; k <= 17; ++k) counts.push_back(k);
  counts.push_back(1000);
  return counts;
}

/// Cut-space columns: one PrefixRow per lane, stored column-wise.
struct SideColumns {
  std::vector<double> n, c, f1, mm1, value_sum, singleton_sum;

  void Push(const PrefixRow& row) {
    n.push_back(row.n);
    c.push_back(row.c);
    f1.push_back(row.f1);
    mm1.push_back(row.sum_mm1);
    value_sum.push_back(row.value_sum);
    singleton_sum.push_back(row.singleton_sum);
  }

  PrefixSideView View(const PrefixRow& anchor, Side side) const {
    PrefixSideView view;
    view.size = n.size();
    view.n = n.data();
    view.c = c.data();
    view.f1 = f1.data();
    view.sum_mm1 = mm1.data();
    view.value_sum = value_sum.data();
    view.singleton_sum = singleton_sum.data();
    view.anchor = anchor;
    view.side = side;
    return view;
  }
};

/// The scalar reference for one lane: exactly what the split scan's AbsDelta
/// computes (0.0 for empty stats, fabs-or-inf otherwise).
double ScalarReference(const StatsSumEstimator& est, const SampleStats& s) {
  if (s.empty()) return 0.0;
  return NormalizedAbsDelta(est.FromStats(s).delta);
}

/// Runs one side kernel call and checks every lane against its expected
/// slice stats.
void ExpectSideMatchesScalar(const StatsSumEstimator& est,
                             const SideColumns& cols, const PrefixRow& anchor,
                             Side side,
                             const std::vector<SampleStats>& expected,
                             const std::string& what) {
  ASSERT_EQ(cols.n.size(), expected.size()) << what;
  // One sentinel past the lanes: the kernel must not write beyond `size`.
  std::vector<double> out(expected.size() + 1,
                          std::numeric_limits<double>::quiet_NaN());
  est.DeltaFromPrefixSide(cols.View(anchor, side), out.data());
  for (size_t i = 0; i < expected.size(); ++i) {
    // Bit-identical: exact double equality (NaN is never legal —
    // non-finite deltas normalize to +inf).
    EXPECT_FALSE(std::isnan(out[i])) << what << " lane " << i;
    EXPECT_EQ(ScalarReference(est, expected[i]), out[i])
        << what << " lane " << i << " of " << expected.size();
  }
  EXPECT_TRUE(std::isnan(out.back())) << what << ": wrote past the lanes";
}

/// An index over `n` random points; `distinct` > 0 draws values from that
/// many levels (tie-heavy), `singletons` forces multiplicity 1, and
/// `constant` gives every point the same value.
SortedEntityIndex RandomIndex(Rng* rng, int n, int distinct, bool singletons,
                              bool constant) {
  std::vector<EntityPoint> points;
  const double level = rng->NextUniform(-50.0, 50.0);
  for (int i = 0; i < n; ++i) {
    double value = rng->NextUniform(-100.0, 1000.0);
    if (distinct > 0) {
      value = static_cast<double>(rng->NextBounded(distinct)) * 10.0;
    }
    if (constant) value = level;
    const int64_t mult =
        singletons ? 1 : 1 + static_cast<int64_t>(rng->NextBounded(5));
    points.push_back({value, mult});
  }
  return SortedEntityIndex(std::move(points));
}

class SideKernelFuzz : public ::testing::Test {
 protected:
  NaiveEstimator naive_;
  FrequencyEstimator freq_;
  FrequencyEstimator freq_gt_{/*assume_uniform=*/true};

  std::vector<const StatsSumEstimator*> All() const {
    return {&naive_, &freq_, &freq_gt_};
  }

  /// Both sides of `index` at anchors 0, mid and end, for every lane count
  /// and estimator. Lane rows are drawn from the anchor's side of the index
  /// (the anchor row itself included: an empty lane) and sorted, like the
  /// cuts of a bucket. Returns the +inf lanes the naive kernel produced.
  int CheckIndex(Rng* rng, const SortedEntityIndex& index,
                 const std::string& what) {
    int infinities = 0;
    const size_t size = index.size();
    for (size_t anchor : {size_t{0}, size / 2, size}) {
      for (Side side : {Side::kLeft, Side::kRight}) {
        const size_t lo = side == Side::kLeft ? anchor : 0;
        const size_t hi = side == Side::kLeft ? size : anchor;
        for (size_t count : LaneCounts()) {
          std::vector<size_t> rows;
          for (size_t i = 0; i < count; ++i) {
            rows.push_back(lo + rng->NextBounded(hi - lo + 1));
          }
          std::sort(rows.begin(), rows.end());
          SideColumns cols;
          std::vector<SampleStats> expected;
          for (size_t row : rows) {
            cols.Push(index.Row(row));
            expected.push_back(side == Side::kLeft ? index.Slice(anchor, row)
                                                   : index.Slice(row, anchor));
          }
          const std::string where =
              what + " anchor " + std::to_string(anchor) +
              (side == Side::kLeft ? " left" : " right") + " count " +
              std::to_string(count);
          for (const StatsSumEstimator* est : All()) {
            ExpectSideMatchesScalar(*est, cols, index.Row(anchor), side,
                                    expected, est->name() + " " + where);
          }
          std::vector<double> out(count);
          naive_.DeltaFromPrefixSide(cols.View(index.Row(anchor), side),
                                     out.data());
          for (size_t i = 0; i < count; ++i) {
            if (out[i] == kInf) ++infinities;
          }
        }
      }
    }
    return infinities;
  }
};

TEST_F(SideKernelFuzz, RandomIndexesBitIdentical) {
  Rng rng(0xBA7C4);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(300));
    CheckIndex(&rng, RandomIndex(&rng, n, 0, false, false),
               "random trial " + std::to_string(trial));
  }
}

TEST_F(SideKernelFuzz, TieHeavyIndexesBitIdentical) {
  Rng rng(0xBA7C5);
  for (int trial = 0; trial < 8; ++trial) {
    const int distinct = 2 + static_cast<int>(rng.NextBounded(6));
    const int n = 20 + static_cast<int>(rng.NextBounded(200));
    CheckIndex(&rng, RandomIndex(&rng, n, distinct, false, false),
               "tie-heavy trial " + std::to_string(trial));
  }
}

TEST_F(SideKernelFuzz, AllSingletonLanesNormalizeToInfinity) {
  // Every non-empty lane is all-singletons: Chao92 diverges, the scalar
  // chain returns a non-finite delta, and both paths must normalize it to
  // exactly +inf (and the empty lanes to exactly 0.0).
  Rng rng(0xBA7C6);
  int infinities = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(120));
    infinities += CheckIndex(&rng, RandomIndex(&rng, n, 0, true, false),
                             "all-singleton trial " + std::to_string(trial));
  }
  EXPECT_GT(infinities, 0) << "fuzz population never exercised the "
                              "all-singleton divergence";
}

TEST_F(SideKernelFuzz, ConstantValueIndexesBitIdentical) {
  Rng rng(0xBA7C7);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(100));
    CheckIndex(&rng, RandomIndex(&rng, n, 0, false, true),
               "constant-value trial " + std::to_string(trial));
  }
}

TEST_F(SideKernelFuzz, EmptyIndexHasOnlyEmptyLanes) {
  // A single prefix row: every lane of either side is the empty slice.
  Rng rng(0xBA7C9);
  const SortedEntityIndex empty{std::vector<EntityPoint>{}};
  CheckIndex(&rng, empty, "empty index");
  SideColumns cols;
  for (int i = 0; i < 9; ++i) cols.Push(empty.Row(0));
  for (const StatsSumEstimator* est : All()) {
    for (Side side : {Side::kLeft, Side::kRight}) {
      std::vector<double> out(9, 1.0);
      est->DeltaFromPrefixSide(cols.View(empty.Row(0), side), out.data());
      for (double v : out) EXPECT_EQ(v, 0.0) << est->name();
    }
  }
}

TEST_F(SideKernelFuzz, DegenerateStatsThroughZeroAnchor) {
  // Lane stats the scan never builds but the contract still covers:
  // inconsistent hand-assembled stats (n > 0, c == 0) and huge counts. A
  // zero anchor makes each lane exactly its stored row — left: x − 0,
  // right: 0 − (−x).
  SampleStats inconsistent;
  inconsistent.n = 7;
  inconsistent.f1 = 2;
  inconsistent.value_sum = 123.5;
  SampleStats huge;
  huge.n = (int64_t{1} << 31);
  huge.c = (int64_t{1} << 30);
  huge.f1 = 12345;
  huge.sum_mm1 = (int64_t{1} << 33);
  huge.value_sum = 1e18;
  huge.singleton_sum = 1e12;
  SampleStats ordinary;
  for (int i = 1; i <= 6; ++i) ordinary.Add(EntityPoint{i * 3.5, i % 3 + 1});
  const std::vector<SampleStats> stats = {SampleStats{}, inconsistent, huge,
                                          ordinary};
  const auto row_of = [](const SampleStats& s, double sign) {
    PrefixRow row;
    row.n = sign * static_cast<double>(s.n);
    row.c = sign * static_cast<double>(s.c);
    row.f1 = sign * static_cast<double>(s.f1);
    row.sum_mm1 = sign * static_cast<double>(s.sum_mm1);
    row.value_sum = sign * s.value_sum;
    row.singleton_sum = sign * s.singleton_sum;
    return row;
  };
  SideColumns left_cols;
  SideColumns right_cols;
  for (const SampleStats& s : stats) {
    left_cols.Push(row_of(s, 1.0));
    right_cols.Push(row_of(s, -1.0));
  }
  for (const StatsSumEstimator* est : All()) {
    ExpectSideMatchesScalar(*est, left_cols, PrefixRow{}, Side::kLeft, stats,
                            est->name() + " degenerate left");
    ExpectSideMatchesScalar(*est, right_cols, PrefixRow{}, Side::kRight,
                            stats, est->name() + " degenerate right");
  }
}

}  // namespace
}  // namespace uuq
