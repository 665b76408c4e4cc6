// Fuzz suite for the split scan's side kernels.
//
// Every build of every side kernel (naive, frequency, freq-gt; each
// KernelIsa this CPU runs) must be BIT-IDENTICAL to the estimator's
// definition — NormalizedAbsDelta(FromStats(slice).delta) — on every lane of
// either side, and its first-minimum fold (CutFold) must leave exactly the
// scalar in-order fold's (first index, minimum bits) over those lanes.
// Lanes are run-space prefix rows of a real index (the rows the dynamic
// partitioner reads in place) against anchors at the start, middle and
// end, with lane counts 0–17 plus counts past the kernels' 256-lane block
// so every vector remainder and fold tail runs, over random / tie-heavy /
// all-singleton / constant-value indexes. The fold's adversarial cases
// (equal totals, signed zeros, ±inf, NaN, one cut) run on lanes from a tiny
// alphabet.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
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
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Lane counts per side: every remainder of the 2-, 4- and 8-wide builds
/// and of the fold's groups of eight, then counts around and past the
/// kernels' block.
std::vector<size_t> LaneCounts() {
  std::vector<size_t> counts;
  for (size_t k = 0; k <= 17; ++k) counts.push_back(k);
  for (size_t k : {255, 256, 257, 1000}) counts.push_back(k);
  return counts;
}

/// Run-space columns: one PrefixRow per lane, stored column-wise.
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

/// The in-order fold CutFold is defined by, over `lanes` as the kernel's
/// side and `other` as the memoized one.
void InOrderFold(const std::vector<double>& lanes, const double* other,
                 Side side, CutFold* fold) {
  fold->best = lanes.size();
  for (size_t i = 0; i < lanes.size(); ++i) {
    const double total = side == Side::kLeft
                             ? fold->delta_rest + lanes[i] + other[i]
                             : fold->delta_rest + other[i] + lanes[i];
    if (total < fold->delta_min) {
      fold->delta_min = total;
      fold->best = i;
    }
  }
}

/// One side kernel: its scalar definition and its per-build entry point.
struct Kernel {
  const StatsSumEstimator* scalar;
  void (*run)(KernelIsa, const PrefixSideView&, double*);
};

std::string IsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAvx512f:
      return "avx512f";
    case KernelIsa::kAvx2:
      return "avx2";
    default:
      return "baseline";
  }
}

/// Fold inputs besides the lanes: the other side, δrest and the entry δmin.
struct FoldInput {
  std::vector<double> other;
  double delta_rest = 0.0;
  double delta_min = kInf;
};

/// Runs one kernel build over `cols` twice — without and with the fold —
/// and checks every lane against its expected slice stats both times, then
/// the fold against InOrderFold over the reference lanes.
void ExpectSideMatchesScalar(const Kernel& kernel, KernelIsa isa,
                             const SideColumns& cols, const PrefixRow& anchor,
                             Side side,
                             const std::vector<SampleStats>& expected,
                             const FoldInput& input, const std::string& what) {
  ASSERT_EQ(cols.n.size(), expected.size()) << what;
  ASSERT_EQ(input.other.size(), expected.size()) << what;
  const std::string where = kernel.scalar->name() + " " + IsaName(isa) +
                            " " + what;
  std::vector<double> reference;
  for (const SampleStats& stats : expected) {
    reference.push_back(ScalarReference(*kernel.scalar, stats));
  }
  for (const bool with_fold : {false, true}) {
    CutFold fold;
    fold.other = input.other.data();
    fold.delta_rest = input.delta_rest;
    fold.delta_min = input.delta_min;
    PrefixSideView view = cols.View(anchor, side);
    view.fold = with_fold ? &fold : nullptr;
    // One sentinel past the lanes: the kernel must not write beyond `size`.
    std::vector<double> out(expected.size() + 1, kNan);
    kernel.run(isa, view, out.data());
    for (size_t i = 0; i < expected.size(); ++i) {
      // Bit-identical: exact double equality (NaN is never legal —
      // non-finite deltas normalize to +inf).
      EXPECT_FALSE(std::isnan(out[i])) << where << " lane " << i;
      EXPECT_EQ(reference[i], out[i])
          << where << " lane " << i << " of " << expected.size();
    }
    EXPECT_TRUE(std::isnan(out.back())) << where << ": wrote past the lanes";
    if (!with_fold) continue;
    CutFold in_order;
    in_order.delta_rest = input.delta_rest;
    in_order.delta_min = input.delta_min;
    InOrderFold(reference, input.other.data(), side, &in_order);
    EXPECT_EQ(fold.best, in_order.best) << where << " fold";
    EXPECT_EQ(Bits(fold.delta_min), Bits(in_order.delta_min))
        << where << " fold: " << fold.delta_min << " vs "
        << in_order.delta_min;
  }
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

/// A random other side: small integers, zeros of either sign, ±inf.
std::vector<double> RandomOther(Rng* rng, size_t count) {
  const double alphabet[] = {0.0, -0.0, 0.5, 1.0, 4.0, kInf, -kInf};
  std::vector<double> other(count);
  for (double& v : other) {
    v = rng->NextBounded(4) == 0
            ? alphabet[rng->NextBounded(std::size(alphabet))]
            : std::floor(rng->NextUniform(0.0, 8.0));
  }
  return other;
}

class SideKernelFuzz : public ::testing::Test {
 protected:
  NaiveEstimator naive_;
  FrequencyEstimator freq_;
  FrequencyEstimator freq_gt_{/*assume_uniform=*/true};

  std::vector<Kernel> All() const {
    return {{&naive_, &RunNaiveSideKernel},
            {&freq_,
             [](KernelIsa isa, const PrefixSideView& side, double* out) {
               RunFrequencySideKernel(false, isa, side, out);
             }},
            {&freq_gt_,
             [](KernelIsa isa, const PrefixSideView& side, double* out) {
               RunFrequencySideKernel(true, isa, side, out);
             }}};
  }

  /// Every build of every kernel over `cols`.
  void CheckAllBuilds(const SideColumns& cols, const PrefixRow& anchor,
                      Side side, const std::vector<SampleStats>& expected,
                      const FoldInput& input, const std::string& what) {
    for (const Kernel& kernel : All()) {
      for (KernelIsa isa : RunnableKernelIsas()) {
        ExpectSideMatchesScalar(kernel, isa, cols, anchor, side, expected,
                                input, what);
      }
    }
  }

  /// Both sides of `index` at anchor rows 0, mid and last, for every lane
  /// count, kernel and build. Lane rows are drawn from the anchor's side of
  /// the index (the anchor row itself included: an empty lane) and sorted,
  /// like a bucket's candidate rows. Returns the +inf lanes the naive
  /// kernel produced.
  int CheckIndex(Rng* rng, const SortedEntityIndex& index,
                 const std::string& what) {
    int infinities = 0;
    const size_t runs = index.runs();
    for (size_t anchor : {size_t{0}, runs / 2, runs}) {
      for (Side side : {Side::kLeft, Side::kRight}) {
        const size_t lo = side == Side::kLeft ? anchor : 0;
        const size_t hi = side == Side::kLeft ? runs : anchor;
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
            expected.push_back(side == Side::kLeft
                                   ? index.SliceRows(anchor, row)
                                   : index.SliceRows(row, anchor));
          }
          FoldInput input;
          input.other = RandomOther(rng, count);
          input.delta_rest = std::floor(rng->NextUniform(0.0, 4.0));
          input.delta_min = rng->NextBounded(3) == 0
                                ? kInf
                                : std::floor(rng->NextUniform(0.0, 40.0));
          const std::string where =
              what + " anchor " + std::to_string(anchor) +
              (side == Side::kLeft ? " left" : " right") + " count " +
              std::to_string(count);
          CheckAllBuilds(cols, index.Row(anchor), side, expected, input,
                         where);
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
  ASSERT_EQ(empty.runs(), 0u);
  CheckIndex(&rng, empty, "empty index");
  SideColumns cols;
  for (int i = 0; i < 9; ++i) cols.Push(empty.Row(0));
  for (const Kernel& kernel : All()) {
    for (KernelIsa isa : RunnableKernelIsas()) {
      for (Side side : {Side::kLeft, Side::kRight}) {
        std::vector<double> out(9, 1.0);
        kernel.run(isa, cols.View(empty.Row(0), side), out.data());
        for (double v : out) {
          EXPECT_EQ(v, 0.0) << kernel.scalar->name() << " " << IsaName(isa);
        }
      }
    }
  }
}

/// Zero-anchor rows: left lane i is exactly its stored row (x − 0), right
/// lane i is 0 − (−x).
PrefixRow RowOf(const SampleStats& s, Side side) {
  const double sign = side == Side::kLeft ? 1.0 : -1.0;
  PrefixRow row;
  row.n = sign * static_cast<double>(s.n);
  row.c = sign * static_cast<double>(s.c);
  row.f1 = sign * static_cast<double>(s.f1);
  row.sum_mm1 = sign * static_cast<double>(s.sum_mm1);
  row.value_sum = sign * s.value_sum;
  row.singleton_sum = sign * s.singleton_sum;
  return row;
}

TEST_F(SideKernelFuzz, DegenerateStatsThroughZeroAnchor) {
  // Lane stats the scan never builds but the contract still covers:
  // inconsistent hand-assembled stats (n > 0, c == 0) and huge counts.
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
  FoldInput input;
  input.other = {1.0, 0.0, -0.0, 2.0};
  for (Side side : {Side::kLeft, Side::kRight}) {
    SideColumns cols;
    for (const SampleStats& s : stats) cols.Push(RowOf(s, side));
    CheckAllBuilds(cols, PrefixRow{}, side, stats, input,
                   side == Side::kLeft ? "degenerate left"
                                       : "degenerate right");
  }
}

/// The fold's adversarial cases on lanes from a tiny alphabet (through a
/// zero anchor): the empty lane (0.0), an all-singleton lane (+inf) and two
/// ordinary lanes, so equal totals are everywhere.
class FoldFuzz : public SideKernelFuzz {
 protected:
  FoldFuzz() {
    SampleStats singletons;
    for (int i = 1; i <= 3; ++i) singletons.Add(EntityPoint{i * 2.0, 1});
    SampleStats a;
    for (int i = 1; i <= 6; ++i) a.Add(EntityPoint{i * 3.5, i % 3 + 1});
    SampleStats b;
    for (int i = 1; i <= 5; ++i) b.Add(EntityPoint{i * 1.0, 2});
    alphabet_ = {SampleStats{}, singletons, a, b};
  }

  /// Lane j is alphabet letter pick[j], on either side.
  void Check(const std::vector<size_t>& pick, const FoldInput& input,
             const std::string& what) {
    for (Side side : {Side::kLeft, Side::kRight}) {
      SideColumns cols;
      std::vector<SampleStats> expected;
      for (size_t letter : pick) {
        cols.Push(RowOf(alphabet_[letter], side));
        expected.push_back(alphabet_[letter]);
      }
      CheckAllBuilds(cols, PrefixRow{}, side, expected, input,
                     what + (side == Side::kLeft ? " left" : " right"));
    }
  }

  std::vector<SampleStats> alphabet_;
};

TEST_F(FoldFuzz, TinyAlphabetMatchesInOrderFold) {
  const double others[] = {0.0, -0.0, 0.5, 1.0, 2.0, kInf, -kInf, kNan};
  const double rests[] = {0.0, -0.0, 1.0, 3.0};
  const double mins[] = {kInf, 5.0, 2.5, 1.0, 0.0, kNan};
  Rng rng(0x2FA55);
  for (int trial = 0; trial < 400; ++trial) {
    // Counts straddle the groups of eight, their tail and the block.
    const size_t count = trial % 10 == 0 ? 1000 : rng.NextBounded(41);
    const size_t letters = 1 + rng.NextBounded(alphabet_.size());
    const size_t other_letters = 1 + rng.NextBounded(std::size(others));
    std::vector<size_t> pick(count);
    FoldInput input;
    input.other.resize(count);
    for (size_t j = 0; j < count; ++j) {
      pick[j] = rng.NextBounded(letters);
      input.other[j] = others[rng.NextBounded(other_letters)];
    }
    input.delta_rest = rests[rng.NextBounded(std::size(rests))];
    input.delta_min = mins[rng.NextBounded(std::size(mins))];
    Check(pick, input, "trial " + std::to_string(trial));
  }
}

TEST_F(FoldFuzz, HandPickedShapesMatchInOrderFold) {
  // All equal, a single cut, no cut, all +inf, all −inf, all NaN, and the
  // minimum first, last, at a group or block edge, in the tail and
  // repeated. Lanes are all the same ordinary letter, so the other side
  // places the minimum.
  for (const double delta_min : {kInf, 10.0, 2.0}) {
    FoldInput input;
    input.delta_min = delta_min;
    const auto same = [](size_t count) {
      return std::vector<size_t>(count, 3);
    };
    input.other.assign(19, 1.0);
    Check(same(19), input, "equal");
    input.delta_rest = 0.5;
    input.other = {0.25};
    Check(same(1), input, "single cut");
    input.other.clear();
    Check(same(0), input, "no cut");
    input.delta_rest = 1.0;
    input.other.assign(17, kInf);
    Check(same(17), input, "inf");
    input.other.assign(17, -kInf);
    Check(same(17), input, "-inf");
    input.other.assign(17, kNan);
    Check(same(17), input, "nan");
    input.delta_rest = 0.0;
    for (const size_t count : {size_t{19}, size_t{600}}) {
      for (const size_t at : {0, 7, 8, 15, 16, 18, 255, 256, 263, 599}) {
        if (at >= count) continue;
        input.other.assign(count, 3.0);
        for (size_t j = 0; j < count; ++j) {
          if (j % 3 == 0) input.other[j] = kNan;
        }
        input.other[at] = 0.25;
        if (at + 9 < count) input.other[at + 9] = 0.25;
        Check(same(count), input,
              "minimum at " + std::to_string(at) + " of " +
                  std::to_string(count));
      }
    }
  }
}

}  // namespace
}  // namespace uuq
