// Fuzz suite for the split scan's side kernels.
//
// Every exact build of every side kernel (naive, frequency, freq-gt; each
// KernelIsa this CPU runs) must be BIT-IDENTICAL to the estimator's
// definition — NormalizedAbsDelta(FromStats(slice).delta) — on every lane of
// either side; the approximate build (the naive kernel's AVX-512F one) must
// write each lane exactly or within ρ·out[i] of it. With a fold, the
// candidate cuts the kernel lists (CutFold) must carry the in-order fold:
// the fold over the listed lanes' exact totals leaves exactly the
// (first index, minimum bits) of the fold over every lane's exact total.
// Lanes are run-space prefix rows of a real index (the rows the dynamic
// partitioner reads in place) against anchors at the start, middle and
// end, with lane counts 0–17 plus counts past the kernels' 256-lane block
// so every vector remainder and fold tail runs, over random / tie-heavy /
// all-singleton / constant-value indexes, and hand-built adversarial
// stats (±0 and NaN value sums, ±inf sums, f1 = 0 and f1 = n, n ∈ {1, 2},
// counts near 2^40). The fold's adversarial cases (equal totals, signed
// zeros, ±inf, NaN, one cut) run on lanes from a tiny alphabet.
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

/// The in-order fold CutFold carries, over lanes `order` (ascending) of
/// `lanes` as the kernel's side and `other` as the memoized one: the chosen
/// lane (or `lanes.size()`) and the final δmin.
struct FoldResult {
  size_t best;
  double delta_min;
};
FoldResult InOrderFold(const std::vector<double>& lanes, const double* other,
                       Side side, double delta_rest, double delta_min,
                       const std::vector<size_t>& order) {
  FoldResult result{lanes.size(), delta_min};
  for (const size_t i : order) {
    const double total = side == Side::kLeft
                             ? delta_rest + lanes[i] + other[i]
                             : delta_rest + other[i] + lanes[i];
    if (total < result.delta_min) {
      result.delta_min = total;
      result.best = i;
    }
  }
  return result;
}

std::vector<size_t> AllLanes(size_t count) {
  std::vector<size_t> lanes(count);
  for (size_t i = 0; i < count; ++i) lanes[i] = i;
  return lanes;
}

/// One side kernel: its scalar definition and its per-build entry point,
/// which returns the ρ its lanes meet.
struct Kernel {
  const StatsSumEstimator* scalar;
  double (*run)(KernelIsa, const PrefixSideView&, double*);
};

/// The side kernel contract for one lane: exact bits at ρ = 0, otherwise
/// the exact lane or a finite value within ρ·out of it.
void ExpectLaneWithinRho(double reference, double out, double rho,
                         const std::string& where) {
  // NaN is never legal: non-finite deltas normalize to +inf.
  EXPECT_FALSE(std::isnan(out)) << where;
  if (rho == 0.0 || Bits(out) == Bits(reference)) {
    EXPECT_EQ(Bits(reference), Bits(out))
        << where << ": " << reference << " vs " << out;
    return;
  }
  EXPECT_TRUE(std::isfinite(out) && std::isfinite(reference))
      << where << ": " << reference << " vs " << out;
  EXPECT_LE(std::fabs(out - reference), rho * out)
      << where << ": " << reference << " vs " << out;
}

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
/// the listed candidates: ascending, and the in-order fold over their
/// exact totals is InOrderFold over every lane's.
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
    std::vector<size_t> candidates = {12345};  // the kernel must clear it
    CutFold fold;
    fold.other = input.other.data();
    fold.delta_rest = input.delta_rest;
    fold.delta_min = input.delta_min;
    fold.candidates = &candidates;
    PrefixSideView view = cols.View(anchor, side);
    view.fold = with_fold ? &fold : nullptr;
    // One sentinel past the lanes: the kernel must not write beyond `size`.
    std::vector<double> out(expected.size() + 1, kNan);
    const double rho = kernel.run(isa, view, out.data());
    EXPECT_TRUE(rho == 0.0 || rho == kApproxSideRho) << where;
    for (size_t i = 0; i < expected.size(); ++i) {
      ExpectLaneWithinRho(reference[i], out[i], rho,
                          where + " lane " + std::to_string(i) + " of " +
                              std::to_string(expected.size()));
    }
    EXPECT_TRUE(std::isnan(out.back())) << where << ": wrote past the lanes";
    if (!with_fold) continue;
    for (size_t k = 0; k < candidates.size(); ++k) {
      ASSERT_LT(candidates[k], expected.size()) << where;
      if (k > 0) {
        ASSERT_LT(candidates[k - 1], candidates[k]) << where;
      }
    }
    const FoldResult all =
        InOrderFold(reference, input.other.data(), side, input.delta_rest,
                    input.delta_min, AllLanes(expected.size()));
    const FoldResult listed =
        InOrderFold(reference, input.other.data(), side, input.delta_rest,
                    input.delta_min, candidates);
    EXPECT_EQ(listed.best, all.best) << where << " fold";
    EXPECT_EQ(Bits(listed.delta_min), Bits(all.delta_min))
        << where << " fold: " << listed.delta_min << " vs " << all.delta_min;
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
               return 0.0;
             }},
            {&freq_gt_,
             [](KernelIsa isa, const PrefixSideView& side, double* out) {
               RunFrequencySideKernel(true, isa, side, out);
               return 0.0;
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

/// Hand-built lane stats of n observations, c entities, f1 singletons and
/// Σm(m−1) = mm1, with value sums φ and φf1.
SampleStats Stats(int64_t n, int64_t c, int64_t f1, int64_t mm1,
                  double value_sum, double singleton_sum) {
  SampleStats s;
  s.n = n;
  s.c = c;
  s.f1 = f1;
  s.sum_mm1 = mm1;
  s.value_sum = value_sum;
  s.singleton_sum = singleton_sum;
  return s;
}

TEST_F(SideKernelFuzz, AdversarialStatsThroughZeroAnchor) {
  // The special value sums, the Ĉ ≤ 0 boundary (f1 = n, and f1 = n − 1
  // where 1 − f1/n is a few ulps), f1 = 0, n ∈ {1, 2}, and counts near
  // 2^40, where the exact chain's own rounding of N̂ − c grows past ρ.
  const double sums[] = {0.0,   -0.0, 1.0,        -3.5,   kNan,
                         kInf, -kInf, 1e300,      1e-300, 4.9e-324,
                         123456.75};
  std::vector<SampleStats> stats;
  for (const double sum : sums) {
    stats.push_back(Stats(1, 1, 1, 0, sum, sum));
    stats.push_back(Stats(1, 1, 0, 0, sum, 0.0));
    stats.push_back(Stats(2, 2, 2, 0, sum, sum));
    stats.push_back(Stats(2, 1, 0, 2, sum, 0.0));
    stats.push_back(Stats(3, 2, 1, 2, sum, sum / 3));
    stats.push_back(Stats(40, 25, 20, 60, sum, sum / 2));
  }
  // A power-of-two n has an exact reciprocal estimate; the others do not.
  std::vector<int64_t> huge;
  for (const int shift : {20, 31, 32, 39, 40, 41}) {
    for (const int64_t odd : {0, 1, 12345, 987654321}) {
      huge.push_back((int64_t{1} << shift) + (odd << (shift / 2)) + odd);
    }
  }
  for (const int64_t n : huge) {
    for (const int64_t f1 : {int64_t{0}, int64_t{1}, int64_t{2}, n / 3,
                             n / 2, n - 2, n - 1, n}) {
      const int64_t c = std::max<int64_t>(f1, 1) + (n - f1) / 4;
      const int64_t rest = (n - f1) / 2;
      const int64_t mm1 = rest > 0 ? 6 * rest : 0;  // multiplicity-3 rest
      for (const double sum : {1.0, 7.25e9, 3.0e-5}) {
        stats.push_back(Stats(n, std::min(c, n), f1, mm1, sum * n,
                              sum * static_cast<double>(f1)));
      }
    }
  }
  // Skewed slices: a few huge entities (γ̂² ≫ 1) and γ̂² near 0.
  stats.push_back(Stats(1000, 12, 10, 990 * 989, 5e6, 1e4));
  stats.push_back(Stats(int64_t{1} << 36, 1000, 990,
                        int64_t{1} << 62, 1e15, 1e7));
  stats.push_back(Stats(100, 60, 40, 120, 2.5e3, 1e3));
  FoldInput input;
  Rng rng(0xAD5E);
  input.other = RandomOther(&rng, stats.size());
  input.delta_rest = 1.0;
  for (Side side : {Side::kLeft, Side::kRight}) {
    SideColumns cols;
    for (const SampleStats& s : stats) cols.Push(RowOf(s, side));
    CheckAllBuilds(cols, PrefixRow{}, side, stats, input,
                   side == Side::kLeft ? "adversarial left"
                                       : "adversarial right");
  }
}

TEST(SideBounds, BracketTheExactProductOfEveryValue) {
  // SideLowerBound(v) ≤ v·(1 − ρ) and SideUpperBound(v) ≥ v·(1 + ρ)
  // exactly: fma rounds v·(1 ∓ ρ) − bound once, which keeps its sign. A
  // bracket without the rounding step fails on about half the values.
  ASSERT_EQ(1.0 - kApproxSideRho + kApproxSideRho, 1.0);  // 1 ∓ ρ exact
  Rng rng(0xB0B0);
  for (int i = 0; i < 200000; ++i) {
    const double v = std::ldexp(rng.NextUniform(1.0, 2.0),
                                static_cast<int>(rng.NextBounded(2000)) - 1000);
    const double lower = SideLowerBound(v, kApproxSideRho);
    const double upper = SideUpperBound(v, kApproxSideRho);
    ASSERT_GE(std::fma(v, 1.0 - kApproxSideRho, -lower), 0.0) << v;
    ASSERT_LE(std::fma(v, 1.0 + kApproxSideRho, -upper), 0.0) << v;
  }
  for (const double v : {0.0, -0.0, 4.9e-324, 1e-310, kInf}) {
    EXPECT_LE(SideLowerBound(v, kApproxSideRho), v);
    EXPECT_GE(SideUpperBound(v, kApproxSideRho), v);
  }
  // Exact lanes bracket by themselves.
  for (const double v : {0.0, -0.0, 1.5, kInf, -kInf}) {
    EXPECT_EQ(Bits(SideLowerBound(v, 0.0)), Bits(v));
    EXPECT_EQ(Bits(SideUpperBound(v, 0.0)), Bits(v));
  }
}

TEST_F(SideKernelFuzz, ApproximateBuildIsApproximate) {
  // The approximate build falls back to the exact chain a vector at a
  // time, so an all-exact result would still meet the contract; it would
  // only be slow. On ordinary slices most lanes must differ from the
  // exact bits (about 4 in 5 do).
  const auto& isas = RunnableKernelIsas();
  if (std::find(isas.begin(), isas.end(), KernelIsa::kAvx512f) ==
      isas.end()) {
    GTEST_SKIP() << "no approximate build on this CPU";
  }
  Rng rng(0xA99A);
  const SortedEntityIndex index = RandomIndex(&rng, 4000, 0, false, false);
  const size_t runs = index.runs();
  SideColumns cols;
  for (size_t row = 1; row < runs; ++row) cols.Push(index.Row(row));
  std::vector<double> approx(runs - 1);
  std::vector<double> exact(runs - 1);
  const PrefixSideView view = cols.View(index.Row(0), Side::kLeft);
  EXPECT_EQ(RunNaiveSideKernel(KernelIsa::kAvx512f, view, approx.data()),
            kApproxSideRho);
  EXPECT_EQ(RunNaiveSideKernel(KernelIsa::kBaseline, view, exact.data()),
            0.0);
  size_t differ = 0;
  for (size_t i = 0; i < approx.size(); ++i) {
    differ += Bits(approx[i]) != Bits(exact[i]);
  }
  EXPECT_GT(differ, approx.size() / 2)
      << differ << " of " << approx.size() << " lanes differ";
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
