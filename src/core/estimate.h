// Estimator currency types: Estimate (what every estimator produces), the
// prefix-row and side-view types of the split-scan kernels, and the
// estimator interfaces. Their input, SampleStats (the sufficient statistics
// every estimator consumes), is defined in integration/sample_stats.h.
#ifndef UUQ_CORE_ESTIMATE_H_
#define UUQ_CORE_ESTIMATE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/macros.h"
#include "integration/sample.h"
#include "integration/sample_stats.h"
#include "integration/sample_view.h"
#include "stats/fstats.h"

namespace uuq {

/// One row of the prefix-sum columns: the running sums of the fields the
/// closed-form Δ expressions read (value_sum_sq is deliberately absent — no
/// inner estimator's Δ reads it). Count fields hold `static_cast<double>` of
/// the int64 running sum, exact below 2^53 (a ~9·10^15-observation sample),
/// so a difference of two rows is exactly the slice's field.
struct PrefixRow {
  double n = 0.0;
  double c = 0.0;
  double f1 = 0.0;
  double sum_mm1 = 0.0;
  double value_sum = 0.0;
  double singleton_sum = 0.0;
};

/// The split scan's certified cut choice, run by the side kernel that
/// evaluates the bucket's second side. Candidate i's total is
/// delta_rest + left_i + right_i, evaluated left to right, where one side is
/// the kernel's lane i and the other is other[i] (the memoized side, written
/// by an earlier call of the same kernel). Each side is the exact lane or
/// within ρ of it (DeltaFromPrefixSide), so the kernel brackets the exact
/// total T_i by a lower total (the same sum over SideLowerBound of both
/// sides) and an upper total (over SideUpperBound): IEEE addition rounds
/// monotonically, so lower_i ≤ T_i ≤ upper_i. The kernel takes U, the
/// upper total of the lane with the smallest lower total, and lists, in
/// ascending order, every lane whose lower total is ≤ U and strictly below
/// delta_min.
///
/// Any lane's upper total is ≥ the smallest exact total m, U included, so
/// the list holds every lane whose exact total is m if m < delta_min
/// (lower ≤ m ≤ U), and no lane whose exact total exceeds U.
/// So the in-order fold over the listed lanes' exact totals
///   for i: if (T_i < delta_min) { delta_min = T_i; best = i; }
/// picks the same lane and the same delta_min bits as over all lanes, ties,
/// signed zeros, ±inf and NaN included (a NaN total is never listed and
/// never wins); an empty list certifies that no cut goes below delta_min.
/// The caller (DynamicPartitioner) runs that fold. Sides must be ≥ 0, ±inf
/// or NaN, as every |Δ| lane is: a negative finite side has no bracket.
struct CutFold {
  const double* other = nullptr;  ///< the other side's |Δ|, one per lane
  double delta_rest = 0.0;
  double delta_min = 0.0;  ///< δmin: a lane must be able to go below it
  std::vector<size_t>* candidates = nullptr;  ///< out: ascending lanes
};

/// The relative error ρ of an approximate side lane: the approximate
/// AVX-512F naive kernel's lanes are the exact lane or within ρ·out[i] of
/// it (core/naive.cc derives the per-lane bound it checks against ρ); every
/// other build and kernel is exact, ρ = 0. One constant, a power of two,
/// so 1 ± ρ is exact.
constexpr double kApproxSideRho = 0x1p-24;

/// The bracket of an exact side from a lane `value` that is exact or within
/// ρ·value of it: value·(1 − ρ) and value·(1 + ρ), each moved one rounding
/// step outward (a product rounds by at most 2^-53 relative, so the scales
/// below keep fl(value·scale) on the safe side of value·(1 ∓ ρ) for every
/// normal value; a subnormal value is an exact lane, which any scale
/// below/above 1 brackets). ρ = 0 brackets by the value itself.
constexpr double SideLowerScale(double rho) {
  return rho == 0.0 ? 1.0 : (1.0 - rho) - 0x1p-52;
}
constexpr double SideUpperScale(double rho) {
  return rho == 0.0 ? 1.0 : (1.0 + rho) + 0x1p-51;
}
inline double SideLowerBound(double value, double rho) {
  return value * SideLowerScale(rho);
}
inline double SideUpperBound(double value, double rho) {
  return value * SideUpperScale(rho);
}

/// One side of a split scan — the currency of the side kernel
/// (`StatsSumEstimator::DeltaFromPrefixSide`). Lane i is the slice between
/// prefix row i of the columns and the fixed `anchor` row:
///   kLeft:  stats_i = column[i] − anchor   (slice [anchor, cut_i))
///   kRight: stats_i = anchor − column[i]   (slice [cut_i, anchor))
/// one IEEE subtraction per field, the same one SortedEntityIndex::SliceRows
/// runs, so lane i's stats are exactly the slice's.
///
/// ALL columns are doubles — including the count fields — so the kernels
/// are single-type, branch-free, auto-vectorizable loops over contiguous
/// columns. All pointers must address at least `size` elements; the view
/// does not own them (the dynamic partitioner points them straight into the
/// index's prefix columns, whose row j is candidate cut j).
///
/// `index_n` certifies the lanes' counts. A view whose columns and anchor
/// are prefix rows of one SortedEntityIndex, each lane's row on its side of
/// the anchor (as the dynamic partitioner builds it), sets it to the
/// index's total n: every lane's counts are then an actual slice's (exact
/// integers with c ≤ n, f1 ≤ c, Σm(m−1) ≤ n², c ≥ 1 whenever n ≥ 1) and
/// n ≤ index_n. A kernel may skip per-lane checks that this fact settles,
/// but must write the same lanes. Any other view leaves it unset (+inf).
struct PrefixSideView {
  enum class Side { kLeft, kRight };

  size_t size = 0;
  const double* n = nullptr;
  const double* c = nullptr;
  const double* f1 = nullptr;
  const double* sum_mm1 = nullptr;
  const double* value_sum = nullptr;
  const double* singleton_sum = nullptr;
  PrefixRow anchor;
  Side side = Side::kLeft;
  /// The total n of the index the lanes slice; +inf when unknown.
  double index_n = std::numeric_limits<double>::infinity();
  /// When set, the kernel also lists the split scan's candidate cuts
  /// among this side's lanes (CutFold).
  CutFold* fold = nullptr;
};

/// One lane field of a side: the subtraction PrefixSideView defines.
template <PrefixSideView::Side kSide>
inline double SideField(double column, double anchor) {
  return kSide == PrefixSideView::Side::kLeft ? column - anchor
                                              : anchor - column;
}

/// The builds of every side kernel. On x86-64 GCC a kernel is compiled for
/// the baseline target, AVX2 and AVX-512F: the exact chains are
/// division-bound, and 4- and 8-wide vdivpd multiply their throughput
/// (interleaved 20 s perfbench runs on a 4-vCPU AVX-512 Xeon: targeted_50k
/// served 80.2 queries/s with the wide builds against 68.5 with the
/// baseline alone, 8 of 8 pairs). Elsewhere only the baseline exists. Every
/// exact build runs the same IEEE operations per lane — naive.cc and
/// frequency.cc compile with -ffp-contract=off, so no build contracts
/// a*b+c into a fused op the baseline lacks — so exact lanes never depend
/// on the build that runs. The AVX-512F naive build is the one approximate
/// build (DeltaFromPrefixSide's ρ); the split scan's choice does not depend
/// on it either (CutFold).
enum class KernelIsa { kBaseline, kAvx2, kAvx512f };

/// The builds this binary has and this CPU runs, baseline first. The last
/// one serves DeltaFromPrefixSide; the tests run every one.
const std::vector<KernelIsa>& RunnableKernelIsas();

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define UUQ_KERNEL_BUILDS_X86 1
#endif

namespace side_kernel {

/// Lanes per block of a side kernel's loop: a multiple of every build's
/// vector width and of the fold's groups, small enough that a block's lanes
/// are still in L1 when the fold reads them.
constexpr size_t kBlock = 256;

/// The certified fold's state (CutFold) in a build whose vectors hold
/// `kWidth` doubles and whose lanes meet `rho`: two chains of one vector
/// each, stepped a group of 2·kWidth lanes at a time, keep each chain
/// lane's smallest lower total. Finish takes the upper total of the lane
/// holding the smallest lower total as U (any lane's upper total is ≥ the
/// smallest exact total, and this one is within a bracket of the best),
/// then lists the candidates: it rescans, group by group in lane order,
/// only the chain lanes whose smallest lower total qualifies, then the
/// tail shorter than a group, so the list comes out ascending. GCC's
/// vectorizer takes no minimum recurrence under IEEE semantics, so the
/// chains are written with vector extensions.
template <PrefixSideView::Side kSide, int kWidth>
class CutBoundChains {
 public:
  UUQ_ALWAYS_INLINE CutBoundChains(const CutFold* fold, double rho)
      : lower_scale_(SideLowerScale(rho)), upper_scale_(SideUpperScale(rho)) {
    if (fold != nullptr) {
      other_ = fold->other;
      rest_ = fold->delta_rest;
    }
    for (int c = 0; c < kChains; ++c) {
      lower_[c] = Lanes{} + std::numeric_limits<double>::infinity();
    }
  }

  /// Folds lanes [begin, end) of `lanes` (the kernel's output). Whole
  /// groups go to the chains; only the last call may end in a tail, which
  /// Finish reads.
  UUQ_ALWAYS_INLINE void Fold(const double* UUQ_RESTRICT lanes, size_t begin,
                              size_t end) {
    const double* UUQ_RESTRICT other = other_;
    size_t i = begin;
    for (; i + kGroup <= end; i += kGroup) {
      for (int c = 0; c < kChains; ++c) {
        Lanes lane;
        Lanes other_lane;
        std::memcpy(&lane, lanes + i + c * kWidth, sizeof(Lanes));
        std::memcpy(&other_lane, other + i + c * kWidth, sizeof(Lanes));
        const Lanes lane_lower = lane * lower_scale_;
        const Lanes other_lower = other_lane * lower_scale_;
        const Lanes lower = kSide == PrefixSideView::Side::kLeft
                                ? (rest_ + lane_lower) + other_lower
                                : (rest_ + other_lower) + lane_lower;
        lower_[c] = lower < lower_[c] ? lower : lower_[c];
      }
    }
    groups_end_ = i;
  }

  /// Writes the candidates of a side of `size` lanes into `fold`.
  UUQ_ALWAYS_INLINE void Finish(const double* UUQ_RESTRICT lanes, size_t size,
                                CutFold* fold) const {
    double chain_lower[kGroup];
    std::memcpy(chain_lower, lower_, sizeof(chain_lower));
    // The lane holding the smallest lower total: first its chain lane or
    // tail lane, then, for a chain lane, its first group reaching it.
    double smallest = std::numeric_limits<double>::infinity();
    size_t at = size;
    int residue = -1;
    for (int r = 0; r < kGroup; ++r) {
      if (chain_lower[r] < smallest) {
        smallest = chain_lower[r];
        residue = r;
      }
    }
    for (size_t i = groups_end_; i < size; ++i) {
      const double lower = LowerTotal(lanes, i);
      if (lower < smallest) {
        smallest = lower;
        at = i;
        residue = -1;
      }
    }
    for (size_t g = 0; residue >= 0 && g < groups_end_; g += kGroup) {
      if (LowerTotal(lanes, g + residue) == smallest) {
        at = g + static_cast<size_t>(residue);
        break;
      }
    }
    std::vector<size_t>* candidates = fold->candidates;
    candidates->clear();
    // Every lower total +inf or NaN: no exact total goes below anything.
    if (!(smallest < std::numeric_limits<double>::infinity())) return;
    double upper = at < size ? UpperTotal(lanes, at)
                             : std::numeric_limits<double>::infinity();
    if (upper != upper) upper = std::numeric_limits<double>::infinity();
    const double delta_min = fold->delta_min;
    const auto qualifies = [upper, delta_min](double lower) {
      return lower <= upper && lower < delta_min;
    };
    // Lane g + r of every whole group g sits in chain lane r.
    int residues[kGroup];
    int num_residues = 0;
    for (int r = 0; r < kGroup; ++r) {
      if (qualifies(chain_lower[r])) residues[num_residues++] = r;
    }
    for (size_t g = 0; num_residues > 0 && g < groups_end_; g += kGroup) {
      for (int k = 0; k < num_residues; ++k) {
        const size_t i = g + static_cast<size_t>(residues[k]);
        if (qualifies(LowerTotal(lanes, i))) candidates->push_back(i);
      }
    }
    for (size_t i = groups_end_; i < size; ++i) {
      if (qualifies(LowerTotal(lanes, i))) candidates->push_back(i);
    }
  }

 private:
  typedef double Lanes __attribute__((vector_size(8 * kWidth)));
  static_assert(sizeof(Lanes) == 8 * kWidth,
                "a chain is one vector of kWidth lanes");
  static constexpr int kChains = 2;
  static constexpr int kGroup = kChains * kWidth;

  /// The candidate total in CutFold's order, from one side's value `lane`
  /// and the other side's value `other` (the chains spell it per vector).
  UUQ_ALWAYS_INLINE double Total(double lane, double other) const {
    return kSide == PrefixSideView::Side::kLeft ? (rest_ + lane) + other
                                                : (rest_ + other) + lane;
  }
  UUQ_ALWAYS_INLINE double LowerTotal(const double* lanes, size_t i) const {
    return Total(lanes[i] * lower_scale_, other_[i] * lower_scale_);
  }
  UUQ_ALWAYS_INLINE double UpperTotal(const double* lanes, size_t i) const {
    return Total(lanes[i] * upper_scale_, other_[i] * upper_scale_);
  }

  const double lower_scale_;
  const double upper_scale_;
  const double* other_ = nullptr;
  double rest_ = 0.0;
  Lanes lower_[kChains];  // each chain lane's smallest lower total
  size_t groups_end_ = 0;  // first lane of the tail
};

/// The side kernels' exact loop: lane i of every block runs `kLane`, the
/// estimator's branch-free chain over lane i's fields (n, c, f1, sum_mm1
/// and the estimator's value column `x`), and when the view carries a fold
/// the block's lanes fold into `kWidth`-wide chains while still in L1.
/// Always inlined into each build's entry point (RunSideKernel), so every
/// build compiles the loop for its own vector width. Its lanes are exact:
/// the fold brackets them with ρ = 0.
template <PrefixSideView::Side kSide,
          double (*kLane)(double, double, double, double, double),
          int kWidth>
UUQ_ALWAYS_INLINE inline void SideLaneLoop(
    size_t size, const double* UUQ_RESTRICT n_col,
    const double* UUQ_RESTRICT c_col, const double* UUQ_RESTRICT f1_col,
    const double* UUQ_RESTRICT mm1_col, const double* UUQ_RESTRICT x_col,
    PrefixRow a, double a_x, double* UUQ_RESTRICT out, CutFold* fold) {
  CutBoundChains<kSide, kWidth> chains(fold, /*rho=*/0.0);
  // An empty fold range when there is no fold: one loop, no unswitched copy
  // of the lane loop.
  const size_t fold_end = fold != nullptr ? size : 0;
  for (size_t begin = 0; begin < size; begin += kBlock) {
    const size_t end = std::min(size, begin + kBlock);
    for (size_t i = begin; i < end; ++i) {
      out[i] = kLane(SideField<kSide>(n_col[i], a.n),
                     SideField<kSide>(c_col[i], a.c),
                     SideField<kSide>(f1_col[i], a.f1),
                     SideField<kSide>(mm1_col[i], a.sum_mm1),
                     SideField<kSide>(x_col[i], a_x));
    }
    chains.Fold(out, begin, std::min(end, fold_end));
  }
  if (fold != nullptr) chains.Finish(out, size, fold);
}

// One entry point per build, each with its vector width in doubles.
// `Kernel` is a type whose static, always-inlined Run<kWidth>(const
// PrefixSideView&, double*) is the kernel's body.
template <typename Kernel>
__attribute__((noinline)) void Baseline(const PrefixSideView& side,
                                        double* out) {
  Kernel::template Run<2>(side, out);
}
#if defined(UUQ_KERNEL_BUILDS_X86)
template <typename Kernel>
__attribute__((target("avx2"))) void Avx2(const PrefixSideView& side,
                                          double* out) {
  Kernel::template Run<4>(side, out);
}
template <typename Kernel>
__attribute__((target("avx512f"))) void Avx512f(const PrefixSideView& side,
                                                double* out) {
  Kernel::template Run<8>(side, out);
}
#endif

}  // namespace side_kernel

/// Runs side kernel `Kernel` (see side_kernel::Baseline) as built for `isa`,
/// which must be one of RunnableKernelIsas().
template <typename Kernel>
void RunSideKernel(KernelIsa isa, const PrefixSideView& side, double* out) {
  switch (isa) {
#if defined(UUQ_KERNEL_BUILDS_X86)
    case KernelIsa::kAvx512f:
      return side_kernel::Avx512f<Kernel>(side, out);
    case KernelIsa::kAvx2:
      return side_kernel::Avx2<Kernel>(side, out);
#endif
    default:
      return side_kernel::Baseline<Kernel>(side, out);
  }
}

/// The split scan's |Δ| normalization: fabs for finite deltas, +infinity for
/// non-finite ones (singleton-only slices must never look attractive to the
/// split search). The side kernels' contract is stated through it.
inline double NormalizedAbsDelta(double delta) {
  if (!std::isfinite(delta)) {
    return std::numeric_limits<double>::infinity();
  }
  return std::fabs(delta);
}

/// What an estimator returns. delta is the paper's Δ̂; the corrected answer
/// is φK + Δ̂ (Eq. 2).
struct Estimate {
  std::string estimator;       ///< producing estimator's name
  double delta = 0.0;          ///< Δ̂(S)
  double corrected_sum = 0.0;  ///< φK + Δ̂
  double n_hat = 0.0;          ///< N̂ (estimated ground-truth distinct count)
  double missing_count = 0.0;  ///< N̂ − c
  double missing_value = 0.0;  ///< per-missing-item value estimate
  bool finite = true;          ///< false when the formula degenerated (n = f1)
  bool coverage_ok = true;     ///< Ĉ ≥ kCoverageRecommendationThreshold (§6.5)
  int num_buckets = 1;         ///< buckets used (1 for non-bucket estimators)
};

/// Estimators of the unknown-unknowns impact Δ on a SUM query.
class SumEstimator {
 public:
  virtual ~SumEstimator() = default;
  virtual std::string name() const = 0;
  virtual Estimate EstimateImpact(const IntegratedSample& sample) const = 0;

  /// Columnar replicate evaluation — the bootstrap/jackknife hot path. An
  /// estimator that returns true from SupportsReplicates() must make
  /// EstimateReplicate(rep) produce the same Estimate that EstimateImpact
  /// would produce on the materialized IntegratedSample of the same draws
  /// (bit-identical for every fusion policy, kMajority included; see
  /// sample_view.h). The bootstrap and jackknife require it: there is no
  /// materializing fallback.
  virtual bool SupportsReplicates() const { return false; }
  /// Aborts unless SupportsReplicates() — callers must check first.
  virtual Estimate EstimateReplicate(const ReplicateSample& rep) const;
};

/// Estimators whose math needs only SampleStats (naive, frequency). The
/// bucket estimator runs these on value-range slices.
class StatsSumEstimator : public SumEstimator {
 public:
  /// The estimator's definition: its Δ̂ and the rest of the Estimate. The
  /// bucket estimator evaluates it once per bucket and reads the partition
  /// root's |Δ| as NormalizedAbsDelta(FromStats(root).delta).
  ///
  /// CONTRACT: a pure deterministic function of `stats` — the dynamic
  /// partitioner MEMOIZES the |Δ| values it computed for a parent bucket's
  /// candidate slices and reuses them verbatim in the child scans
  /// (bucket.h), so a stateful or input-order-sensitive implementation
  /// would silently break the memoized-vs-fresh bit-identity guarantee.
  virtual Estimate FromStats(const SampleStats& stats) const = 0;

  /// |Δ| of one side of a split scan — the scan's hot kernel. One call
  /// evaluates every candidate's left or right slice in a single pass over
  /// contiguous prefix columns: each lane subtracts the anchor row and runs
  /// the Δ chain (auto-vectorizable; no gather, no virtual dispatch per
  /// lane).
  ///
  /// CONTRACT: let exact_i be the NORMALIZED |Δ| of lane i's stats
  /// (PrefixSideView): NormalizedAbsDelta(FromStats(stats_i).delta), with
  /// 0.0 for empty stats (n == 0). Every out[i] is either exact_i, bit for
  /// bit, or a finite value within ρ·out[i] of it, |out[i] − exact_i| ≤
  /// ρ·out[i], where ρ is kApproxSideRho for the approximate AVX-512F naive
  /// kernel and 0 for every other build and kernel. A truthful
  /// side.index_n never changes a lane: the certified view's lanes are the
  /// unset view's, bit for bit (the naive AVX-512F build runs fewer checks
  /// per lane at index_n ≤ 2^21; core/naive.cc derives why that is safe).
  /// The lanes are as pure as FromStats, so a memoized lane is the lane a
  /// fresh call writes. When side.fold is set, it must also list there the
  /// candidate cuts CutFold defines, bracketing both sides with the same ρ.
  /// The naive and frequency kernels run side_kernel::SideLaneLoop (the
  /// naive AVX-512F build its own approximate loop), in the widest of
  /// RunnableKernelIsas().
  virtual void DeltaFromPrefixSide(const PrefixSideView& side,
                                   double* out) const = 0;

  // Sample and replicate entry points: FromStats of the folded stats.
  Estimate EstimateImpact(const IntegratedSample& sample) const final {
    return FromStats(SampleStats::FromSample(sample));
  }
  bool SupportsReplicates() const final { return true; }
  Estimate EstimateReplicate(const ReplicateSample& rep) const final {
    return FromStats(SampleStats::FromReplicate(rep));
  }
};

}  // namespace uuq

#endif  // UUQ_CORE_ESTIMATE_H_
