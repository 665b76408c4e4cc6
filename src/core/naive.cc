#include "core/naive.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "core/chao92.h"
#include "stats/coverage.h"

#if defined(UUQ_KERNEL_BUILDS_X86)
#include <immintrin.h>
#endif

namespace uuq {

Estimate NaiveEstimator::FromStats(const SampleStats& stats) const {
  Estimate est;
  est.estimator = name();
  est.coverage_ok = stats.Coverage() >= kCoverageRecommendationThreshold;
  if (stats.empty()) {
    est.coverage_ok = false;
    return est;
  }
  const double n_hat = Chao92Nhat(stats);
  est.n_hat = n_hat;
  est.missing_count = n_hat - static_cast<double>(stats.c);
  est.missing_value = stats.ValueMean();
  est.delta = est.missing_value * est.missing_count;
  est.finite = std::isfinite(est.delta);
  est.corrected_sum = stats.value_sum + est.delta;
  return est;
}

namespace {

/// The naive lane chain: one branch-free evaluation of one slice's stats,
/// every conditional of FromStats rewritten as a value-equivalent blend (the
/// blends select among the SAME IEEE expression results, so each lane is
/// bit-identical to NormalizedAbsDelta(FromStats(stats).delta)). The
/// coverage/γ²/N̂ chain is Chao92NhatLane (stats/coverage.h — the one copy,
/// which Chao92Nhat also calls); this adds the naive-specific tail:
///
///  * n == 0 → 0.0 (the empty-stats convention), blended last;
///  * the final NormalizedAbsDelta via |δ| ≤ DBL_MAX (NaN compares false →
///    +inf, matching the isfinite branch).
///
/// Built per KernelIsa: the chain is division-bound and the 4-wide vdivpd
/// build roughly doubles its throughput; every exact build runs the
/// identical IEEE operations per lane, so its results never depend on the
/// dispatch (the file is compiled with -fno-trapping-math, which licenses
/// the if-conversion without changing any value). The AVX-512F build runs
/// the approximate lanes below and this chain only as their fallback.
inline double NaiveLane(double nd, double cd, double f1d, double mm1d,
                        double sum) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMaxFinite = std::numeric_limits<double>::max();
  const double n_hat = Chao92NhatLane(nd, cd, f1d, mm1d).n_hat;
  const double missing = n_hat - cd;
  const double mean = cd == 0.0 ? 0.0 : sum / cd;
  double abs_delta = std::fabs(mean * missing);
  abs_delta = abs_delta <= kMaxFinite ? abs_delta : kInf;
  return nd == 0.0 ? 0.0 : abs_delta;
}

// One kernel per side: any control flow in the loop body would defeat the
// vectorizer's if-conversion. Lane i reads row i of every column — a
// contiguous stream, no gather — and subtracts the anchor row first
// (PrefixSideView).
template <PrefixSideView::Side kSide>
struct NaiveSideKernel {
  template <int kWidth>
  UUQ_ALWAYS_INLINE static void Run(const PrefixSideView& side, double* out) {
    side_kernel::SideLaneLoop<kSide, NaiveLane, kWidth>(
        side.size, side.n, side.c, side.f1, side.sum_mm1, side.value_sum,
        side.anchor, side.anchor.value_sum, out, side.fold);
  }
};

#if defined(UUQ_KERNEL_BUILDS_X86)

// THE APPROXIMATE AVX-512F LANES. The exact chain above runs five vdivpd
// per vector. The split scan needs exact values only where its minimum is
// in doubt (CutFold), so the AVX-512F build computes each lane without a
// division and proves that the result is within ρ (kApproxSideRho) of the
// exact lane: lane by lane, or for the count part once per index (the
// index certificate below); a vector with one unproven lane is recomputed
// by the exact chain (ExactLanes).
//
// Cancellation-free form. With D = n − f1 = n·Ĉ, γ̂² = max(X − 1, 0) for
// X = c·Σm(m−1)/(D·(n − 1)), and N̂ − c = c·f1/D + (f1·n/D)·γ̂², the lane is
//   |Δ| = |φ|·f1·(c + n·γ̂²)/(c·D),
// products of nonnegative factors plus one subtraction, X − 1, whose error
// is charged below. One reciprocal r = 1/(c·D·(n − 1)) serves both
// quotients: X = c²·Σm(m−1)·r and 1/(c·D) = (n − 1)·r. It comes from
// vrcp14pd (relative error < 2^-14) and two Newton steps r += r·(1 − x·r),
// each a fused multiply-add pair: relative error ≤ 2^-52 = 2u (u = 2^-53,
// the unit roundoff).
//
// Which lanes are proven. Exact blends on integer tests: n == 0 → 0. In
// the domain c ≤ n < 2^52 (counts are integers, so D and n − 1 are exact),
// 1 ≤ c, f1 ≤ c and Σm(m−1) ≤ 2^104 (> n², so both chains' γ̂² stay
// finite; a negative one makes γ̂² 0 in both) — every consistent slice's:
// f1 ≥ n (Ĉ ≤ 0: the exact chain's f1/n rounds to ≥ 1 exactly then) →
// +inf; a non-finite value sum → +inf; f1 == 0 → 0 (the exact N̂ is c
// there, so N̂ − c is 0). Every other lane in the domain is proven when
// |φ| ≥ 2^-900 (no subnormal intermediate), |Δ| ≤ 2^1000 (no overflow
// within ρ) and it passes the bound below, which also fails for f1 ≤ 0.
// Then 1 ≤ f1 < n, so n ≥ 2 and the exact chain's n ≥ 2 test holds.
//
// The bound. Let F be the lane in real arithmetic, κ = n/D = 1/Ĉ,
// λ = n/f1 and ν = n/c (≥ n·X/(c + n·γ̂²), as c ≤ n). To first order in u:
//  * this form: X carries five roundings and the reciprocal (≤ 7u), which
//    moves c + n·γ̂² by at most 7u·ν relative; with the fused c + n·γ̂², the
//    products and (n − 1)·r: |A − F| ≤ (12 + 7ν)·u·F;
//  * the exact chain: Ĉ = 1 − f1/n carries κu, c/Ĉ (κ + 1)u, which N̂ − c
//    scales by λ; the rounding of N̂ itself, u·N̂ ≤ u·(λ + 1)·(N̂ − c) (the
//    ulp(N̂)·|mean| term that grows with n); the skew term n(1 − Ĉ)/Ĉ·γ̂²
//    carries (λ + κ + 4)u, and X − 1 adds (κ + 6)u·ν; N̂ − c, the mean and
//    the product one u each: |E − F| ≤ (λ(κ + 3) + κ + 9 + (κ + 6)ν)·u·F.
// Their sum is at most (κ + 21)(λ + 1 + ν)·u·F ≤ 3(κ + 21)·λ·u·F (1 ≤ ν ≤
// λ, as f1 ≤ c ≤ n). Doubled for the second-order terms, for F against A
// and for the bound's own rounding, it must not exceed ρ:
//   6u·(κ + 21)·n/f1 ≤ ρ,  checked times D as  (n + 21·D)·n ≤ f1·D·ρ/(6u).
// Over the splits of n into f1 + D with f1, D ≥ 1, the left side
// (κ + 21)·n/f1 = n²/(f1·D) + 21n/f1 is largest at f1 = 1, where it reads
// n²/(n − 1) + 21n = 22n + 1 + 1/(n − 1) ≤ 22n + 2. At ρ = 2^-24,
// ρ/(6u) = 2^29/6, so a slice of n ≤ (2^29/6 − 2)/22 ≈ 2^21.96 observations
// is proven whatever its f1; one of 2^40 observations with few singletons
// is not, and runs exact.
//
// The index certificate. Every lane of the split scan is the difference
// of two prefix rows of one SortedEntityIndex, and such a view carries
// the index's total n (PrefixSideView::index_n). Its lanes' counts are
// then exact integers with c ≤ n, f1 ≤ c and Σm(m−1) ≤ n², c ≥ 1 whenever
// n ≥ 1 (SampleStats::Add skips m ≤ 0), and n ≤ index_n: the domain holds
// in every lane. At index_n ≤ kCertifiedIndexN = 2^21 every lane with
// 1 ≤ f1 < n also meets the bound, with room for its own rounding
// (22·2^21 + 2 is 0.52 of 2^29/6), so the per-lane check would pass too;
// at 2^22 a lane with f1 = 1 would fail it (22·2^22 > 2^29/6). A certified
// lane skips the domain compares and the check and keeps the same blends
// and value checks, so it writes the uncertified lane's bits.
namespace approx {

/// The largest index (in observations) whose lanes are certified.
constexpr double kCertifiedIndexN = 0x1p21;

#define UUQ_AVX512F_INLINE __attribute__((target("avx512f"), always_inline))

// The all-lanes maskz forms of vrcp14pd and vmaxpd below compile to the
// unmasked instructions; the unmasked intrinsics pass GCC 12's
// _mm512_undefined_pd, which its -Wmaybe-uninitialized flags once inlined.
constexpr __mmask8 kAllLanes = 0xFF;

/// 1/x to within 2u relative: vrcp14pd and two Newton steps.
UUQ_AVX512F_INLINE inline __m512d Reciprocal(__m512d x) {
  const __m512d one = _mm512_set1_pd(1.0);
  __m512d r = _mm512_maskz_rcp14_pd(kAllLanes, x);
  for (int step = 0; step < 2; ++step) {
    r = _mm512_fmadd_pd(r, _mm512_fnmadd_pd(x, r, one), r);
  }
  return r;
}

UUQ_AVX512F_INLINE inline __m512d Set(double v) { return _mm512_set1_pd(v); }
UUQ_AVX512F_INLINE inline __mmask8 Ge(__m512d a, __m512d b) {
  return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
}
UUQ_AVX512F_INLINE inline __mmask8 Le(__m512d a, __m512d b) {
  return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ);
}
UUQ_AVX512F_INLINE inline __mmask8 Eq(__m512d a, __m512d b) {
  return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ);
}

/// Eight lanes of a side and the mask of the lanes proven within ρ.
struct Lanes {
  __m512d value;
  __mmask8 proven;
};

/// `kCertified` lanes slice an index of at most kCertifiedIndexN
/// observations (PrefixSideView::index_n): every one is in the domain and
/// meets the bound, so only the blends and the value checks run.
template <bool kCertified>
UUQ_AVX512F_INLINE inline Lanes NaiveLanes(__m512d n, __m512d c, __m512d f1,
                                           __m512d mm1, __m512d sum) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d inf = Set(std::numeric_limits<double>::infinity());
  const __m512d d = _mm512_sub_pd(n, f1);
  const __m512d n1 = _mm512_sub_pd(n, one);
  // r = 1/(c·D·(n − 1)): X = c²·Σm(m−1)·r and 1/(c·D) = (n − 1)·r.
  const __m512d r = Reciprocal(_mm512_mul_pd(_mm512_mul_pd(c, d), n1));
  const __m512d x = _mm512_mul_pd(_mm512_mul_pd(_mm512_mul_pd(c, c), mm1), r);
  // max(X − 1, 0) keeps 0 for a NaN, as the exact chain's blend does. The
  // chain's n ≥ 2 test holds in every approximated lane (1 ≤ f1 < n).
  const __m512d gamma2 =
      _mm512_maskz_max_pd(kAllLanes, _mm512_sub_pd(x, one), zero);
  const __m512d abs_sum = _mm512_abs_pd(sum);
  // |φ|·f1·(c + n·γ̂²)/(c·D).
  const __m512d approx = _mm512_mul_pd(
      _mm512_mul_pd(_mm512_mul_pd(abs_sum, f1),
                    _mm512_fmadd_pd(n, gamma2, c)),
      _mm512_mul_pd(n1, r));

  __mmask8 domain = kAllLanes;
  __mmask8 bounded = kAllLanes;
  if constexpr (!kCertified) {
    domain = _mm512_cmp_pd_mask(n, Set(0x1p52), _CMP_LT_OQ) & Le(c, n) &
             Ge(c, one) & Le(f1, c) & Le(mm1, Set(0x1p104));
    // (κ + 21)·n ≤ f1·ρ/(6u), times D.
    const __m512d lhs = _mm512_mul_pd(_mm512_fmadd_pd(d, Set(21.0), n), n);
    const __m512d rhs = _mm512_mul_pd(_mm512_mul_pd(f1, d),
                                      Set(kApproxSideRho / (6 * 0x1p-53)));
    bounded = Le(lhs, rhs);
  }
  const __mmask8 empty = Eq(n, zero);
  const __mmask8 all_singleton = domain & Ge(f1, n);
  const __mmask8 infinite_sum =
      domain & ~Le(abs_sum, Set(std::numeric_limits<double>::max()));
  const __mmask8 no_singleton = domain & Eq(f1, zero);
  const __mmask8 approximated = domain & bounded &
                                Le(approx, Set(0x1p1000)) &
                                Ge(abs_sum, Set(0x1p-900));

  // Lowest priority first: a later blend overrides an earlier one.
  __m512d value = _mm512_mask_mov_pd(approx, no_singleton, zero);
  value = _mm512_mask_mov_pd(value, infinite_sum | all_singleton, inf);
  value = _mm512_mask_mov_pd(value, empty, zero);
  return {value, static_cast<__mmask8>(empty | all_singleton | infinite_sum |
                                       no_singleton | approximated)};
}

/// The exact chain over lanes [begin, end): the fallback of a vector with
/// an unproven lane. Kept out of line so the approximate loop carries no
/// division.
template <PrefixSideView::Side kSide>
__attribute__((target("avx512f"), noinline)) void ExactLanes(
    const PrefixSideView& side, size_t begin, size_t end,
    double* UUQ_RESTRICT out) {
  const PrefixRow& a = side.anchor;
  for (size_t i = begin; i < end; ++i) {
    out[i] = NaiveLane(SideField<kSide>(side.n[i], a.n),
                       SideField<kSide>(side.c[i], a.c),
                       SideField<kSide>(side.f1[i], a.f1),
                       SideField<kSide>(side.sum_mm1[i], a.sum_mm1),
                       SideField<kSide>(side.value_sum[i], a.value_sum));
  }
}

/// Eight lanes of one field: the masked lanes of `column` at i minus the
/// anchor (PrefixSideView's subtraction).
template <PrefixSideView::Side kSide>
UUQ_AVX512F_INLINE inline __m512d Field(const double* column, size_t i,
                                        __mmask8 lanes, __m512d anchor) {
  const __m512d v = _mm512_maskz_loadu_pd(lanes, column + i);
  return kSide == PrefixSideView::Side::kLeft ? _mm512_sub_pd(v, anchor)
                                              : _mm512_sub_pd(anchor, v);
}

/// Lanes [begin, end) of one side in eight-lane vectors; the last vector
/// of the side loads and stores only its lanes.
template <PrefixSideView::Side kSide, bool kCertified>
UUQ_AVX512F_INLINE inline void ApproxBlock(const PrefixSideView& side,
                                           size_t begin, size_t end,
                                           double* UUQ_RESTRICT out) {
  // Locals: the stores through `out` cannot move them.
  const double* UUQ_RESTRICT n = side.n;
  const double* UUQ_RESTRICT c = side.c;
  const double* UUQ_RESTRICT f1 = side.f1;
  const double* UUQ_RESTRICT mm1 = side.sum_mm1;
  const double* UUQ_RESTRICT sum = side.value_sum;
  const PrefixRow& a = side.anchor;
  const __m512d a_n = _mm512_set1_pd(a.n);
  const __m512d a_c = _mm512_set1_pd(a.c);
  const __m512d a_f1 = _mm512_set1_pd(a.f1);
  const __m512d a_mm1 = _mm512_set1_pd(a.sum_mm1);
  const __m512d a_sum = _mm512_set1_pd(a.value_sum);
  for (size_t i = begin; i < end; i += 8) {
    const size_t count = std::min<size_t>(8, end - i);
    const __mmask8 lanes = static_cast<__mmask8>((1u << count) - 1);
    const Lanes v = NaiveLanes<kCertified>(
        Field<kSide>(n, i, lanes, a_n), Field<kSide>(c, i, lanes, a_c),
        Field<kSide>(f1, i, lanes, a_f1), Field<kSide>(mm1, i, lanes, a_mm1),
        Field<kSide>(sum, i, lanes, a_sum));
    if ((v.proven & lanes) == lanes) {
      _mm512_mask_storeu_pd(out + i, lanes, v.value);
    } else {
      ExactLanes<kSide>(side, i, i + count, out);
    }
  }
}

/// The approximate build's entry point: side_kernel::SideLaneLoop with the
/// approximate lanes and the fold bracketing them with ρ.
template <PrefixSideView::Side kSide, bool kCertified>
__attribute__((target("avx512f"), noinline)) void ApproxSide(
    const PrefixSideView& side, double* out) {
  side_kernel::CutBoundChains<kSide, 8> chains(side.fold, kApproxSideRho);
  const size_t size = side.size;
  const size_t fold_end = side.fold != nullptr ? size : 0;
  for (size_t begin = 0; begin < size; begin += side_kernel::kBlock) {
    const size_t end = std::min(size, begin + side_kernel::kBlock);
    ApproxBlock<kSide, kCertified>(side, begin, end, out);
    chains.Fold(out, begin, std::min(end, fold_end));
  }
  if (side.fold != nullptr) chains.Finish(out, size, side.fold);
}

#undef UUQ_AVX512F_INLINE

}  // namespace approx

#endif  // UUQ_KERNEL_BUILDS_X86

/// One side as built for `isa`: the exact builds, or the approximate one.
template <PrefixSideView::Side kSide>
double RunNaiveSide(KernelIsa isa, const PrefixSideView& side, double* out) {
  switch (isa) {
#if defined(UUQ_KERNEL_BUILDS_X86)
    case KernelIsa::kAvx512f:
      if (side.index_n <= approx::kCertifiedIndexN) {
        approx::ApproxSide<kSide, true>(side, out);
      } else {
        approx::ApproxSide<kSide, false>(side, out);
      }
      return kApproxSideRho;
    case KernelIsa::kAvx2:
      side_kernel::Avx2<NaiveSideKernel<kSide>>(side, out);
      return 0.0;
#endif
    default:
      side_kernel::Baseline<NaiveSideKernel<kSide>>(side, out);
      return 0.0;
  }
}

}  // namespace

double RunNaiveSideKernel(KernelIsa isa, const PrefixSideView& side,
                          double* out) {
  return side.side == PrefixSideView::Side::kLeft
             ? RunNaiveSide<PrefixSideView::Side::kLeft>(isa, side, out)
             : RunNaiveSide<PrefixSideView::Side::kRight>(isa, side, out);
}

void NaiveEstimator::DeltaFromPrefixSide(const PrefixSideView& side,
                                         double* out) const {
  RunNaiveSideKernel(RunnableKernelIsas().back(), side, out);
}

}  // namespace uuq
