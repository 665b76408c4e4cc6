// Chao92 species-richness estimation (paper §3.1.1, Eq. 7) and the plain
// Good-Turing variant (γ̂² = 0).
//
//   N̂_Chao92 = c/Ĉ + n(1−Ĉ)/Ĉ · γ̂²
//
// Degenerate cases follow the paper's treatment: an empty sample estimates 0;
// a sample of only singletons (Ĉ = 0) estimates +infinity ("the estimate
// goes to infinite ... due to division-by-zero", §3.3.1). Both entry points
// are an empty-sample guard plus one Chao92NhatLane call (stats/coverage.h,
// the one expression of the Ĉ → γ̂² → N̂ chain).
#ifndef UUQ_CORE_CHAO92_H_
#define UUQ_CORE_CHAO92_H_

#include "core/estimate.h"
#include "stats/fstats.h"

namespace uuq {

/// N̂ via Chao92 from scalar sufficient statistics.
double Chao92Nhat(const SampleStats& stats);

/// N̂ via Chao92 from full f-statistics (same value; convenience overload).
double Chao92Nhat(const FrequencyStatistics& fstats);

/// N̂ via the sample-coverage-only (Good-Turing) estimator c/Ĉ, i.e. Chao92
/// with γ̂² forced to 0 — converges for skewed publicities too, just slower
/// (§3.2).
double GoodTuringNhat(const SampleStats& stats);

/// Same from full f-statistics (convenience overload).
double GoodTuringNhat(const FrequencyStatistics& fstats);

}  // namespace uuq

#endif  // UUQ_CORE_CHAO92_H_
