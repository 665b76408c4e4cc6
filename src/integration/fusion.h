// Value fusion: how an entity's reports become its one fused value (the
// "cleaned and merged" step the paper's estimators start from, §2.1).
//
// This header is the only definition. IntegratedSample::Add fuses each
// report as it arrives, and the replicate folds (integration/sample_view.cc)
// fuse a replayed observation stream with the same steps, so a columnar
// replicate carries the bits of the sample it stands for:
//   kAverage, kFirst, kLast  one running accumulator per entity: FuseStep
//                            per report, FuseFinish for the fused value;
//   kMajority                the entity's distinct reports with their
//                            counts; MajorityVote picks the winner.
#ifndef UUQ_INTEGRATION_FUSION_H_
#define UUQ_INTEGRATION_FUSION_H_

#include <cstdint>

#include "common/bit_select.h"

namespace uuq {

/// How to reconcile disagreeing values reported for the same entity.
enum class FusionPolicy {
  kAverage,   ///< mean of all reports (the paper's data-cleaning rule)
  kFirst,     ///< first reported value wins
  kLast,      ///< latest reported value wins
  kMajority,  ///< most frequent report; ties broken by first occurrence
};

/// Folds report `v` into an entity's accumulator `acc` under kAverage,
/// kFirst or kLast; `first` marks the entity's first report, whose `acc` is
/// read but never kept (a stale or NaN accumulator is fine). kAverage sums
/// left to right from the first report, so a lone or all −0.0 entity stays
/// −0.0.
///
/// `first` is data-random in a replicate replay, so the first-touch choice
/// is a BitSelect (common/bit_select.h): kAverage computes `acc + v` every
/// time and keeps it only after the first report. The bits are the
/// ternary's, `first ? v : acc + v`.
inline double FuseStep(FusionPolicy policy, bool first, double acc,
                       double v) {
  switch (policy) {
    case FusionPolicy::kAverage:
      return BitSelect(first, v, acc + v);
    case FusionPolicy::kLast:
      return v;
    default:  // kFirst
      return BitSelect(first, v, acc);
  }
}

/// The fused value of an accumulator over `multiplicity` reports.
inline double FuseFinish(FusionPolicy policy, double acc,
                         int64_t multiplicity) {
  return policy == FusionPolicy::kAverage
             ? acc / static_cast<double>(multiplicity)
             : acc;
}

/// One distinct report of an entity under kMajority. Reports match with
/// ==, so ±0 share a slot (the first arrival's bits) and every NaN report
/// has its own.
struct ReportSlot {
  double value;
  int64_t count;
};

/// The kMajority winner over an entity's report slots: the highest count
/// wins, ties go to the earliest first occurrence, a NaN slot never wins,
/// and an all-NaN entity keeps its first report. Offer every slot that
/// holds reports, in any order, then read winner().
class MajorityVote {
 public:
  /// `first_seen` orders the slots by their first report. A NaN slot
  /// counts as holding no votes: it loses to any number, and among NaN
  /// slots alone the earliest wins.
  void Offer(int64_t slot, int64_t count, int64_t first_seen, double value) {
    const int64_t votes = value == value ? count : 0;
    if (winner_ < 0 || votes > votes_ ||
        (votes == votes_ && first_seen < first_seen_)) {
      winner_ = slot;
      votes_ = votes;
      first_seen_ = first_seen;
    }
  }

  int64_t winner() const { return winner_; }

 private:
  int64_t winner_ = -1;
  int64_t votes_ = 0;
  int64_t first_seen_ = 0;
};

}  // namespace uuq

#endif  // UUQ_INTEGRATION_FUSION_H_
