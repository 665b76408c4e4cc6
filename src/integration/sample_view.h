// Columnar resampling view over an IntegratedSample (the bootstrap engine's
// hot path).
//
// Source-level resampling (bootstrap-of-clusters, delete-one-source
// jackknife) used to rebuild a full IntegratedSample per replicate: a
// std::map of per-source Observation vectors, string keys re-hashed and
// fusion re-run for every observation of every replicate. SampleView
// flattens the sample ONCE into contiguous index/value columns:
//
//   arrival order:    obs_entity[i], obs_source[i], obs_value[i]
//   source-grouped:   src_entity[j], src_value[j] with per-source ranges
//                     src_begin[s]..src_begin[s+1] (sources sorted by id —
//                     the draw-index space of the legacy resampler)
//
// The view numbers its entities by RANK: entity_rank() orders the
// sample's entities by fused value, and every entity column (obs_entity,
// src_entity, the kMajority slot ranges) holds ranks, not the sample's
// entity indices. A replicate is then just a multiset of source indices.
// BuildReplicate replays the drawn ranges through per-entity accumulators
// (dense arrays indexed by rank — no maps, no strings, no hashing) and
// emits a ReplicateSample: fused value + multiplicity per touched entity,
// in rank order, plus the replicate's per-source sizes and the
// replicate's SampleStats.
//
// FUSION is integration/fusion.h's, the fold IntegratedSample::Add runs:
// kAverage/kFirst/kLast keep a dense accumulator per entity; kMajority
// maps every observation, at flatten time, to a REPORT SLOT (the sample's
// report_slots(), in first-arrival order), so a replicate keeps a per-slot
// histogram — built once, updated per draw — and each entity's winner is a
// MajorityVote over its slot range, ties going to the slot first touched
// in replay order. The tests pin every policy's columnar build against a
// materializing reference that rebuilds each replicate as an
// IntegratedSample (tests/materialized_oracle.h).
//
// FIRST-TOUCH LOG. Both folds record an entity's first touch without a
// data-dependent branch: every observation writes its entity at the log's
// cursor, and the cursor advances only on a first touch, so the log is
// presized to entities + 1 (the write after the last first touch needs a
// spare slot). The fusion step's first-touch choice and the stats fold's
// singleton term are BitSelects (common/bit_select.h), not jumps: about
// half of a 50k replay's observations are first touches and about 40% of
// its entities singletons, so a jump on either would mispredict often.
//
// RANK-ORDER EMIT. The emit walks the first-touch log once: it finalizes
// each touched entity's fused value in its tally and folds the replicate's
// SampleStats in first-touch order — the materialized sample's entity
// order, so the stats carry the bits SampleStats::FromSample gives the
// materialized replicate. One sequential, branch-free sweep over the ranks
// then writes every tally to the cursor of ReplicateSample::entities and
// advances past it only when the entity was touched (a spare slot takes
// the write after the last one), zeroing the counts as it goes. The
// entities come out in view-rank order: a bootstrap replicate perturbs
// multiplicities and nudges fused values, so they are already nearly
// sorted by replicate value, which the bucket estimator's index sort
// exploits (core/bucket.h).
//
// DETERMINISM CONTRACT. The columnar replicate is BIT-IDENTICAL to the
// sample the legacy map-based resampler would have materialized from the
// same draws: observations are replayed in the same order (draw order,
// intra-source arrival order; the jackknife replays global arrival order),
// so the fused values, the stats folded in first-touch entity order, and the
// id-ordered source sizes all match the materialized IntegratedSample
// exactly — for every fusion policy, kMajority included. The entity list
// is the materialized sample's entities ordered by view rank.
//
// THREADING. A SampleView is immutable after construction and safe to share
// across threads. Each thread owns its ReplicateScratch/ReplicateSample;
// scratch buffers are restored to their resting state (count columns all
// zero) before BuildReplicate returns, so reuse never changes results.
#ifndef UUQ_INTEGRATION_SAMPLE_VIEW_H_
#define UUQ_INTEGRATION_SAMPLE_VIEW_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "integration/sample.h"
#include "integration/sample_stats.h"

namespace uuq {

/// A resampling replicate in columnar form. Built by SampleView::Build*:
///  * `entities` lists the touched entities in view-rank order
///    (SampleView::entity_rank) — the materialized IntegratedSample's
///    entities(), reordered by rank;
///  * `source_sizes` matches the materialized sample's SourceSizeVector()
///    (id-sorted) element for element;
///  * `stats` is the materialized sample's SampleStats::FromSample, bit for
///    bit: the build folds it in first-touch order.
/// A hand-assembled replicate may list its entities in any order and leave
/// `stats` empty; SampleStats::FromReplicate then folds the entities.
struct ReplicateSample {
  FusionPolicy policy = FusionPolicy::kAverage;
  std::vector<EntityPoint> entities;
  std::vector<int64_t> source_sizes;
  std::optional<SampleStats> stats;
};

/// Reusable per-thread buffers for BuildReplicate / BuildLeaveOneOut.
/// Resting invariant: every tally's count and every `slot_count` are zero
/// (enforced by the builders), so one scratch can serve any number of
/// replicates of any SampleView, interleaved in any order.
class ReplicateScratch {
 public:
  ReplicateScratch() = default;

  /// Draw buffer for DrawBootstrapSources (kept here so the bootstrap inner
  /// loop is allocation-free after warm-up).
  std::vector<int32_t>& draws() { return draws_; }

 private:
  friend class SampleView;
  friend class FirstTouchFold;  // first-touch tracking of both folds below
  friend class MajorityFold;    // the counting-sort kMajority fold
  std::vector<int32_t> draws_;
  // Per entity rank: multiplicity counts its observations so far (all-zero
  // at rest) and value holds the policy accumulator (sum / first / last),
  // then the fused value — side by side, so an observation touches one
  // cache line.
  std::vector<EntityPoint> tally_;
  std::vector<int32_t> touched_; // ranks, first-touch order; entities + 1
  // kMajority report histogram (per report slot; see SampleView).
  std::vector<int32_t> slot_count_;  // all-zero at rest
  std::vector<int32_t> slot_seq_;    // first-touch sequence; valid iff count>0
};

class SampleView {
 public:
  /// Flattens `sample`. The view copies what it reads, so it does not keep
  /// `sample` alive or refer to it afterwards.
  explicit SampleView(const IntegratedSample& sample);

  int64_t num_sources() const {
    return static_cast<int64_t>(source_ids_.size());
  }
  int64_t num_entities() const { return num_entities_; }
  int64_t num_observations() const {
    return static_cast<int64_t>(obs_value_.size());
  }
  FusionPolicy policy() const { return policy_; }

  /// Source ids sorted ascending — the draw-index space. Index `s` here is
  /// what DrawBootstrapSources emits and BuildLeaveOneOut excludes.
  const std::vector<std::string>& source_ids() const { return source_ids_; }

  /// Observation count n_s of source `s` (id-sorted index).
  int64_t source_size(int32_t s) const {
    return src_begin_[static_cast<size_t>(s) + 1] -
           src_begin_[static_cast<size_t>(s)];
  }

  /// entity_rank()[e] is the sample's entity e's rank in ascending (fused
  /// value, index) order, NaN-valued entities after every number (by
  /// index): the view's number for that entity, and the order a
  /// replicate's entities come out in.
  const std::vector<int32_t>& entity_rank() const { return entity_rank_; }

  /// Draws num_sources() source indices with replacement into `draws`.
  /// Consumes the Rng exactly like the legacy map-based resampler (l calls
  /// to NextBounded(l)), so a given seed selects the same source multiset as
  /// every earlier release.
  void DrawBootstrapSources(Rng* rng, std::vector<int32_t>* draws) const;

  /// Builds the bootstrap replicate implied by `draws` (ReplicateSample has
  /// the contract). Allocation-free after scratch/out warm-up. Serves every
  /// fusion policy.
  void BuildReplicate(const std::vector<int32_t>& draws,
                      ReplicateScratch* scratch, ReplicateSample* out) const;

  /// Builds the delete-one-source jackknife replicate (arrival-order replay
  /// skipping source `excluded`). Serves every fusion policy.
  void BuildLeaveOneOut(int32_t excluded, ReplicateScratch* scratch,
                        ReplicateSample* out) const;

 private:
  /// Fills out->source_sizes with the replicate's n_j in the order the
  /// materialized sample's id-sorted source map would list them ("bs0",
  /// "bs1", "bs10", ... is LEXICOGRAPHIC in the draw position).
  void EmitReplicateSourceSizes(const std::vector<int32_t>& draws,
                                ReplicateSample* out) const;

  /// Shared replay loops: feed Observe(entity, payload[j]) for every
  /// observation of the drawn sources (draw order, intra-source arrival
  /// order) / of the arrival stream minus `excluded`. `payload` is the
  /// value column for the streaming folds and the slot column for the
  /// majority fold.
  template <typename Fold, typename T>
  void ReplayDrawnSources(const std::vector<int32_t>& draws, const T* payload,
                          Fold* fold) const;
  template <typename Fold, typename T>
  void ReplayArrivalExcluding(int32_t excluded, const T* payload,
                              Fold* fold) const;

  /// Builds the kMajority report-slot columns (see file comment) from the
  /// sample's report slots; `order` lists the entity indices by rank.
  void BuildMajoritySlots(const IntegratedSample& sample,
                          const std::vector<int32_t>& order);

  FusionPolicy policy_;
  int64_t num_entities_ = 0;

  // Arrival-order columns (jackknife replay). Entity columns hold ranks.
  std::vector<int32_t> obs_entity_;
  std::vector<int32_t> obs_source_;  // id-sorted source index
  std::vector<double> obs_value_;

  // Source-grouped columns (bootstrap replay): source s owns
  // [src_begin_[s], src_begin_[s+1]).
  std::vector<int32_t> src_entity_;
  std::vector<double> src_value_;
  std::vector<int64_t> src_begin_;

  // kMajority report slots (built only for that policy): entity rank e owns
  // slots [ent_slot_begin_[e], ent_slot_begin_[e+1]); slot_value_ is the
  // slot's report value (first-arrival bit pattern); obs_slot_/src_slot_
  // map each observation (arrival / source-grouped order) to its slot.
  std::vector<int64_t> ent_slot_begin_;
  std::vector<double> slot_value_;
  std::vector<int32_t> obs_slot_;
  std::vector<int32_t> src_slot_;

  std::vector<std::string> source_ids_;  // sorted ascending
  std::vector<int32_t> entity_rank_;  // per entity of the flattened sample
  // Lexicographic order of the draw positions' "bs<i>" identities, cached
  // for the common draws.size() == num_sources() case.
  std::vector<int32_t> bs_lex_order_;
};

}  // namespace uuq

#endif  // UUQ_INTEGRATION_SAMPLE_VIEW_H_
