#include "integration/sample_view.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/macros.h"

namespace uuq {

namespace {

/// Lexicographic order of the identities "bs0".."bs<count-1>" — the order a
/// std::map keyed by those strings iterates in. Shared prefix "bs" drops
/// out, so this is the lexicographic order of the decimal draw positions.
std::vector<int32_t> BsLexOrder(size_t count) {
  std::vector<int32_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = static_cast<int32_t>(i);
  std::sort(order.begin(), order.end(), [](int32_t a, int32_t b) {
    return std::to_string(a) < std::to_string(b);
  });
  return order;
}

}  // namespace

/// The first-touch half of both replicate folds: per-entity tallies (the
/// observation count is all-zero at rest), the touched entities in
/// first-touch order, and the rank-order emit.
class FirstTouchFold {
 protected:
  FirstTouchFold(ReplicateScratch* scratch, int64_t num_entities)
      : num_entities_(static_cast<size_t>(num_entities)) {
    if (scratch->tally_.size() < num_entities_) {
      scratch->tally_.resize(num_entities_);
    }
    // The spare slot: Touch writes before it decides whether to advance.
    if (scratch->touched_.size() < num_entities_ + 1) {
      scratch->touched_.resize(num_entities_ + 1);
    }
    tally_ = scratch->tally_.data();
    touched_ = scratch->touched_.data();
  }

  /// Counts one observation of entity `e` and returns whether it was the
  /// entity's first. The append has no data-dependent branch: every
  /// observation writes `e` at the cursor, and the cursor moves past it
  /// only on a first touch. Once every entity is touched the cursor sits at
  /// `entities`, which every later observation writes — the spare slot.
  bool Touch(int32_t e) {
    const bool first = tally_[e].multiplicity++ == 0;
    touched_[touched_count_] = e;
    touched_count_ += static_cast<size_t>(first);
    return first;
  }

  /// Fills out->entities with the touched tallies in rank order and
  /// restores the resting state. Every rank writes its tally at the
  /// cursor, which advances only past a touched one, so the vector carries
  /// a spare slot for the writes after the last touched rank.
  void EmitRankOrder(ReplicateSample* out) {
    // Resizing from the previous replicate's size initializes only growth.
    out->entities.resize(touched_count_ + 1);
    EntityPoint* UUQ_RESTRICT dst = out->entities.data();
    size_t k = 0;
    for (size_t r = 0; r < num_entities_; ++r) {
      dst[k] = tally_[r];
      k += static_cast<size_t>(tally_[r].multiplicity != 0);
      tally_[r].multiplicity = 0;  // restore the resting invariant
    }
    UUQ_DCHECK(k == touched_count_);
    out->entities.resize(k);
  }

  const size_t num_entities_;
  EntityPoint* UUQ_RESTRICT tally_ = nullptr;
  int32_t* UUQ_RESTRICT touched_ = nullptr;
  size_t touched_count_ = 0;
};

/// The per-replicate fusion fold shared by BuildReplicate (source-grouped
/// replay) and BuildLeaveOneOut (arrival-order replay) for the streaming
/// policies: dense per-entity accumulators with first-touch tracking.
/// Observe() is IntegratedSample::Add's FuseStep (integration/fusion.h);
/// Emit() applies FuseFinish and folds the stats in first-touch order, then
/// emits the entities in rank order. The policy is a template parameter, so
/// the replay loop carries no policy test (WithStreamingFold picks the
/// instantiation once per build).
template <FusionPolicy kPolicy>
class ReplicateFold : public FirstTouchFold {
 public:
  ReplicateFold(ReplicateScratch* scratch, int64_t num_entities)
      : FirstTouchFold(scratch, num_entities) {}

  void Observe(int32_t e, double v) {
    // No jump on the first touch: FuseStep picks with a BitSelect (the
    // stale accumulator of an untouched entity is read but never kept).
    const bool first = Touch(e);
    tally_[e].value = FuseStep(kPolicy, first, tally_[e].value, v);
  }

  void Emit(ReplicateSample* out) {
    out->policy = kPolicy;
    SampleStats stats;
    for (size_t i = 0; i < touched_count_; ++i) {
      EntityPoint& tally = tally_[touched_[i]];
      tally.value = FuseFinish(kPolicy, tally.value, tally.multiplicity);
      stats.Add(tally);
    }
    out->stats = stats;
    EmitRankOrder(out);
  }
};

/// Runs `replay(&fold)` then `fold.Emit(out)` with the ReplicateFold of
/// streaming policy `policy`.
template <typename Replay>
void WithStreamingFold(FusionPolicy policy, ReplicateScratch* scratch,
                       int64_t num_entities, Replay replay,
                       ReplicateSample* out) {
  const auto run = [&](auto fold) {
    replay(&fold);
    fold.Emit(out);
  };
  switch (policy) {
    case FusionPolicy::kAverage:
      return run(
          ReplicateFold<FusionPolicy::kAverage>(scratch, num_entities));
    case FusionPolicy::kLast:
      return run(ReplicateFold<FusionPolicy::kLast>(scratch, num_entities));
    default:  // kFirst (kMajority has its own fold)
      return run(ReplicateFold<FusionPolicy::kFirst>(scratch, num_entities));
  }
}

/// The kMajority counting-sort fold: per-slot report histogram updated per
/// observation, per-entity winner resolved at Emit by a MajorityVote over
/// the entity's slot range. A slot's first touch in replay order is its
/// value's first occurrence in the replicate, so the touch sequence orders
/// the slots for the tie rule.
class MajorityFold : public FirstTouchFold {
 public:
  MajorityFold(ReplicateScratch* scratch, int64_t num_entities,
               int64_t num_slots, const double* slot_value,
               const int64_t* ent_slot_begin)
      : FirstTouchFold(scratch, num_entities),
        slot_value_(slot_value),
        ent_slot_begin_(ent_slot_begin) {
    if (scratch->slot_count_.size() < static_cast<size_t>(num_slots)) {
      scratch->slot_count_.resize(static_cast<size_t>(num_slots), 0);
      scratch->slot_seq_.resize(static_cast<size_t>(num_slots), 0);
    }
    slot_count_ = scratch->slot_count_.data();
    slot_seq_ = scratch->slot_seq_.data();
  }

  void Observe(int32_t e, int32_t slot) {
    Touch(e);
    if (slot_count_[slot]++ == 0) slot_seq_[slot] = seq_++;
  }

  void Emit(ReplicateSample* out) {
    out->policy = FusionPolicy::kMajority;
    SampleStats stats;
    for (size_t i = 0; i < touched_count_; ++i) {
      const int32_t e = touched_[i];
      MajorityVote vote;
      for (int64_t s = ent_slot_begin_[e]; s < ent_slot_begin_[e + 1]; ++s) {
        if (slot_count_[s] == 0) continue;
        vote.Offer(s, slot_count_[s], slot_seq_[s], slot_value_[s]);
        slot_count_[s] = 0;  // restore the resting invariant
      }
      tally_[e].value = slot_value_[vote.winner()];
      stats.Add(tally_[e]);
    }
    out->stats = stats;
    EmitRankOrder(out);
  }

 private:
  const double* UUQ_RESTRICT slot_value_;
  const int64_t* UUQ_RESTRICT ent_slot_begin_;
  int32_t* UUQ_RESTRICT slot_count_ = nullptr;
  int32_t* UUQ_RESTRICT slot_seq_ = nullptr;
  int32_t seq_ = 0;
};

SampleView::SampleView(const IntegratedSample& sample)
    : policy_(sample.policy()),
      num_entities_(sample.c()) {
  // Draw-index space: sources sorted by id (the legacy resampler grouped
  // observations with a std::map, so draw index i meant the i-th id in
  // sorted order — preserved here for seed compatibility).
  source_ids_.reserve(sample.source_sizes().size());
  for (const auto& [id, size] : sample.source_sizes()) {
    UUQ_UNUSED(size);
    source_ids_.push_back(id);
  }
  std::vector<int32_t> arrival_to_sorted(sample.source_names().size());
  for (size_t a = 0; a < sample.source_names().size(); ++a) {
    const auto it = std::lower_bound(source_ids_.begin(), source_ids_.end(),
                                     sample.source_names()[a]);
    UUQ_DCHECK(it != source_ids_.end() && *it == sample.source_names()[a]);
    arrival_to_sorted[a] =
        static_cast<int32_t>(std::distance(source_ids_.begin(), it));
  }

  // Entity ranks — the view's entity numbering: ascending fused value,
  // entity index as the deterministic tie-break. NaN compares false against
  // everything, so NaN-valued entities are partitioned behind the numbers
  // first (in index order) and the comparator only sees numbers.
  const std::vector<EntityStat>& entities = sample.entities();
  const auto is_number = [&entities](int32_t e) {
    return !std::isnan(entities[static_cast<size_t>(e)].value);
  };
  std::vector<int32_t> order(static_cast<size_t>(num_entities_));
  for (int64_t e = 0; e < num_entities_; ++e) {
    order[static_cast<size_t>(e)] = static_cast<int32_t>(e);
  }
  const auto nan_begin = std::partition(order.begin(), order.end(), is_number);
  std::sort(nan_begin, order.end());
  std::sort(order.begin(), nan_begin, [&entities](int32_t a, int32_t b) {
    const double va = entities[static_cast<size_t>(a)].value;
    const double vb = entities[static_cast<size_t>(b)].value;
    return va < vb || (va == vb && a < b);
  });
  entity_rank_.resize(order.size());
  for (size_t r = 0; r < order.size(); ++r) {
    entity_rank_[static_cast<size_t>(order[r])] = static_cast<int32_t>(r);
  }

  const std::vector<RawObservation>& log = sample.raw_log();
  const size_t n = log.size();
  obs_entity_.reserve(n);
  obs_source_.reserve(n);
  obs_value_.reserve(n);
  for (const RawObservation& obs : log) {
    obs_entity_.push_back(
        entity_rank_[static_cast<size_t>(obs.entity_index)]);
    obs_source_.push_back(
        arrival_to_sorted[static_cast<size_t>(obs.source_index)]);
    obs_value_.push_back(obs.value);
  }

  if (policy_ == FusionPolicy::kMajority) BuildMajoritySlots(sample, order);

  // Counting sort into source-grouped columns; arrival order is preserved
  // within each source, so a replayed source is byte-identical to its slice
  // of the original stream.
  const size_t l = source_ids_.size();
  src_begin_.assign(l + 1, 0);
  for (int32_t s : obs_source_) ++src_begin_[static_cast<size_t>(s) + 1];
  for (size_t s = 0; s < l; ++s) src_begin_[s + 1] += src_begin_[s];
  src_entity_.resize(n);
  src_value_.resize(n);
  if (!obs_slot_.empty()) src_slot_.resize(n);
  std::vector<int64_t> cursor(src_begin_.begin(), src_begin_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const size_t slot =
        static_cast<size_t>(cursor[static_cast<size_t>(obs_source_[i])]++);
    src_entity_[slot] = obs_entity_[i];
    src_value_[slot] = obs_value_[i];
    if (!obs_slot_.empty()) src_slot_[slot] = obs_slot_[i];
  }

  bs_lex_order_ = BsLexOrder(l);
}

void SampleView::BuildMajoritySlots(const IntegratedSample& sample,
                                    const std::vector<int32_t>& order) {
  // The slot values are the sample's report slots, laid out by rank.
  ent_slot_begin_.assign(1, 0);
  for (int32_t entity : order) {
    for (const ReportSlot& report :
         sample.report_slots()[static_cast<size_t>(entity)]) {
      slot_value_.push_back(report.value);
    }
    ent_slot_begin_.push_back(static_cast<int64_t>(slot_value_.size()));
  }

  // Map each observation to its slot. The slots are in first-arrival order,
  // so an arrival-order walk meets each slot's first report when it has
  // seen exactly the entity's earlier slots: a report matching none of
  // those (under ==, so every NaN) opens the next one. A linear probe is
  // fine at construction: entities see a handful of distinct reports.
  std::vector<int64_t> opened(static_cast<size_t>(num_entities_), 0);
  obs_slot_.resize(obs_value_.size());
  for (size_t i = 0; i < obs_value_.size(); ++i) {
    const size_t r = static_cast<size_t>(obs_entity_[i]);
    const double* values = slot_value_.data() + ent_slot_begin_[r];
    int64_t slot = 0;
    while (slot < opened[r] && !(values[slot] == obs_value_[i])) ++slot;
    if (slot == opened[r]) ++opened[r];
    obs_slot_[i] = static_cast<int32_t>(ent_slot_begin_[r] + slot);
  }
}

void SampleView::DrawBootstrapSources(Rng* rng,
                                      std::vector<int32_t>* draws) const {
  UUQ_CHECK(rng != nullptr && draws != nullptr);
  const size_t l = source_ids_.size();
  draws->clear();
  draws->reserve(l);
  for (size_t draw = 0; draw < l; ++draw) {
    draws->push_back(static_cast<int32_t>(rng->NextBounded(l)));
  }
}

void SampleView::EmitReplicateSourceSizes(const std::vector<int32_t>& draws,
                                          ReplicateSample* out) const {
  const std::vector<int32_t>* order = &bs_lex_order_;
  std::vector<int32_t> local_order;
  if (draws.size() != bs_lex_order_.size()) {
    local_order = BsLexOrder(draws.size());
    order = &local_order;
  }
  out->source_sizes.clear();
  out->source_sizes.reserve(draws.size());
  for (int32_t position : *order) {
    out->source_sizes.push_back(
        source_size(draws[static_cast<size_t>(position)]));
  }
}

template <typename Fold, typename T>
void SampleView::ReplayDrawnSources(const std::vector<int32_t>& draws,
                                    const T* payload, Fold* fold) const {
  for (int32_t s : draws) {
    UUQ_DCHECK(s >= 0 && s < static_cast<int32_t>(source_ids_.size()));
    const int64_t begin = src_begin_[static_cast<size_t>(s)];
    const int64_t end = src_begin_[static_cast<size_t>(s) + 1];
    for (int64_t j = begin; j < end; ++j) {
      fold->Observe(src_entity_[static_cast<size_t>(j)],
                    payload[static_cast<size_t>(j)]);
    }
  }
}

template <typename Fold, typename T>
void SampleView::ReplayArrivalExcluding(int32_t excluded, const T* payload,
                                        Fold* fold) const {
  const size_t n = obs_entity_.size();
  for (size_t i = 0; i < n; ++i) {
    if (obs_source_[i] == excluded) continue;
    fold->Observe(obs_entity_[i], payload[i]);
  }
}

void SampleView::BuildReplicate(const std::vector<int32_t>& draws,
                                ReplicateScratch* scratch,
                                ReplicateSample* out) const {
  UUQ_CHECK(scratch != nullptr && out != nullptr);

  // Replay the drawn sources in draw order — the exact observation sequence
  // the legacy resampler fed through IntegratedSample::Add — folding each
  // entity's reports with the fusion policy as we go.
  if (policy_ == FusionPolicy::kMajority) {
    MajorityFold fold(scratch, num_entities_,
                      static_cast<int64_t>(slot_value_.size()),
                      slot_value_.data(), ent_slot_begin_.data());
    ReplayDrawnSources(draws, src_slot_.data(), &fold);
    fold.Emit(out);
  } else {
    WithStreamingFold(
        policy_, scratch, num_entities_,
        [&](auto* fold) { ReplayDrawnSources(draws, src_value_.data(), fold); },
        out);
  }
  EmitReplicateSourceSizes(draws, out);
}

void SampleView::BuildLeaveOneOut(int32_t excluded, ReplicateScratch* scratch,
                                  ReplicateSample* out) const {
  UUQ_CHECK(scratch != nullptr && out != nullptr);
  UUQ_CHECK(excluded >= 0 &&
            excluded < static_cast<int32_t>(source_ids_.size()));

  // The legacy jackknife replays the GLOBAL arrival order minus one source;
  // use the arrival columns so the fold and first-touch order match it.
  if (policy_ == FusionPolicy::kMajority) {
    MajorityFold fold(scratch, num_entities_,
                      static_cast<int64_t>(slot_value_.size()),
                      slot_value_.data(), ent_slot_begin_.data());
    ReplayArrivalExcluding(excluded, obs_slot_.data(), &fold);
    fold.Emit(out);
  } else {
    WithStreamingFold(
        policy_, scratch, num_entities_,
        [&](auto* fold) {
          ReplayArrivalExcluding(excluded, obs_value_.data(), fold);
        },
        out);
  }
  out->source_sizes.clear();
  out->source_sizes.reserve(source_ids_.size() - 1);
  for (int32_t s = 0; s < static_cast<int32_t>(source_ids_.size()); ++s) {
    if (s != excluded) out->source_sizes.push_back(source_size(s));
  }
}

}  // namespace uuq
