#include "integration/sample.h"

#include <algorithm>

#include "common/macros.h"
#include "integration/source.h"

namespace uuq {

namespace {

/// Counts report `v` into its entity's kMajority slots and returns the
/// entity's fused value.
double AddMajorityReport(std::vector<ReportSlot>* slots, double v) {
  auto it = std::find_if(slots->begin(), slots->end(),
                         [v](const ReportSlot& slot) { return slot.value == v; });
  if (it == slots->end()) it = slots->insert(it, {v, 0});
  ++it->count;
  MajorityVote vote;
  for (int64_t s = 0; s < static_cast<int64_t>(slots->size()); ++s) {
    const ReportSlot& slot = (*slots)[static_cast<size_t>(s)];
    vote.Offer(s, slot.count, s, slot.value);
  }
  return (*slots)[static_cast<size_t>(vote.winner())].value;
}

}  // namespace

void IntegratedSample::Add(const std::string& source_id,
                           const std::string& entity_key, double value,
                           const std::string& category) {
  const std::string key = NormalizeEntityKey(entity_key);
  UUQ_CHECK_MSG(!key.empty(), "empty entity key");
  ++source_sizes_[source_id];

  auto src_it = source_index_.find(source_id);
  int32_t source_idx;
  if (src_it == source_index_.end()) {
    source_idx = static_cast<int32_t>(source_names_.size());
    source_names_.push_back(source_id);
    source_index_.emplace(source_id, source_idx);
  } else {
    source_idx = src_it->second;
  }

  // A Filter() result leaves its key index to its first Add().
  for (size_t e = index_.size(); e < entities_.size(); ++e) {
    index_.emplace(entities_[e].key, e);
  }
  const auto [it, first] = index_.try_emplace(key, entities_.size());
  const size_t stat_index = it->second;
  log_.push_back({source_idx, static_cast<int32_t>(stat_index), value});
  if (first) entities_.push_back({key, value, 0, category});
  EntityStat& stat = entities_[stat_index];
  if (!category.empty() && stat.category.empty()) stat.category = category;
  ++stat.multiplicity;
  if (policy_ == FusionPolicy::kMajority) {
    if (first) report_slots_.emplace_back();
    stat.value = AddMajorityReport(&report_slots_[stat_index], value);
  } else {
    if (first) accumulators_.emplace_back();
    double& acc = accumulators_[stat_index];
    acc = FuseStep(policy_, first, acc, value);
    stat.value = FuseFinish(policy_, acc, stat.multiplicity);
  }
}

FrequencyStatistics IntegratedSample::Fstats() const {
  std::map<int64_t, int64_t> histogram;
  for (const EntityStat& entity : entities_) ++histogram[entity.multiplicity];
  return FrequencyStatistics::FromHistogram(histogram);
}

double IntegratedSample::ObservedSum() const {
  // The order and operations of SampleStats::FromSample's value_sum.
  double sum = 0.0;
  for (const EntityStat& entity : entities_) sum += entity.value;
  return sum;
}

std::vector<int64_t> IntegratedSample::SourceSizeVector() const {
  std::vector<int64_t> out;
  out.reserve(source_sizes_.size());
  for (const auto& [id, size] : source_sizes_) out.push_back(size);
  return out;
}

std::vector<std::string> IntegratedSample::Categories() const {
  std::vector<std::string> out;
  for (const EntityStat& entity : entities_) {
    if (!entity.category.empty()) out.push_back(entity.category);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

IntegratedSample IntegratedSample::Filter(
    const std::function<bool(const EntityStat&)>& keep) const {
  IntegratedSample out(policy_);
  // Judge every entity once, on its final state. Kept entities keep their
  // relative order: an entity's first observation is kept with it, so the
  // walk below meets them in the same first-observation order as here.
  constexpr int32_t kDropped = -1;
  std::vector<int32_t> entity_out(entities_.size(), kDropped);
  int32_t kept_entities = 0;
  int64_t kept_observations = 0;
  for (size_t e = 0; e < entities_.size(); ++e) {
    if (keep(entities_[e])) {
      entity_out[e] = kept_entities++;
      kept_observations += entities_[e].multiplicity;
    }
  }
  if (kept_entities == 0) return out;
  // A kept entity keeps all its observations, so every size is known: the
  // containers are allocated to fit instead of grown by doubling.
  const bool majority = policy_ == FusionPolicy::kMajority;
  out.entities_.reserve(static_cast<size_t>(kept_entities));
  out.accumulators_.reserve(majority ? 0 : static_cast<size_t>(kept_entities));
  out.report_slots_.reserve(majority ? static_cast<size_t>(kept_entities) : 0);
  out.log_.reserve(static_cast<size_t>(kept_observations));

  // Walk the log in arrival order in index space. A kept entity keeps its
  // reports in their order, so its fused and fusion state are the parent's:
  // both are copied at its first kept observation, and nothing is re-fused.
  std::vector<int32_t> source_out(source_names_.size(), kDropped);
  std::vector<int64_t> kept_per_source;
  for (const RawObservation& entry : log_) {
    const int32_t e = entity_out[static_cast<size_t>(entry.entity_index)];
    if (e == kDropped) continue;
    int32_t& s = source_out[static_cast<size_t>(entry.source_index)];
    if (s == kDropped) {
      s = static_cast<int32_t>(out.source_names_.size());
      out.source_names_.push_back(source_names_[entry.source_index]);
      kept_per_source.push_back(0);
    }
    ++kept_per_source[static_cast<size_t>(s)];
    out.log_.push_back({s, e, entry.value});
    if (static_cast<size_t>(e) == out.entities_.size()) {
      const size_t from = static_cast<size_t>(entry.entity_index);
      out.entities_.push_back(entities_[from]);
      if (majority) {
        out.report_slots_.push_back(report_slots_[from]);
      } else {
        out.accumulators_.push_back(accumulators_[from]);
      }
    }
  }

  // One insert per kept source. The key index is left to the first Add():
  // a filtered sample is usually only read.
  for (size_t s = 0; s < out.source_names_.size(); ++s) {
    out.source_index_.emplace(out.source_names_[s], static_cast<int32_t>(s));
    out.source_sizes_.emplace(out.source_names_[s], kept_per_source[s]);
  }
  return out;
}

int64_t IntegratedSample::ApproxBytes() const {
  int64_t bytes =
      static_cast<int64_t>(entities_.capacity() * sizeof(EntityStat));
  bytes += static_cast<int64_t>(accumulators_.capacity() * sizeof(double));
  bytes += static_cast<int64_t>(report_slots_.capacity() *
                                sizeof(std::vector<ReportSlot>));
  for (const auto& slots : report_slots_) {
    bytes += static_cast<int64_t>(slots.capacity() * sizeof(ReportSlot));
  }
  bytes += static_cast<int64_t>(log_.capacity() * sizeof(RawObservation));
  bytes += static_cast<int64_t>(source_names_.capacity() *
                                sizeof(std::string));
  // Node-based containers: one node per entry, element + two-pointer
  // overhead as a flat estimate (string heap storage excluded).
  bytes += static_cast<int64_t>(
      index_.size() * (sizeof(std::string) + sizeof(size_t) + 16));
  bytes += static_cast<int64_t>(
      source_sizes_.size() *
      (sizeof(std::string) + sizeof(int64_t) + 16));
  bytes += static_cast<int64_t>(
      source_index_.size() *
      (sizeof(std::string) + sizeof(int32_t) + 16));
  return bytes;
}

}  // namespace uuq
