#include "integration/sample.h"

#include <algorithm>

#include "common/macros.h"
#include "integration/source.h"

namespace uuq {

double IntegratedSample::Fuse(const std::vector<double>& reports) const {
  UUQ_DCHECK(!reports.empty());
  switch (policy_) {
    case FusionPolicy::kAverage: {
      double sum = 0.0;
      for (double r : reports) sum += r;
      return sum / static_cast<double>(reports.size());
    }
    case FusionPolicy::kFirst:
      return reports.front();
    case FusionPolicy::kLast:
      return reports.back();
    case FusionPolicy::kMajority: {
      // Mode with ties broken by first occurrence.
      double best = reports.front();
      int best_count = 0;
      for (size_t i = 0; i < reports.size(); ++i) {
        int count = 0;
        for (double r : reports) {
          if (r == reports[i]) ++count;
        }
        if (count > best_count) {
          best_count = count;
          best = reports[i];
        }
      }
      return best;
    }
  }
  return reports.front();
}

void IntegratedSample::Add(const std::string& source_id,
                           const std::string& entity_key, double value,
                           const std::string& category) {
  const std::string key = NormalizeEntityKey(entity_key);
  UUQ_CHECK_MSG(!key.empty(), "empty entity key");
  ++n_;
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

  // A Filter() result leaves its report lists and key index to its first
  // Add(); both are rebuilt from the log.
  if (reports_.size() < entities_.size()) {
    reports_.resize(entities_.size());
    for (const RawObservation& entry : log_) {
      reports_[static_cast<size_t>(entry.entity_index)].push_back(
          entry.value);
    }
  }
  for (size_t e = index_.size(); e < entities_.size(); ++e) {
    index_.emplace(entities_[e].key, e);
  }
  auto it = index_.find(key);
  if (it == index_.end()) {
    const size_t stat_index = entities_.size();
    reports_.emplace_back().push_back(value);
    log_.push_back({source_idx, static_cast<int32_t>(stat_index), value});
    entities_.push_back({key, value, 1, category});
    index_.emplace(key, stat_index);
    return;
  }
  const size_t stat_index = it->second;
  log_.push_back({source_idx, static_cast<int32_t>(stat_index), value});
  EntityStat& stat = entities_[stat_index];
  if (!category.empty() && stat.category.empty()) stat.category = category;
  reports_[stat_index].push_back(value);
  stat.value = Fuse(reports_[stat_index]);
  ++stat.multiplicity;
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
  out.n_ = kept_observations;
  out.entities_.reserve(static_cast<size_t>(kept_entities));
  out.log_.reserve(static_cast<size_t>(kept_observations));

  // Walk the log in arrival order in index space. A kept entity keeps its
  // reports in their order, so its fused state is the parent's: it is
  // copied at its first kept observation, and nothing is re-fused.
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
      out.entities_.push_back(entities_[entry.entity_index]);
    }
  }

  // One insert per kept source. The report lists and the key index are left
  // to the first Add(): a filtered sample is usually only read.
  for (size_t s = 0; s < out.source_names_.size(); ++s) {
    out.source_index_.emplace(out.source_names_[s], static_cast<int32_t>(s));
    out.source_sizes_.emplace(out.source_names_[s], kept_per_source[s]);
  }
  return out;
}

int64_t IntegratedSample::ApproxBytes() const {
  int64_t bytes =
      static_cast<int64_t>(entities_.capacity() * sizeof(EntityStat));
  bytes += static_cast<int64_t>(reports_.capacity() *
                                sizeof(std::vector<double>));
  for (const auto& r : reports_) {
    bytes += static_cast<int64_t>(r.capacity() * sizeof(double));
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
