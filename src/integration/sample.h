// The integrated sample S and its deduplicated view K (paper §2.1-2.2).
//
// IntegratedSample consumes an observation stream and keeps what it
// observed: the raw observation log, one fused EntityStat per entity
// (fused value, multiplicity, category), the per-source sizes n_j, and per
// entity the running fusion state its fused value is finished from
// (integration/fusion.h). The aggregates the estimators read are folds
// over entities(), so each has one definition:
//   n      total observations (|S|, duplicates included)
//   c      distinct entities (|K|)
//   f_j    frequency statistics (Fstats())
//   φK     the observed SUM over fused entity values (ObservedSum(), the
//          bits of SampleStats::FromSample(s).value_sum)
//   φf1    the sum of singleton values (SampleStats::singleton_sum)
// Conflicting values for one entity are fused according to a FusionPolicy;
// the paper's experiments average disagreeing crowd answers.
#ifndef UUQ_INTEGRATION_SAMPLE_H_
#define UUQ_INTEGRATION_SAMPLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "integration/fusion.h"
#include "integration/source.h"
#include "stats/fstats.h"

namespace uuq {

/// Per-entity state exposed to estimators.
struct EntityStat {
  std::string key;       // normalized entity key
  double value = 0.0;    // fused attribute value
  int64_t multiplicity = 0;  // times observed across all sources
  std::string category;  // first non-empty reported category
};

/// One raw observation in index form: no string copies, 16 bytes. The
/// columnar SampleView is built from this representation.
struct RawObservation {
  int32_t source_index;  // into source_names()
  int32_t entity_index;  // into entities()
  double value;          // raw reported value (pre-fusion)
};

class IntegratedSample {
 public:
  explicit IntegratedSample(FusionPolicy policy = FusionPolicy::kAverage)
      : policy_(policy) {}

  /// Ingests one observation (key is normalized internally) and folds it
  /// into its entity's fusion state (integration/fusion.h): one FuseStep
  /// and FuseFinish, or under kMajority one slot count and a MajorityVote
  /// over the entity's distinct reports. On a Filter() result the first
  /// Add() first rebuilds the key index from the entities. The optional
  /// category is entity-level metadata; the first non-empty report wins.
  void Add(const std::string& source_id, const std::string& entity_key,
           double value, const std::string& category = "");

  /// Convenience overload.
  void Add(const Observation& obs) {
    Add(obs.source_id, obs.entity_key, obs.value, obs.category);
  }

  /// Distinct non-empty entity categories, sorted.
  std::vector<std::string> Categories() const;

  /// Sample size n = |S|.
  int64_t n() const { return static_cast<int64_t>(log_.size()); }
  /// Distinct entities c = |K|.
  int64_t c() const { return static_cast<int64_t>(entities_.size()); }
  bool empty() const { return log_.empty(); }

  /// The f-statistics, folded over entities().
  FrequencyStatistics Fstats() const;

  /// φK — observed SUM of fused values over K, folded over entities() in
  /// order.
  double ObservedSum() const;

  /// All per-entity stats, in first-observation order.
  const std::vector<EntityStat>& entities() const { return entities_; }

  /// Per-source observation counts n_j keyed by source id.
  const std::map<std::string, int64_t>& source_sizes() const {
    return source_sizes_;
  }

  /// n_j as a bare vector (order: by source id).
  std::vector<int64_t> SourceSizeVector() const;

  /// Number of distinct sources l.
  int64_t num_sources() const {
    return static_cast<int64_t>(source_sizes_.size());
  }

  /// Rebuilds a sub-sample containing only the entities for which `keep`
  /// returns true. This implements predicate push-down for corrected
  /// queries: species estimation then runs over the predicate-satisfying
  /// class only (§2.1 drops the predicate because every item of D
  /// satisfies it).
  ///
  /// CONTRACT:
  ///  * `keep` is called exactly once per entity, in entities() order, on
  ///    the entity's FINAL fused state — never per observation.
  ///  * The result is bit-identical, through every public accessor, to a
  ///    fresh sample fed the kept observations through Add() in arrival
  ///    order — except ApproxBytes(), which is never larger: every size is
  ///    known up front, so containers are allocated to fit rather than grown
  ///    by doubling. A kept entity keeps all its observations in arrival
  ///    order, so its fused state is the parent's: the rebuild walks the
  ///    raw log once in index space and copies each kept EntityStat, with
  ///    its fusion state, at its first kept observation. It fuses nothing
  ///    and normalizes no key; the key index is rebuilt by the result's
  ///    first Add(), if any.
  ///  * tests/sample_filter_test.cc pins all of this against that Add()
  ///    replay, for every FusionPolicy.
  IntegratedSample Filter(
      const std::function<bool(const EntityStat&)>& keep) const;

  /// The raw observation stream in arrival order, in index form, zero-copy
  /// (values are the ORIGINAL reports, not fused values): the backing store
  /// of SampleView's columnar flattening. Entries reference source_names()
  /// and entities() by position.
  const std::vector<RawObservation>& raw_log() const { return log_; }

  /// Source ids in first-contribution order.
  const std::vector<std::string>& source_names() const {
    return source_names_;
  }

  FusionPolicy policy() const { return policy_; }

  /// kMajority only (empty otherwise): per entity, its distinct reports
  /// with their counts in first-arrival order — the slots SampleView's
  /// replicate histogram counts over.
  const std::vector<std::vector<ReportSlot>>& report_slots() const {
    return report_slots_;
  }

  /// Approximate resident heap capacity of the sample's containers, in
  /// bytes (vector capacities exactly; node-based containers estimated per
  /// entry, string heap storage excluded).
  int64_t ApproxBytes() const;

 private:
  FusionPolicy policy_;
  std::vector<EntityStat> entities_;
  // Fusion state parallel to entities_: report slots under kMajority, else
  // the FuseStep accumulator (the other column stays empty).
  std::vector<double> accumulators_;
  std::vector<std::vector<ReportSlot>> report_slots_;
  // key -> entities_ index. Complete or, in a Filter() result, empty until
  // the first Add() rebuilds it.
  std::unordered_map<std::string, size_t> index_;
  std::map<std::string, int64_t> source_sizes_;
  std::vector<std::string> source_names_;  // arrival order of first mention
  std::unordered_map<std::string, int32_t> source_index_;
  std::vector<RawObservation> log_;  // raw observation stream, arrival order
};

}  // namespace uuq

#endif  // UUQ_INTEGRATION_SAMPLE_H_
