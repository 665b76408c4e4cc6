// The materializing replicate reference, kept as a test oracle, and the
// batch fusion fold the running folds of integration/fusion.h must match.
//
// The bootstrap engine (core/bootstrap.h) evaluates every replicate from
// the columnar SampleView. This header states what a replicate MEANS the
// slow way: draw the sources on the engine's Rng streams, rebuild a full
// IntegratedSample through Add() (MaterializeReplicate /
// MaterializeLeaveOneOut below, written against IntegratedSample's public
// API only), and evaluate the statistic on it. The engine must match it
// replicate for replicate (docs/ARCHITECTURE.md, "Columnar ≡
// materialized").
#ifndef UUQ_TESTS_MATERIALIZED_ORACLE_H_
#define UUQ_TESTS_MATERIALIZED_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/bootstrap.h"
#include "integration/sample_view.h"
#include "stats/descriptive.h"

namespace uuq {
namespace oracle {

/// The batch fusion fold: an entity's reports, in arrival order, to its
/// fused value. kAverage is the left fold from the first report divided by
/// the count; kFirst and kLast take the ends; kMajority counts each report
/// with == (so a NaN report counts nothing) and keeps the earliest report
/// with the highest count, the first report when every report is NaN.
inline double FuseReports(FusionPolicy policy,
                          const std::vector<double>& reports) {
  UUQ_CHECK(!reports.empty());
  switch (policy) {
    case FusionPolicy::kAverage: {
      double sum = reports.front();
      for (size_t i = 1; i < reports.size(); ++i) sum += reports[i];
      return sum / static_cast<double>(reports.size());
    }
    case FusionPolicy::kFirst:
      return reports.front();
    case FusionPolicy::kLast:
      return reports.back();
    case FusionPolicy::kMajority: {
      double best = reports.front();
      int best_count = 0;
      for (double candidate : reports) {
        int count = 0;
        for (double r : reports) count += r == candidate ? 1 : 0;
        if (count > best_count) {
          best_count = count;
          best = candidate;
        }
      }
      return best;
    }
  }
  return reports.front();
}

/// Every entity's reports in arrival order, by entity index, read from the
/// raw log.
inline std::vector<std::vector<double>> ReportsByEntity(
    const IntegratedSample& sample) {
  std::vector<std::vector<double>> reports(sample.entities().size());
  for (const RawObservation& obs : sample.raw_log()) {
    reports[static_cast<size_t>(obs.entity_index)].push_back(obs.value);
  }
  return reports;
}

/// Position of each source_names() entry among the source ids sorted
/// ascending — the draw-index space of DrawBootstrapSources and
/// SampleView::BuildLeaveOneOut.
inline std::vector<int32_t> IdSortedSourceIndex(
    const IntegratedSample& sample) {
  const std::vector<std::string>& names = sample.source_names();
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int32_t> index(names.size());
  for (size_t a = 0; a < names.size(); ++a) {
    index[a] = static_cast<int32_t>(
        std::lower_bound(sorted.begin(), sorted.end(), names[a]) -
        sorted.begin());
  }
  return index;
}

/// The IntegratedSample a bootstrap draw multiset stands for: draw position
/// d replays id-sorted source draws[d]'s observations, in arrival order,
/// under the fresh identity "bs<d>" — the same original source drawn twice
/// acts as two independent sources (bootstrap-of-clusters). BuildReplicate
/// must match it bit for bit.
inline IntegratedSample MaterializeReplicate(
    const IntegratedSample& sample, const std::vector<int32_t>& draws) {
  const std::vector<int32_t> sorted = IdSortedSourceIndex(sample);
  std::vector<std::vector<const RawObservation*>> by_source(sorted.size());
  for (const RawObservation& obs : sample.raw_log()) {
    by_source[static_cast<size_t>(
                  sorted[static_cast<size_t>(obs.source_index)])]
        .push_back(&obs);
  }
  IntegratedSample out(sample.policy());
  for (size_t draw = 0; draw < draws.size(); ++draw) {
    const int32_t s = draws[draw];
    UUQ_CHECK(s >= 0 && s < static_cast<int32_t>(by_source.size()));
    const std::string identity = "bs" + std::to_string(draw);
    for (const RawObservation* obs : by_source[static_cast<size_t>(s)]) {
      out.Add(identity,
              sample.entities()[static_cast<size_t>(obs->entity_index)].key,
              obs->value);
    }
  }
  return out;
}

/// The delete-one-source jackknife sample: the arrival-order replay of every
/// observation not from id-sorted source `excluded`, with original source
/// ids and categories. BuildLeaveOneOut must match it bit for bit.
inline IntegratedSample MaterializeLeaveOneOut(const IntegratedSample& sample,
                                               int32_t excluded) {
  const std::vector<int32_t> sorted = IdSortedSourceIndex(sample);
  UUQ_CHECK(excluded >= 0 && excluded < static_cast<int32_t>(sorted.size()));
  IntegratedSample out(sample.policy());
  for (const RawObservation& obs : sample.raw_log()) {
    const size_t source = static_cast<size_t>(obs.source_index);
    if (sorted[source] == excluded) continue;
    const EntityStat& entity =
        sample.entities()[static_cast<size_t>(obs.entity_index)];
    out.Add(sample.source_names()[source], entity.key, obs.value,
            entity.category);
  }
  return out;
}

/// A materialized replicate's entities in the order SampleView's Build*
/// list them: by the view rank (view.entity_rank()) of the same key in
/// `sample`, the sample `view` flattens.
inline std::vector<EntityStat> EntitiesInViewRankOrder(
    const IntegratedSample& sample, const SampleView& view,
    const IntegratedSample& mat) {
  std::unordered_map<std::string, int32_t> rank_of;
  for (size_t e = 0; e < sample.entities().size(); ++e) {
    rank_of[sample.entities()[e].key] = view.entity_rank()[e];
  }
  std::vector<std::pair<int32_t, EntityStat>> ranked;
  for (const EntityStat& entity : mat.entities()) {
    const auto it = rank_of.find(entity.key);
    UUQ_CHECK(it != rank_of.end());
    ranked.emplace_back(it->second, entity);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<EntityStat> out;
  out.reserve(ranked.size());
  for (auto& entry : ranked) out.push_back(std::move(entry.second));
  return out;
}

/// Replicate values of a materialized run.
struct Replicates {
  std::vector<double> values;  ///< the finite replicate values, sorted
  /// Percentiles of `values` (Quantile; NaN when no value is finite).
  double lo = 0.0;
  double hi = 0.0;
  double median = 0.0;
  /// Jackknife only: sqrt((l−1)/l · Σ (θ_(i) − θ̄)²) over the finite values
  /// in leave-one-out order, as JackknifeCorrectedSum folds it.
  double standard_error = 0.0;
};

/// The finite entries of `raw`, sorted: what the percentiles are taken
/// over (BootstrapInterval::by_replicate → Replicates::values).
inline std::vector<double> SortedFinite(const std::vector<double>& raw) {
  std::vector<double> finite;
  for (double value : raw) {
    if (std::isfinite(value)) finite.push_back(value);
  }
  std::sort(finite.begin(), finite.end());
  return finite;
}

inline Replicates Summarize(const std::vector<double>& raw,
                            double confidence) {
  Replicates out;
  out.values = SortedFinite(raw);
  const double alpha = (1.0 - confidence) / 2.0;
  out.lo = Quantile(out.values, alpha);
  out.hi = Quantile(out.values, 1.0 - alpha);
  out.median = Quantile(out.values, 0.5);
  return out;
}

/// Fixed-budget bootstrap of `statistic(const IntegratedSample&)`. Reads
/// `options.replicates`, `seed` and `confidence`; replicate b draws on the
/// b-th Rng(seed).Split() stream, exactly as the engine does.
template <typename Statistic>
Replicates MaterializedBootstrap(const IntegratedSample& sample,
                                 const BootstrapOptions& options,
                                 const Statistic& statistic) {
  const SampleView view(sample);
  Rng root(options.seed);
  std::vector<int32_t> draws;
  std::vector<double> raw;
  for (int b = 0; b < options.replicates; ++b) {
    Rng rng = root.Split();
    view.DrawBootstrapSources(&rng, &draws);
    raw.push_back(statistic(MaterializeReplicate(sample, draws)));
  }
  return Summarize(raw, options.confidence);
}

/// Delete-one-source jackknife of `statistic`; empty below 2 sources, like
/// JackknifeCorrectedSum.
template <typename Statistic>
Replicates MaterializedJackknife(const IntegratedSample& sample,
                                 const Statistic& statistic,
                                 double confidence = 0.95) {
  if (sample.num_sources() < 2) return {};
  std::vector<double> finite;
  for (int32_t s = 0; s < sample.num_sources(); ++s) {
    const double value = statistic(MaterializeLeaveOneOut(sample, s));
    if (std::isfinite(value)) finite.push_back(value);
  }
  Replicates out = Summarize(finite, confidence);
  if (finite.size() >= 2) {
    const double l = static_cast<double>(finite.size());
    const double mean = Mean(finite);
    double ss = 0.0;
    for (double r : finite) ss += (r - mean) * (r - mean);
    out.standard_error = std::sqrt((l - 1.0) / l * ss);
  }
  return out;
}

}  // namespace oracle
}  // namespace uuq

#endif  // UUQ_TESTS_MATERIALIZED_ORACLE_H_
