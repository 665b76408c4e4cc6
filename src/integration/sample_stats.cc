#include "integration/sample_stats.h"

#include <algorithm>
#include <cmath>

#include "integration/sample_view.h"
#include "stats/coverage.h"

namespace uuq {

void SampleStats::Merge(const SampleStats& other) {
  n += other.n;
  c += other.c;
  f1 += other.f1;
  sum_mm1 += other.sum_mm1;
  value_sum += other.value_sum;
  value_sum_sq += other.value_sum_sq;
  singleton_sum += other.singleton_sum;
}

SampleStats SampleStats::FromSample(const IntegratedSample& sample) {
  SampleStats stats;
  for (const EntityStat& e : sample.entities()) stats.Add(e);
  return stats;
}

SampleStats SampleStats::FromReplicate(const ReplicateSample& rep) {
  if (rep.stats.has_value()) return *rep.stats;
  SampleStats stats;
  for (const EntityPoint& point : rep.entities) stats.Add(point);
  return stats;
}

double SampleStats::Coverage() const {
  return n == 0 ? 0.0
                : CoverageLane(static_cast<double>(n), static_cast<double>(f1));
}

double SampleStats::Gamma2() const {
  return n == 0 ? 0.0
                : Chao92NhatLane(static_cast<double>(n), static_cast<double>(c),
                                 static_cast<double>(f1),
                                 static_cast<double>(sum_mm1))
                      .gamma2;
}

double SampleStats::ValueMean() const {
  return c == 0 ? 0.0 : value_sum / static_cast<double>(c);
}

double SampleStats::ValueStdDev() const {
  if (c < 2) return 0.0;
  const double mean = ValueMean();
  // Guard tiny negative values from catastrophic cancellation.
  const double variance = std::max(
      (value_sum_sq - static_cast<double>(c) * mean * mean) /
          static_cast<double>(c - 1),
      0.0);
  return std::sqrt(variance);
}

}  // namespace uuq
