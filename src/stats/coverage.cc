#include "stats/coverage.h"

#include <cmath>

namespace uuq {

double GoodTuringCoverage(const FrequencyStatistics& stats) {
  if (stats.n() == 0) return 0.0;
  return CoverageLane(static_cast<double>(stats.n()),
                      static_cast<double>(stats.singletons()));
}

double UnseenMass(const FrequencyStatistics& stats) {
  return 1.0 - GoodTuringCoverage(stats);
}

double SquaredCvEstimate(const FrequencyStatistics& stats) {
  if (stats.n() == 0) return 0.0;
  return Chao92NhatLane(static_cast<double>(stats.n()),
                        static_cast<double>(stats.c()),
                        static_cast<double>(stats.singletons()),
                        static_cast<double>(stats.SumIiMinusOneFi()))
      .gamma2;
}

double ExactCv(const std::vector<double>& publicities) {
  if (publicities.empty()) return 0.0;
  const double n = static_cast<double>(publicities.size());
  double sum = 0.0;
  for (double p : publicities) sum += p;
  const double mean = sum / n;
  if (mean == 0.0) return 0.0;
  double ss = 0.0;
  for (double p : publicities) ss += (p - mean) * (p - mean);
  return std::sqrt(ss / n) / mean;
}

bool CoverageSufficient(const FrequencyStatistics& stats) {
  return GoodTuringCoverage(stats) >= kCoverageRecommendationThreshold;
}

}  // namespace uuq
