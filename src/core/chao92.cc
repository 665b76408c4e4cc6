#include "core/chao92.h"

#include "stats/coverage.h"

namespace uuq {
namespace {

Chao92Lane Lane(const SampleStats& stats) {
  return Chao92NhatLane(
      static_cast<double>(stats.n), static_cast<double>(stats.c),
      static_cast<double>(stats.f1), static_cast<double>(stats.sum_mm1));
}

SampleStats ScalarsFromFstats(const FrequencyStatistics& fstats) {
  SampleStats stats;
  stats.n = fstats.n();
  stats.c = fstats.c();
  stats.f1 = fstats.singletons();
  stats.sum_mm1 = fstats.SumIiMinusOneFi();
  return stats;
}

}  // namespace

double Chao92Nhat(const SampleStats& stats) {
  return stats.empty() ? 0.0 : Lane(stats).n_hat;
}

double Chao92Nhat(const FrequencyStatistics& fstats) {
  return Chao92Nhat(ScalarsFromFstats(fstats));
}

double GoodTuringNhat(const SampleStats& stats) {
  return stats.empty() ? 0.0 : Lane(stats).good_turing_n_hat;
}

double GoodTuringNhat(const FrequencyStatistics& fstats) {
  return GoodTuringNhat(ScalarsFromFstats(fstats));
}

}  // namespace uuq
