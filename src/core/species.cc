#include "core/species.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "core/chao92.h"

namespace uuq {

const char* SpeciesEstimatorName(SpeciesEstimator estimator) {
  switch (estimator) {
    case SpeciesEstimator::kChao92:
      return "chao92";
    case SpeciesEstimator::kGoodTuring:
      return "good-turing";
    case SpeciesEstimator::kChao1:
      return "chao1";
    case SpeciesEstimator::kJackknife1:
      return "jackknife1";
    case SpeciesEstimator::kJackknife2:
      return "jackknife2";
    case SpeciesEstimator::kAce:
      return "ace";
  }
  return "?";
}

double Chao1Nhat(const FrequencyStatistics& fstats) {
  if (fstats.empty()) return 0.0;
  const double c = static_cast<double>(fstats.c());
  const double f1 = static_cast<double>(fstats.f(1));
  const double f2 = static_cast<double>(fstats.f(2));
  // Bias-corrected form stays finite when f2 = 0.
  return c + f1 * (f1 - 1.0) / (2.0 * (f2 + 1.0));
}

double Jackknife1Nhat(const FrequencyStatistics& fstats) {
  if (fstats.empty()) return 0.0;
  const double n = static_cast<double>(fstats.n());
  const double c = static_cast<double>(fstats.c());
  const double f1 = static_cast<double>(fstats.f(1));
  if (n <= 1.0) return c;
  return c + f1 * (n - 1.0) / n;
}

double Jackknife2Nhat(const FrequencyStatistics& fstats) {
  if (fstats.empty()) return 0.0;
  const double n = static_cast<double>(fstats.n());
  const double c = static_cast<double>(fstats.c());
  const double f1 = static_cast<double>(fstats.f(1));
  const double f2 = static_cast<double>(fstats.f(2));
  if (n <= 2.0) return Jackknife1Nhat(fstats);
  const double estimate = c + f1 * (2.0 * n - 3.0) / n -
                          f2 * (n - 2.0) * (n - 2.0) / (n * (n - 1.0));
  // The second-order correction can undershoot c on tiny/odd samples;
  // richness estimates below the observed count are meaningless.
  return std::max(estimate, c);
}

double AceNhat(const FrequencyStatistics& fstats, int rare_cutoff) {
  UUQ_CHECK(rare_cutoff >= 1);
  if (fstats.empty()) return 0.0;

  // Split classes into rare (observed <= cutoff) and abundant.
  double c_rare = 0.0, c_abundant = 0.0;
  double n_rare = 0.0;
  double sum_i_im1_fi = 0.0;  // over rare classes only
  for (const auto& [occurrences, classes] : fstats.histogram()) {
    if (occurrences <= rare_cutoff) {
      c_rare += static_cast<double>(classes);
      n_rare += static_cast<double>(occurrences * classes);
      sum_i_im1_fi +=
          static_cast<double>(occurrences) * (occurrences - 1.0) * classes;
    } else {
      c_abundant += static_cast<double>(classes);
    }
  }
  const double f1 = static_cast<double>(fstats.f(1));
  if (n_rare <= 0.0) return static_cast<double>(fstats.c());

  const double coverage = 1.0 - f1 / n_rare;
  if (coverage <= 0.0) {
    // All rare classes are singletons: ACE is undefined; Chao1 is the
    // conventional fallback.
    return Chao1Nhat(fstats);
  }
  const double gamma2_raw =
      (c_rare / coverage) * sum_i_im1_fi / (n_rare * (n_rare - 1.0)) - 1.0;
  const double gamma2 = std::max(gamma2_raw, 0.0);
  return c_abundant + c_rare / coverage + f1 / coverage * gamma2;
}

double SpeciesNhat(SpeciesEstimator estimator,
                   const FrequencyStatistics& fstats) {
  switch (estimator) {
    case SpeciesEstimator::kChao92:
      return Chao92Nhat(fstats);
    case SpeciesEstimator::kGoodTuring:
      return GoodTuringNhat(fstats);
    case SpeciesEstimator::kChao1:
      return Chao1Nhat(fstats);
    case SpeciesEstimator::kJackknife1:
      return Jackknife1Nhat(fstats);
    case SpeciesEstimator::kJackknife2:
      return Jackknife2Nhat(fstats);
    case SpeciesEstimator::kAce:
      return AceNhat(fstats);
  }
  return 0.0;
}

}  // namespace uuq
