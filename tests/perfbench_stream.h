// perfbench's observation stream, shared by the suites that pin or fuzz
// on the served benchmark's sample.
#ifndef UUQ_TESTS_PERFBENCH_STREAM_H_
#define UUQ_TESTS_PERFBENCH_STREAM_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "integration/sample.h"
#include "simulation/scenarios.h"

namespace uuq {

/// perfbench's observation stream at run seed 1 (the targeted_50k and
/// slices_50k sample is its first 50k observations): 100k items, λ = 4,
/// ρ = 0.5, 500 sources × 100 answers, the population and crowd seeds its
/// DeriveSeed gives for seed 1.
inline std::vector<Observation> PerfbenchStream() {
  SyntheticPopulationConfig population;
  population.num_items = 100000;
  population.value_step = 1.0;
  population.lambda = 4.0;
  population.rho = 0.5;
  population.seed = 0x5bf9f33c5098100cull;
  CrowdConfig crowd;
  crowd.num_workers = 500;
  crowd.answers_per_worker = 100;
  crowd.seed = 0x4c11fe0b2e6dc452ull;
  return scenarios::Synthetic(population, crowd).stream;
}

/// The first `observations` of PerfbenchStream as one sample.
inline std::shared_ptr<const IntegratedSample> PerfbenchStreamPrefix(
    size_t observations) {
  const std::vector<Observation> stream = PerfbenchStream();
  auto sample = std::make_shared<IntegratedSample>();
  for (size_t i = 0; i < std::min(observations, stream.size()); ++i) {
    sample->Add(stream[i]);
  }
  return sample;
}

/// A prefix of perfbench's stream with its values rounded to 40 levels of
/// 2500: nearly every cut candidate sits between two long runs of tied
/// values. With `nan_level` every fifth level reads as NaN, and those
/// points sort behind the numbers. (A NaN value makes every slice holding it
/// score +inf, so that sample's dynamic partition is the single bucket.)
inline std::shared_ptr<const IntegratedSample> TieHeavyStreamPrefix(
    size_t observations, bool nan_level) {
  const std::vector<Observation> stream = PerfbenchStream();
  auto sample = std::make_shared<IntegratedSample>();
  for (size_t i = 0; i < std::min(observations, stream.size()); ++i) {
    Observation tied = stream[i];
    const double level = std::floor(tied.value / 2500.0);
    tied.value = nan_level && std::fmod(level, 5.0) == 3.0
                     ? std::numeric_limits<double>::quiet_NaN()
                     : level * 2500.0;
    sample->Add(tied);
  }
  return sample;
}

}  // namespace uuq

#endif  // UUQ_TESTS_PERFBENCH_STREAM_H_
