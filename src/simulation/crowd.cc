#include "simulation/crowd.h"

#include <algorithm>

#include "common/macros.h"
#include "stats/sampling.h"

namespace uuq {

CrowdSimulator::CrowdSimulator(const Population* population,
                               CrowdConfig config)
    : population_(population), config_(config) {
  UUQ_CHECK(population_ != nullptr);
  UUQ_CHECK(config_.num_workers >= 0);
  UUQ_CHECK(config_.answers_per_worker >= 0);
}

std::vector<Observation> CrowdSimulator::WorkerAnswers(int worker, int quota,
                                                       Rng* rng) const {
  const std::vector<int> drawn = WeightedSampleWithoutReplacement(
      population_->publicities(), quota, rng);
  std::vector<Observation> out;
  out.reserve(drawn.size());
  const std::string source_id = "w" + std::to_string(worker);
  for (int idx : drawn) {
    const PopulationItem& item = population_->item(idx);
    out.push_back({source_id, item.key, item.value, ""});
  }
  return out;
}

std::vector<Observation> CrowdSimulator::GenerateStream() const {
  Rng rng(config_.seed);
  std::vector<Observation> stream;

  if (config_.sequential_full_dump) {
    // Figure 7(a): every source provides every item, one source at a time.
    const int full = static_cast<int>(population_->size());
    for (int w = 0; w < config_.num_workers; ++w) {
      std::vector<Observation> answers = WorkerAnswers(w, full, &rng);
      stream.insert(stream.end(), answers.begin(), answers.end());
    }
    return stream;
  }

  std::vector<std::vector<Observation>> per_worker(config_.num_workers);
  for (int w = 0; w < config_.num_workers; ++w) {
    per_worker[w] = WorkerAnswers(w, config_.answers_per_worker, &rng);
  }

  if (config_.order == ArrivalOrder::kSequential) {
    for (const auto& answers : per_worker) {
      stream.insert(stream.end(), answers.begin(), answers.end());
    }
  } else {
    // Round-robin interleave.
    for (size_t round = 0;; ++round) {
      bool any = false;
      for (const auto& answers : per_worker) {
        if (round < answers.size()) {
          stream.push_back(answers[round]);
          any = true;
        }
      }
      if (!any) break;
    }
  }

  if (config_.streaker_at >= 0) {
    const int quota = config_.streaker_items > 0
                          ? config_.streaker_items
                          : static_cast<int>(population_->size());
    std::vector<Observation> streaker;
    streaker.reserve(quota);
    const std::vector<int> drawn = WeightedSampleWithoutReplacement(
        population_->publicities(), quota, &rng);
    for (int idx : drawn) {
      const PopulationItem& item = population_->item(idx);
      streaker.push_back({"streaker", item.key, item.value, ""});
    }
    const size_t pos =
        std::min<size_t>(static_cast<size_t>(config_.streaker_at),
                         stream.size());
    stream.insert(stream.begin() + pos, streaker.begin(), streaker.end());
  }
  return stream;
}

}  // namespace uuq
