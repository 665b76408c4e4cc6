#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <set>

#include "simulation/crowd.h"
#include "simulation/population.h"
#include "simulation/scenarios.h"

namespace uuq {
namespace {

TEST(MakeSyntheticPopulation, MatchesPaperSection62Defaults) {
  SyntheticPopulationConfig config;  // N=100, values 10..1000
  const Population pop = MakeSyntheticPopulation(config);
  ASSERT_EQ(pop.size(), 100u);
  EXPECT_DOUBLE_EQ(pop.TrueMin(), 10.0);
  EXPECT_DOUBLE_EQ(pop.TrueMax(), 1000.0);
  EXPECT_DOUBLE_EQ(pop.TrueSum(), 50500.0);  // Σ 10..1000 step 10
  EXPECT_DOUBLE_EQ(pop.TrueAvg(), 505.0);
}

TEST(MakeSyntheticPopulation, PublicitiesNormalized) {
  SyntheticPopulationConfig config;
  config.lambda = 4.0;
  const Population pop = MakeSyntheticPopulation(config);
  const double total = std::accumulate(pop.publicities().begin(),
                                       pop.publicities().end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MakeSyntheticPopulation, RhoOnePerfectlyCorrelates) {
  SyntheticPopulationConfig config;
  config.lambda = 2.0;
  config.rho = 1.0;
  const Population pop = MakeSyntheticPopulation(config);
  EXPECT_NEAR(pop.PublicityValueCorrelation(), 1.0, 1e-9);
  // The most public item (index 0) carries the largest value.
  EXPECT_DOUBLE_EQ(pop.item(0).value, 1000.0);
}

TEST(MakeSyntheticPopulation, RhoZeroUncorrelated) {
  SyntheticPopulationConfig config;
  config.lambda = 2.0;
  config.rho = 0.0;
  config.seed = 99;
  const Population pop = MakeSyntheticPopulation(config);
  EXPECT_LT(std::fabs(pop.PublicityValueCorrelation()), 0.3);
}

TEST(MakeSyntheticPopulation, IntermediateRhoBetween) {
  SyntheticPopulationConfig config;
  config.lambda = 2.0;
  config.rho = 0.9;
  config.seed = 7;
  const double high =
      MakeSyntheticPopulation(config).PublicityValueCorrelation();
  config.rho = 0.2;
  const double low =
      MakeSyntheticPopulation(config).PublicityValueCorrelation();
  EXPECT_GT(high, low);
}

TEST(MakeSyntheticPopulation, ValuesAreAPermutationOfTheGrid) {
  SyntheticPopulationConfig config;
  config.rho = 0.5;
  config.seed = 13;
  const Population pop = MakeSyntheticPopulation(config);
  std::multiset<double> values;
  for (const auto& item : pop.items()) values.insert(item.value);
  std::multiset<double> expected;
  for (int k = 0; k < 100; ++k) expected.insert(10.0 + 10.0 * k);
  EXPECT_EQ(values, expected);
}

TEST(MakeHeavyTailPopulation, HitsTargetSum) {
  HeavyTailPopulationConfig config;
  config.num_items = 500;
  config.target_sum = 1000000.0;
  config.seed = 3;
  const Population pop = MakeHeavyTailPopulation(config);
  // Rounding and the min-value floor allow a small deviation.
  EXPECT_NEAR(pop.TrueSum(), 1000000.0, 10000.0);
}

TEST(MakeHeavyTailPopulation, PublicityCorrelatesWithValue) {
  HeavyTailPopulationConfig config;
  config.num_items = 1000;
  config.publicity_exponent = 0.8;
  config.publicity_noise_sigma = 0.2;
  config.seed = 4;
  const Population pop = MakeHeavyTailPopulation(config);
  EXPECT_GT(pop.PublicityValueCorrelation(), 0.7);
}

TEST(Population, EmptyPopulationAggregates) {
  Population pop;
  EXPECT_DOUBLE_EQ(pop.TrueSum(), 0.0);
  EXPECT_DOUBLE_EQ(pop.TrueAvg(), 0.0);
}

TEST(CrowdSimulator, QuotasAreRespected) {
  SyntheticPopulationConfig config;
  const Population pop = MakeSyntheticPopulation(config);
  CrowdConfig crowd;
  crowd.num_workers = 7;
  crowd.answers_per_worker = 9;
  crowd.seed = 5;
  const auto stream = CrowdSimulator(&pop, crowd).GenerateStream();
  EXPECT_EQ(stream.size(), 63u);
  std::map<std::string, int> per_source;
  for (const auto& obs : stream) ++per_source[obs.source_id];
  EXPECT_EQ(per_source.size(), 7u);
  for (const auto& [id, count] : per_source) EXPECT_EQ(count, 9);
}

TEST(CrowdSimulator, WorkersSampleWithoutReplacement) {
  SyntheticPopulationConfig config;
  const Population pop = MakeSyntheticPopulation(config);
  CrowdConfig crowd;
  crowd.num_workers = 5;
  crowd.answers_per_worker = 40;
  crowd.seed = 6;
  const auto stream = CrowdSimulator(&pop, crowd).GenerateStream();
  std::map<std::string, std::set<std::string>> seen;
  for (const auto& obs : stream) {
    EXPECT_TRUE(seen[obs.source_id].insert(obs.entity_key).second)
        << obs.source_id << " repeated " << obs.entity_key;
  }
}

TEST(CrowdSimulator, RoundRobinInterleaves) {
  SyntheticPopulationConfig config;
  const Population pop = MakeSyntheticPopulation(config);
  CrowdConfig crowd;
  crowd.num_workers = 3;
  crowd.answers_per_worker = 2;
  crowd.order = ArrivalOrder::kRoundRobin;
  crowd.seed = 7;
  const auto stream = CrowdSimulator(&pop, crowd).GenerateStream();
  ASSERT_EQ(stream.size(), 6u);
  EXPECT_EQ(stream[0].source_id, "w0");
  EXPECT_EQ(stream[1].source_id, "w1");
  EXPECT_EQ(stream[2].source_id, "w2");
  EXPECT_EQ(stream[3].source_id, "w0");
}

TEST(CrowdSimulator, SequentialOrderGroupsWorkers) {
  SyntheticPopulationConfig config;
  const Population pop = MakeSyntheticPopulation(config);
  CrowdConfig crowd;
  crowd.num_workers = 2;
  crowd.answers_per_worker = 3;
  crowd.order = ArrivalOrder::kSequential;
  crowd.seed = 8;
  const auto stream = CrowdSimulator(&pop, crowd).GenerateStream();
  ASSERT_EQ(stream.size(), 6u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(stream[i].source_id, "w0");
  for (int i = 3; i < 6; ++i) EXPECT_EQ(stream[i].source_id, "w1");
}

TEST(CrowdSimulator, SequentialFullDumpCoversPopulationRepeatedly) {
  SyntheticPopulationConfig config;
  config.num_items = 20;
  const Population pop = MakeSyntheticPopulation(config);
  CrowdConfig crowd;
  crowd.num_workers = 3;
  crowd.sequential_full_dump = true;
  crowd.seed = 9;
  const auto stream = CrowdSimulator(&pop, crowd).GenerateStream();
  EXPECT_EQ(stream.size(), 60u);  // 3 workers × all 20 items
  std::set<std::string> first_dump;
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(stream[i].source_id, "w0");
    first_dump.insert(stream[i].entity_key);
  }
  EXPECT_EQ(first_dump.size(), 20u);
}

TEST(CrowdSimulator, StreakerInjectedAtPosition) {
  SyntheticPopulationConfig config;
  config.num_items = 30;
  const Population pop = MakeSyntheticPopulation(config);
  CrowdConfig crowd;
  crowd.num_workers = 4;
  crowd.answers_per_worker = 10;
  crowd.streaker_at = 12;
  crowd.streaker_items = 30;
  crowd.seed = 10;
  const auto stream = CrowdSimulator(&pop, crowd).GenerateStream();
  EXPECT_EQ(stream.size(), 70u);  // 40 worker answers + 30 streaker answers
  for (int i = 12; i < 42; ++i) {
    EXPECT_EQ(stream[i].source_id, "streaker");
  }
  EXPECT_NE(stream[11].source_id, "streaker");
  EXPECT_NE(stream[42].source_id, "streaker");
}

TEST(CrowdSimulator, DeterministicForSeed) {
  SyntheticPopulationConfig config;
  const Population pop = MakeSyntheticPopulation(config);
  CrowdConfig crowd;
  crowd.seed = 11;
  const auto a = CrowdSimulator(&pop, crowd).GenerateStream();
  const auto b = CrowdSimulator(&pop, crowd).GenerateStream();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].entity_key, b[i].entity_key);
  }
}

TEST(CrowdSimulator, PublicityBiasShowsInArrivalOrder) {
  // With heavy skew the most public item arrives (on average, across full
  // permutation draws) far earlier than the least public one.
  SyntheticPopulationConfig config;
  config.lambda = 6.0;
  config.rho = 1.0;
  const Population pop = MakeSyntheticPopulation(config);
  CrowdConfig crowd;
  crowd.num_workers = 1;
  crowd.answers_per_worker = 100;  // full draw = weighted permutation
  double top_position_sum = 0.0, bottom_position_sum = 0.0;
  const int trials = 50;
  for (uint64_t seed = 0; seed < trials; ++seed) {
    crowd.seed = seed;
    const auto stream = CrowdSimulator(&pop, crowd).GenerateStream();
    for (size_t i = 0; i < stream.size(); ++i) {
      if (stream[i].entity_key == pop.item(0).key) {
        top_position_sum += static_cast<double>(i);
      }
      if (stream[i].entity_key == pop.item(99).key) {
        bottom_position_sum += static_cast<double>(i);
      }
    }
  }
  EXPECT_LT(top_position_sum / trials, bottom_position_sum / trials - 20.0);
}

// FNV-1a over every observation's source id, entity key (each with its
// terminating NUL) and value bits, in stream order.
uint64_t StreamDigest(const std::vector<Observation>& stream) {
  uint64_t hash = 0xCBF29CE484222325ull;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001B3ull;
    }
  };
  for (const Observation& o : stream) {
    mix(o.source_id.c_str(), o.source_id.size() + 1);
    mix(o.entity_key.c_str(), o.entity_key.size() + 1);
    uint64_t bits = 0;
    std::memcpy(&bits, &o.value, sizeof(bits));
    mix(&bits, sizeof(bits));
  }
  return hash;
}

TEST(CrowdSimulator, FiftyThousandStreamDigestsArePinned) {
  // perfbench's 50k stream (targeted_50k and slices_50k): 100k items,
  // λ = 4, ρ = 0.5, 500 sources × 100 answers. The seeds are perfbench's
  // DeriveSeed(run seed, tag) for run seeds 1-3 (population tag 1, crowd
  // tag 2). The digests come from the weighted sampler without its
  // rejection test; any change to which item a source draws, or to the Rng
  // stream a draw consumes, moves them.
  struct Pin {
    uint64_t population_seed;
    uint64_t crowd_seed;
    uint64_t digest;
  };
  const Pin pins[] = {
      {0x5bf9f33c5098100cull, 0x4c11fe0b2e6dc452ull, 0x71772100c287986full},
      {0xf6b40c5efcb8e842ull, 0xa7e240983e32419eull, 0xcf150066f7c40492ull},
      {0x6565f0409782ea69ull, 0xac1830325012a98dull, 0xd048066e1817d7c0ull},
  };
  for (const Pin& pin : pins) {
    SyntheticPopulationConfig population;
    population.num_items = 100000;
    population.value_step = 1.0;
    population.lambda = 4.0;
    population.rho = 0.5;
    population.seed = pin.population_seed;
    CrowdConfig crowd;
    crowd.num_workers = 500;
    crowd.answers_per_worker = 100;
    crowd.seed = pin.crowd_seed;
    const std::vector<Observation> stream =
        scenarios::Synthetic(population, crowd).stream;
    ASSERT_EQ(stream.size(), 50000u);
    EXPECT_EQ(StreamDigest(stream), pin.digest)
        << std::hex << "population seed 0x" << pin.population_seed;
  }
}

}  // namespace
}  // namespace uuq
