#include "stats/sampling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <utility>

#include "stats/distributions.h"

namespace uuq {
namespace {

using KeyedIndex = std::pair<double, int>;  // (log-key, index)

// The reference oracle: the Efraimidis-Spirakis loop without
// WeightedWorSelector's rejection test. One uniform per positive-weight
// item, a log and a division for every one, and the k largest
// (log-key, index) pairs kept in a std::greater min-heap, returned in heap
// order.
std::vector<KeyedIndex> ReferenceSelect(const std::vector<double>& weights,
                                        int k, Rng* rng) {
  std::vector<KeyedIndex> heap;
  if (k == 0) return heap;
  const auto greater = std::greater<KeyedIndex>();
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    double u = 0.0;
    do {
      u = rng->NextDouble();
    } while (u <= 1e-300);
    const double log_key = std::log(u) / weights[i];
    if (static_cast<int>(heap.size()) < k) {
      heap.emplace_back(log_key, static_cast<int>(i));
      std::push_heap(heap.begin(), heap.end(), greater);
    } else if (log_key > heap.front().first) {
      std::pop_heap(heap.begin(), heap.end(), greater);
      heap.back() = {log_key, static_cast<int>(i)};
      std::push_heap(heap.begin(), heap.end(), greater);
    }
  }
  return heap;
}

// WeightedSampleWithoutReplacement's order, derived independently: pop
// the min-heap (ascending pairs), then reverse, so the highest key comes
// first.
std::vector<int> ReferenceSampleWithoutReplacement(
    const std::vector<double>& weights, int k, Rng* rng) {
  std::vector<KeyedIndex> heap = ReferenceSelect(weights, k, rng);
  std::vector<int> out;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<KeyedIndex>());
    out.push_back(heap.back().second);
    heap.pop_back();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

TEST(WeightedSampleWithoutReplacement, NoDuplicates) {
  Rng rng(1);
  const std::vector<double> weights(20, 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = WeightedSampleWithoutReplacement(weights, 10, &rng);
    std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), sample.size());
  }
}

TEST(WeightedSampleWithoutReplacement, ExactSizeRequested) {
  Rng rng(2);
  const std::vector<double> weights(30, 1.0);
  EXPECT_EQ(WeightedSampleWithoutReplacement(weights, 7, &rng).size(), 7u);
  EXPECT_EQ(WeightedSampleWithoutReplacement(weights, 0, &rng).size(), 0u);
}

TEST(WeightedSampleWithoutReplacement, ClampsToDrawable) {
  Rng rng(3);
  const std::vector<double> weights{1.0, 0.0, 2.0, 0.0};
  const auto sample = WeightedSampleWithoutReplacement(weights, 10, &rng);
  EXPECT_EQ(sample.size(), 2u);  // only two positive weights
  for (int idx : sample) {
    EXPECT_TRUE(idx == 0 || idx == 2);
  }
}

TEST(WeightedSampleWithoutReplacement, FullDrawIsPermutation) {
  Rng rng(4);
  const std::vector<double> weights{1, 2, 3, 4, 5};
  auto sample = WeightedSampleWithoutReplacement(weights, 5, &rng);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WeightedSampleWithoutReplacement, HeavyItemDrawnFirstMoreOften) {
  Rng rng(5);
  // Item 0 has 10x the weight of each of the others.
  std::vector<double> weights{10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  int first_count = 0;
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    const auto sample = WeightedSampleWithoutReplacement(weights, 3, &rng);
    if (!sample.empty() && sample[0] == 0) ++first_count;
  }
  // P(item 0 drawn first) = 10/20 = 0.5 under successive sampling.
  EXPECT_NEAR(static_cast<double>(first_count) / trials, 0.5, 0.04);
}

TEST(WeightedSampleWithoutReplacement, InclusionSkewsToWeight) {
  Rng rng(6);
  std::vector<double> weights{5, 1, 1, 1, 1, 1};
  int heavy_in = 0, light_in = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const auto sample = WeightedSampleWithoutReplacement(weights, 2, &rng);
    for (int idx : sample) {
      if (idx == 0) ++heavy_in;
      if (idx == 1) ++light_in;
    }
  }
  EXPECT_GT(heavy_in, light_in * 2);
}

TEST(WeightedSampleWithReplacement, SizeAndRange) {
  Rng rng(7);
  const std::vector<double> weights{1, 2, 3};
  const auto sample = WeightedSampleWithReplacement(weights, 100, &rng);
  EXPECT_EQ(sample.size(), 100u);
  for (int idx : sample) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 3);
  }
}

TEST(WeightedSampleWithReplacement, CanRepeat) {
  Rng rng(8);
  const std::vector<double> weights{1.0};
  const auto sample = WeightedSampleWithReplacement(weights, 5, &rng);
  EXPECT_EQ(sample, (std::vector<int>{0, 0, 0, 0, 0}));
}

TEST(AliasSampler, MatchesWeightsEmpirically) {
  Rng rng(9);
  const std::vector<double> weights{1, 2, 3, 4};
  AliasSampler sampler(weights);
  std::vector<int> counts(4, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[sampler.Sample(&rng)];
  for (int i = 0; i < 4; ++i) {
    const double expected = weights[i] / 10.0;
    EXPECT_NEAR(static_cast<double>(counts[i]) / draws, expected, 0.01);
  }
}

TEST(AliasSampler, HandlesZeroWeightEntries) {
  Rng rng(10);
  AliasSampler sampler({0.0, 1.0, 0.0});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sampler.Sample(&rng), 1);
  }
}

TEST(AliasSampler, SingleItem) {
  Rng rng(11);
  AliasSampler sampler({3.0});
  EXPECT_EQ(sampler.Sample(&rng), 0);
}

TEST(AliasSamplerDeathTest, RejectsEmptyAndZeroTotal) {
  EXPECT_DEATH(AliasSampler({}), "at least one weight");
  EXPECT_DEATH(AliasSampler({0.0, 0.0}), "positive total");
}

TEST(WeightedSampleWithoutReplacement, UniformWeightsCoverUniformly) {
  Rng rng(12);
  const std::vector<double> weights(10, 1.0);
  std::vector<int> inclusion(10, 0);
  const int trials = 10000;
  for (int t = 0; t < trials; ++t) {
    for (int idx : WeightedSampleWithoutReplacement(weights, 5, &rng)) {
      ++inclusion[idx];
    }
  }
  for (int count : inclusion) {
    EXPECT_NEAR(static_cast<double>(count) / trials, 0.5, 0.03);
  }
}

TEST(WeightedSampleWithoutReplacement, DeterministicGivenSeed) {
  Rng rng1(13), rng2(13);
  const std::vector<double> weights{1, 5, 2, 8, 3};
  EXPECT_EQ(WeightedSampleWithoutReplacement(weights, 3, &rng1),
            WeightedSampleWithoutReplacement(weights, 3, &rng2));
}

TEST(PartialShuffler, DrawsDistinctIndicesInRange) {
  PartialShuffler shuffler;
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::set<int> seen;
    shuffler.Draw(100, 20, &rng, [&](int idx) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, 100);
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate index " << idx;
    });
    EXPECT_EQ(seen.size(), 20u);
  }
}

TEST(PartialShuffler, KClampsToNAndDrawsEverything) {
  PartialShuffler shuffler;
  Rng rng(4);
  std::set<int> seen;
  shuffler.Draw(7, 12, &rng, [&](int idx) { seen.insert(idx); });
  EXPECT_EQ(seen.size(), 7u);
}

TEST(PartialShuffler, ZeroItemsOrZeroDrawsVisitNothing) {
  PartialShuffler shuffler;
  Rng rng(5);
  int calls = 0;
  shuffler.Draw(0, 5, &rng, [&](int) { ++calls; });
  shuffler.Draw(5, 0, &rng, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(PartialShuffler, DrawsDependOnlyOnTheRngStream) {
  // The internal permutation is restored after every draw, so a shuffler
  // that has already served other draws (even at other n) behaves exactly
  // like a fresh one given the same Rng state.
  PartialShuffler warmed;
  Rng warmup(6);
  warmed.Draw(50, 10, &warmup, [](int) {});
  warmed.Draw(8, 8, &warmup, [](int) {});

  PartialShuffler fresh;
  Rng rng_a(7);
  Rng rng_b(7);
  std::vector<int> from_warmed, from_fresh;
  warmed.Draw(30, 12, &rng_a, [&](int idx) { from_warmed.push_back(idx); });
  fresh.Draw(30, 12, &rng_b, [&](int idx) { from_fresh.push_back(idx); });
  EXPECT_EQ(from_warmed, from_fresh);
}

TEST(PartialShuffler, UniformMarginals) {
  // Every index should be drawn with probability k/n = 1/4.
  PartialShuffler shuffler;
  Rng rng(8);
  std::vector<int> hits(40, 0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    shuffler.Draw(40, 10, &rng, [&](int idx) { ++hits[idx]; });
  }
  for (int idx = 0; idx < 40; ++idx) {
    EXPECT_NEAR(hits[idx] / static_cast<double>(trials), 0.25, 0.05)
        << "index " << idx;
  }
}

TEST(WeightedWorSelector, MatchesAllocatingSamplerExactly) {
  // Same Rng stream consumption as WeightedSampleWithoutReplacement ⇒ the
  // same seed must select the same index SET.
  const std::vector<double> weights{5.0, 1.0, 0.0, 2.0, 2.0, 0.5, 3.0};
  WeightedWorSelector selector;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng_a(seed);
    Rng rng_b(seed);
    const std::vector<int> reference =
        WeightedSampleWithoutReplacement(weights, 3, &rng_a);
    std::set<int> selected;
    selector.Draw(weights, 3, &rng_b, [&](int idx) { selected.insert(idx); });
    EXPECT_EQ(selected, std::set<int>(reference.begin(), reference.end()))
        << "seed " << seed;
  }
}

TEST(WeightedWorSelector, SkipsZeroWeightsAndClamps) {
  const std::vector<double> weights{0.0, 1.0, 0.0, 1.0};
  WeightedWorSelector selector;
  Rng rng(9);
  std::set<int> selected;
  selector.Draw(weights, 10, &rng, [&](int idx) { selected.insert(idx); });
  EXPECT_EQ(selected, (std::set<int>{1, 3}));
}

TEST(WeightedWorSelector, FullDrawIsAPermutation) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  WeightedWorSelector selector;
  Rng rng(10);
  std::set<int> selected;
  int calls = 0;
  selector.Draw(weights, 4, &rng, [&](int idx) {
    selected.insert(idx);
    ++calls;
  });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(selected, (std::set<int>{0, 1, 2, 3}));
}

enum class Shape {
  kAscending,
  kDescending,
  kRandom,
  kAllEqual,
  kZerosInterleaved,
  kHeavyLast,
  kSpanning,
};

std::vector<double> FuzzWeights(Shape shape, int n, Rng* rng) {
  const double lambda = 1.0 + 9.0 * rng->NextDouble();
  std::vector<double> weights(static_cast<size_t>(n), 1.0);
  switch (shape) {
    case Shape::kAscending:
      return ExponentialPublicity(n, -lambda);
    case Shape::kDescending:
      return ExponentialPublicity(n, lambda);
    case Shape::kRandom:
      for (double& w : weights) w = rng->NextDouble();
      break;
    case Shape::kAllEqual:
      break;
    case Shape::kZerosInterleaved:
      for (size_t i = 0; i < weights.size(); ++i) {
        weights[i] = i % 3 == 1 ? 0.0 : 0.5 + rng->NextDouble();
      }
      break;
    case Shape::kHeavyLast:
      weights.back() = 1e4;
      break;
    case Shape::kSpanning:
      // log-uniform over [1e-300, 1e6]
      for (double& w : weights) {
        w = std::pow(10.0, -300.0 + 306.0 * rng->NextDouble());
      }
      break;
  }
  return weights;
}

TEST(WeightedWorSelector, FuzzMatchesTheReferenceLoopExactly) {
  // The rejection test may skip a log only where the reference loop's
  // comparison would reject the item anyway: same selection, same heap
  // order, same Rng consumption (the next draw agrees), for the selector and
  // for the ordered wrapper.
  const Shape shapes[] = {Shape::kAscending,        Shape::kDescending,
                          Shape::kRandom,           Shape::kAllEqual,
                          Shape::kZerosInterleaved, Shape::kHeavyLast,
                          Shape::kSpanning};
  const int sizes[] = {1, 2, 63, 64, 65, 129, 700, 3000};
  WeightedWorSelector selector;
  Rng fuzz(2024);
  int cases = 0;
  for (Shape shape : shapes) {
    for (int n : sizes) {
      for (int trial = 0; trial < 12; ++trial) {
        const std::vector<double> weights = FuzzWeights(shape, n, &fuzz);
        const int drawable = static_cast<int>(
            std::count_if(weights.begin(), weights.end(),
                          [](double w) { return w > 0.0; }));
        const int middle = 1 + static_cast<int>(fuzz.NextBounded(
                                   static_cast<uint64_t>(drawable)));
        for (int k : {0, 1, drawable - 1, drawable, drawable + 3, middle}) {
          if (k < 0) continue;
          const uint64_t seed = fuzz.NextUint64();
          ++cases;

          Rng reference_rng(seed);
          std::vector<int> expected;
          for (const auto& [log_key, index] :
               ReferenceSelect(weights, k, &reference_rng)) {
            expected.push_back(index);
          }
          Rng rng(seed);
          std::vector<int> visited;
          selector.Draw(weights, k, &rng,
                        [&](int index) { visited.push_back(index); });
          ASSERT_EQ(visited, expected)
              << "shape " << static_cast<int>(shape) << " n " << n << " k "
              << k << " seed " << seed;
          ASSERT_EQ(rng.NextUint64(), reference_rng.NextUint64());

          Rng reference_wrapper_rng(seed);
          Rng wrapper_rng(seed);
          ASSERT_EQ(WeightedSampleWithoutReplacement(weights, k, &wrapper_rng),
                    ReferenceSampleWithoutReplacement(weights, k,
                                                      &reference_wrapper_rng))
              << "shape " << static_cast<int>(shape) << " n " << n << " k "
              << k << " seed " << seed;
          ASSERT_EQ(wrapper_rng.NextUint64(),
                    reference_wrapper_rng.NextUint64());
        }
      }
    }
  }
  EXPECT_GT(cases, 3000);
}

}  // namespace
}  // namespace uuq
