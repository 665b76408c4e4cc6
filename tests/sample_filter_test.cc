// IntegratedSample::Filter rebuilds a sub-sample in index space. Its
// contract is bit-identity with the per-observation replay it replaced:
// feeding the kept observations, in arrival order, through Add(). That
// replay lives here as the oracle, and every public accessor of the two
// results is compared bit for bit across fusion policies, stream shapes and
// predicates. The one exception is ApproxBytes(): Filter sizes its
// containers to fit, so it may only report less than the replay. Filter
// fuses nothing: it copies each kept entity's fusion state, so later Add()
// calls, compared against the replay's too, fuse as they would there.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/estimate.h"
#include "integration/sample.h"

namespace uuq {
namespace {

using Keep = std::function<bool(const EntityStat&)>;

// The oracle: the per-observation replay through Add().
IntegratedSample ReplayFilter(const IntegratedSample& sample,
                              const Keep& keep) {
  IntegratedSample out(sample.policy());
  for (const RawObservation& entry : sample.raw_log()) {
    const EntityStat& entity =
        sample.entities()[static_cast<size_t>(entry.entity_index)];
    if (!keep(entity)) continue;
    out.Add(sample.source_names()[static_cast<size_t>(entry.source_index)],
            entity.key, entry.value, entity.category);
  }
  return out;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Every public accessor but ApproxBytes(), bitwise.
void ExpectBitIdentical(const IntegratedSample& got,
                        const IntegratedSample& want) {
  ASSERT_EQ(got.policy(), want.policy());
  EXPECT_EQ(got.n(), want.n());
  ASSERT_EQ(got.c(), want.c());
  EXPECT_EQ(Bits(got.ObservedSum()), Bits(want.ObservedSum()));
  EXPECT_EQ(Bits(SampleStats::FromSample(got).singleton_sum),
            Bits(SampleStats::FromSample(want).singleton_sum));

  for (size_t i = 0; i < want.entities().size(); ++i) {
    const EntityStat& a = got.entities()[i];
    const EntityStat& b = want.entities()[i];
    EXPECT_EQ(a.key, b.key) << "entity " << i;
    EXPECT_EQ(Bits(a.value), Bits(b.value)) << "entity " << i;
    EXPECT_EQ(a.multiplicity, b.multiplicity) << "entity " << i;
    EXPECT_EQ(a.category, b.category) << "entity " << i;
  }

  ASSERT_EQ(got.raw_log().size(), want.raw_log().size());
  for (size_t i = 0; i < want.raw_log().size(); ++i) {
    const RawObservation& a = got.raw_log()[i];
    const RawObservation& b = want.raw_log()[i];
    EXPECT_EQ(a.source_index, b.source_index) << "observation " << i;
    EXPECT_EQ(a.entity_index, b.entity_index) << "observation " << i;
    EXPECT_EQ(Bits(a.value), Bits(b.value)) << "observation " << i;
  }

  EXPECT_EQ(got.source_names(), want.source_names());
  EXPECT_EQ(got.source_sizes(), want.source_sizes());
  EXPECT_EQ(got.num_sources(), want.num_sources());
  EXPECT_EQ(got.SourceSizeVector(), want.SourceSizeVector());
  EXPECT_EQ(got.Categories(), want.Categories());

  const FrequencyStatistics fa = got.Fstats();
  const FrequencyStatistics fb = want.Fstats();
  EXPECT_EQ(fa.n(), fb.n());
  EXPECT_EQ(fa.c(), fb.c());
  EXPECT_EQ(fa.histogram(), fb.histogram());
  EXPECT_EQ(fa.SumIiMinusOneFi(), fb.SumIiMinusOneFi());
}

// A Filter result against its replay: bit-identical, and no larger.
void ExpectFilterMatchesReplay(const IntegratedSample& got,
                               const IntegratedSample& want) {
  ExpectBitIdentical(got, want);
  EXPECT_LE(got.ApproxBytes(), want.ApproxBytes());
}

enum class Shape { kRandom, kTieHeavy, kCategorised };

// A seeded observation stream. kRandom draws continuous values over a wide
// range; kTieHeavy repeats a few entities with values from {1, 2, 3} so
// majority fusion meets ties; kCategorised attaches categories, often only
// on a later observation, so the first-non-empty rule matters.
IntegratedSample MakeSample(FusionPolicy policy, Shape shape, uint64_t seed) {
  Rng rng(seed);
  const int64_t entities = shape == Shape::kTieHeavy ? 12 : 80;
  const int64_t sources = rng.NextInt(2, 9);
  const int64_t observations = rng.NextInt(1, 400);
  IntegratedSample sample(policy);
  for (int64_t i = 0; i < observations; ++i) {
    // Skewed entity choice: low ids recur, high ids stay rare.
    const int64_t e = rng.NextInt(0, rng.NextInt(0, entities - 1));
    const std::string source =
        "src" + std::to_string(rng.NextInt(0, sources - 1));
    double value = 0.0;
    std::string category;
    switch (shape) {
      case Shape::kRandom:
        value = rng.NextUniform(-1e6, 1e6) * rng.NextDouble();
        break;
      case Shape::kTieHeavy:
        value = static_cast<double>(rng.NextInt(1, 3));
        break;
      case Shape::kCategorised:
        value = rng.NextUniform(0.0, 1000.0);
        if (rng.NextBernoulli(0.5)) {
          category = "cat" + std::to_string(e % 4);
        }
        break;
    }
    // Mixed case and padding exercise key normalization in Add().
    const std::string key = (e % 2 == 0 ? " Entity " : "entity  ") +
                            std::to_string(e);
    sample.Add(source, key, value, category);
  }
  return sample;
}

// A keep predicate over a random entity subset, decided up front so every
// call on the same entity answers the same.
Keep RandomSubset(const IntegratedSample& sample, double p, uint64_t seed) {
  Rng rng(seed);
  auto kept = std::make_shared<std::set<std::string>>();
  for (const EntityStat& e : sample.entities()) {
    if (rng.NextBernoulli(p)) kept->insert(e.key);
  }
  return [kept](const EntityStat& e) { return kept->count(e.key) > 0; };
}

constexpr FusionPolicy kPolicies[] = {FusionPolicy::kAverage,
                                      FusionPolicy::kFirst,
                                      FusionPolicy::kLast,
                                      FusionPolicy::kMajority};
constexpr Shape kShapes[] = {Shape::kRandom, Shape::kTieHeavy,
                             Shape::kCategorised};

TEST(SampleFilter, MatchesAddReplayBitForBit) {
  for (FusionPolicy policy : kPolicies) {
    for (Shape shape : kShapes) {
      for (uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(testing::Message()
                     << "policy " << static_cast<int>(policy) << " shape "
                     << static_cast<int>(shape) << " seed " << seed);
        const IntegratedSample sample = MakeSample(policy, shape, seed);
        const std::vector<Keep> keeps = {
            [](const EntityStat&) { return false; },
            [](const EntityStat&) { return true; },
            RandomSubset(sample, 0.5, seed * 7919),
            RandomSubset(sample, 0.1, seed * 104729),
            [](const EntityStat& e) { return e.multiplicity >= 2; },
            [](const EntityStat& e) { return e.category == "cat1"; },
        };
        for (size_t k = 0; k < keeps.size(); ++k) {
          SCOPED_TRACE(testing::Message() << "predicate " << k);
          ExpectFilterMatchesReplay(sample.Filter(keeps[k]),
                                    ReplayFilter(sample, keeps[k]));
        }
      }
    }
  }
}

TEST(SampleFilter, FilterOfFilterMatchesReplayOfReplay) {
  for (FusionPolicy policy : kPolicies) {
    for (Shape shape : kShapes) {
      for (uint64_t seed = 21; seed <= 28; ++seed) {
        SCOPED_TRACE(testing::Message()
                     << "policy " << static_cast<int>(policy) << " shape "
                     << static_cast<int>(shape) << " seed " << seed);
        const IntegratedSample sample = MakeSample(policy, shape, seed);
        const Keep first = RandomSubset(sample, 0.7, seed);
        const Keep second = RandomSubset(sample, 0.6, seed + 1000);
        ExpectFilterMatchesReplay(
            sample.Filter(first).Filter(second),
            ReplayFilter(ReplayFilter(sample, first), second));
      }
    }
  }
}

// Feeds the same random observations to both samples: known and new
// entities, known and new sources. Continuous values make kAverage's
// summation order and kFirst/kLast's report order visible in the fused
// bits; {1, 2, 3} makes kMajority meet ties.
void AddSameObservations(IntegratedSample* a, IntegratedSample* b,
                         bool continuous, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < 60; ++i) {
    const std::string source = "src" + std::to_string(rng.NextInt(0, 10));
    // Skewed like MakeSample, so entities with several reports recur.
    const std::string key =
        "entity " + std::to_string(rng.NextInt(0, rng.NextInt(0, 90)));
    const double value = continuous
                             ? rng.NextUniform(-1e6, 1e6) * rng.NextDouble()
                             : static_cast<double>(rng.NextInt(1, 3));
    const std::string category =
        rng.NextBernoulli(0.3) ? "late" + std::to_string(i % 2) : "";
    a->Add(source, key, value, category);
    b->Add(source, key, value, category);
  }
}

// The filtered sample is a live sample: later Add() calls (known and new
// entities, known and new sources) behave exactly as on the replay. They
// fuse from the copied fusion state, so a state copied wrong shows in the
// fused bits: kAverage's running sum on continuous reports, kFirst's and
// kMajority's winner.
TEST(SampleFilter, AddAfterFilterMatchesAddAfterReplay) {
  for (FusionPolicy policy : kPolicies) {
    for (Shape shape : kShapes) {
      for (const bool continuous : {false, true}) {
        for (uint64_t seed = 40 + static_cast<uint64_t>(shape); seed < 80;
             seed += 8) {
          SCOPED_TRACE(testing::Message()
                       << "policy " << static_cast<int>(policy) << " shape "
                       << static_cast<int>(shape) << " continuous "
                       << continuous << " seed " << seed);
          const IntegratedSample sample = MakeSample(policy, shape, seed);
          const Keep keep = RandomSubset(sample, 0.5, seed);
          IntegratedSample filtered = sample.Filter(keep);
          IntegratedSample replayed = ReplayFilter(sample, keep);
          AddSameObservations(&filtered, &replayed, continuous, seed);
          ExpectBitIdentical(filtered, replayed);
        }
      }
    }
  }
}

TEST(SampleFilter, AddAfterFilterOfFilterMatchesAddAfterReplayOfReplay) {
  for (FusionPolicy policy : kPolicies) {
    for (Shape shape : kShapes) {
      const uint64_t seed = 50 + static_cast<uint64_t>(shape);
      SCOPED_TRACE(testing::Message() << "policy " << static_cast<int>(policy)
                                      << " shape " << static_cast<int>(shape));
      const IntegratedSample sample = MakeSample(policy, shape, seed);
      const Keep first = RandomSubset(sample, 0.8, seed);
      const Keep second = RandomSubset(sample, 0.7, seed + 1000);
      IntegratedSample filtered = sample.Filter(first).Filter(second);
      IntegratedSample replayed =
          ReplayFilter(ReplayFilter(sample, first), second);
      AddSameObservations(&filtered, &replayed, /*continuous=*/true, seed);
      ExpectBitIdentical(filtered, replayed);
    }
  }
}

// ObservedSum() and Fstats() are folds over entities(): φK has the bits of
// SampleStats' value_sum and the f-statistics its counts, for every fusion
// policy, NaN and ±inf reports included, on a sample, a filtered sample
// and a filtered sample that took further Add() calls.
TEST(SampleFilter, DerivedAggregatesMatchSampleStats) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                             -kInf, -0.0};
  for (FusionPolicy policy : kPolicies) {
    SCOPED_TRACE(testing::Message() << "policy " << static_cast<int>(policy));
    Rng rng(0x5eed + static_cast<uint64_t>(policy));
    IntegratedSample sample(policy);
    for (int i = 0; i < 300; ++i) {
      const int64_t e = rng.NextInt(0, rng.NextInt(0, 60));
      const double value = rng.NextBernoulli(0.1)
                               ? specials[rng.NextInt(0, 3)]
                               : rng.NextUniform(-1e3, 1e3);
      sample.Add("src" + std::to_string(rng.NextInt(0, 5)),
                 "e" + std::to_string(e), value);
    }
    IntegratedSample filtered = sample.Filter(RandomSubset(sample, 0.6, 7));
    const auto check = [](const IntegratedSample& s) {
      const SampleStats stats = SampleStats::FromSample(s);
      EXPECT_EQ(Bits(s.ObservedSum()), Bits(stats.value_sum));
      const FrequencyStatistics f = s.Fstats();
      EXPECT_EQ(f.n(), stats.n);
      EXPECT_EQ(f.c(), stats.c);
      EXPECT_EQ(f.singletons(), stats.f1);
      EXPECT_EQ(f.SumIiMinusOneFi(), stats.sum_mm1);
      EXPECT_EQ(f.n(), s.n());
      EXPECT_EQ(f.c(), s.c());
    };
    check(sample);
    check(filtered);
    filtered.Add("src9", "e3", kInf);
    filtered.Add("src0", "e61", std::numeric_limits<double>::quiet_NaN());
    check(filtered);
  }
}

TEST(SampleFilter, JudgesEachEntityExactlyOnce) {
  for (FusionPolicy policy : kPolicies) {
    const IntegratedSample sample =
        MakeSample(policy, Shape::kTieHeavy, 99);
    ASSERT_GT(sample.n(), sample.c());  // some entity has several reports
    std::vector<const EntityStat*> seen;
    const IntegratedSample filtered =
        sample.Filter([&seen](const EntityStat& e) {
          seen.push_back(&e);
          return e.multiplicity % 2 == 1;
        });
    ASSERT_EQ(static_cast<int64_t>(seen.size()), sample.c());
    // In entities() order, on the final fused state.
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], &sample.entities()[i]);
    }
    EXPECT_LE(filtered.c(), sample.c());
  }
}

TEST(SampleFilter, EmptySample) {
  const IntegratedSample empty;
  int calls = 0;
  const IntegratedSample filtered = empty.Filter([&calls](const EntityStat&) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0);
  ExpectBitIdentical(filtered, IntegratedSample());
  EXPECT_EQ(filtered.ApproxBytes(), IntegratedSample().ApproxBytes());
}

}  // namespace
}  // namespace uuq
