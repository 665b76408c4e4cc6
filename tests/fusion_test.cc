// Value fusion has one definition, integration/fusion.h: IntegratedSample
// folds each report into its entity's running state as it arrives, and the
// replicate folds replay the same steps. This suite compares every entity's
// fused value after every Add(), bit for bit, with the batch fold over the
// entity's whole report list (oracle::FuseReports) — for all four policies,
// with NaN, ±0, ±inf and tied reports — on a fresh sample, on a Filter()
// result, and on Add() after a filter. BitSelect and the running folds that
// use it are checked bit for bit against their ternary forms over special
// values, and replicate builds under every policy are pinned by digest.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/bit_select.h"
#include "common/random.h"
#include "fnv_digest.h"
#include "integration/fusion.h"
#include "integration/sample.h"
#include "integration/sample_stats.h"
#include "integration/sample_view.h"
#include "materialized_oracle.h"

namespace uuq {
namespace {

const FusionPolicy kPolicies[] = {FusionPolicy::kAverage, FusionPolicy::kFirst,
                                  FusionPolicy::kLast, FusionPolicy::kMajority};

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Mostly reports from a small pool of specials and repeats (ties, both
/// zeros, both infinities, NaN), sometimes a continuous value. −0.0 is
/// drawn often enough that entities whose every report is −0.0 occur: they
/// are where a sum started from +0.0 instead of the first report differs.
double DrawReport(Rng* rng) {
  if (rng->NextBernoulli(0.25)) return -0.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double pool[] = {std::numeric_limits<double>::quiet_NaN(),
                         kInf,
                         -kInf,
                         0.0,
                         -0.0,
                         1.0,
                         -1.0,
                         2.5,
                         1e300,
                         -1e300};
  constexpr size_t kPoolSize = sizeof(pool) / sizeof(pool[0]);
  if (rng->NextBernoulli(0.7)) return pool[rng->NextBounded(kPoolSize)];
  return rng->NextUniform(-1e3, 1e3);
}

void ExpectMatchesBatchFold(const IntegratedSample& sample,
                            const std::string& what) {
  const std::vector<std::vector<double>> reports =
      oracle::ReportsByEntity(sample);
  for (size_t e = 0; e < reports.size(); ++e) {
    const EntityStat& entity = sample.entities()[e];
    ASSERT_EQ(entity.multiplicity, static_cast<int64_t>(reports[e].size()))
        << what << " entity " << entity.key;
    ASSERT_EQ(Bits(entity.value),
              Bits(oracle::FuseReports(sample.policy(), reports[e])))
        << what << " entity " << entity.key;
  }
}

/// Adds `count` random observations over `entities` keys, checking every
/// entity after each Add().
void AddAndCheck(IntegratedSample* sample, Rng* rng, int count, int entities,
                 const std::string& what) {
  for (int i = 0; i < count; ++i) {
    sample->Add("src" + std::to_string(rng->NextBounded(6)),
                "e" + std::to_string(rng->NextBounded(
                          static_cast<uint64_t>(entities))),
                DrawReport(rng));
    ExpectMatchesBatchFold(*sample, what + " add " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Keeps a random subset of the sample's entities, drawn up front.
std::function<bool(const EntityStat&)> RandomSubset(
    const IntegratedSample& sample, Rng* rng) {
  std::set<std::string> kept;
  for (const EntityStat& e : sample.entities()) {
    if (rng->NextBernoulli(0.6)) kept.insert(e.key);
  }
  return [kept](const EntityStat& e) { return kept.count(e.key) > 0; };
}

std::string Label(FusionPolicy policy, int trial) {
  return "policy " + std::to_string(static_cast<int>(policy)) + " trial " +
         std::to_string(trial);
}

TEST(Fusion, EveryAddMatchesTheBatchFold) {
  Rng rng(0xF05E);
  for (int trial = 0; trial < 30; ++trial) {
    for (FusionPolicy policy : kPolicies) {
      IntegratedSample sample(policy);
      AddAndCheck(&sample, &rng, 1 + static_cast<int>(rng.NextBounded(120)),
                  1 + static_cast<int>(rng.NextBounded(20)),
                  Label(policy, trial));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Fusion, FilterAndAddAfterFilterMatchTheBatchFold) {
  Rng rng(0xF17E);
  for (int trial = 0; trial < 20; ++trial) {
    for (FusionPolicy policy : kPolicies) {
      const std::string label = Label(policy, trial);
      const int entities = 1 + static_cast<int>(rng.NextBounded(20));
      IntegratedSample sample(policy);
      AddAndCheck(&sample, &rng, 1 + static_cast<int>(rng.NextBounded(100)),
                  entities, label);
      IntegratedSample filtered = sample.Filter(RandomSubset(sample, &rng));
      ExpectMatchesBatchFold(filtered, label + " filtered");
      AddAndCheck(&filtered, &rng, 40, entities + 2, label + " filtered");
      IntegratedSample again = filtered.Filter(RandomSubset(filtered, &rng));
      ExpectMatchesBatchFold(again, label + " filtered twice");
      AddAndCheck(&again, &rng, 20, entities + 4, label + " filtered twice");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Fusion, SignedZerosKeepTheFirstReportsBits) {
  // kAverage folds from the first report, so only a +0.0 among the reports
  // turns an all-zero entity positive; kMajority matches reports with ==,
  // so ±0 share one slot, which keeps its first arrival's bits.
  struct Case {
    FusionPolicy policy;
    std::vector<double> reports;
    double fused;
  };
  const Case cases[] = {
      {FusionPolicy::kAverage, {-0.0}, -0.0},
      {FusionPolicy::kAverage, {-0.0, -0.0}, -0.0},
      {FusionPolicy::kAverage, {-0.0, -0.0, -0.0}, -0.0},
      {FusionPolicy::kAverage, {-0.0, 0.0}, 0.0},
      {FusionPolicy::kAverage, {0.0, -0.0}, 0.0},
      {FusionPolicy::kMajority, {-0.0, 0.0, 0.0}, -0.0},
      {FusionPolicy::kMajority, {0.0, -0.0}, 0.0},
      {FusionPolicy::kFirst, {-0.0, 0.0}, -0.0},
      {FusionPolicy::kLast, {0.0, -0.0}, -0.0},
  };
  for (const Case& c : cases) {
    IntegratedSample sample(c.policy);
    for (size_t i = 0; i < c.reports.size(); ++i) {
      sample.Add("s" + std::to_string(i), "z", c.reports[i]);
    }
    ASSERT_EQ(sample.c(), 1);
    EXPECT_EQ(Bits(sample.entities()[0].value), Bits(c.fused))
        << "policy " << static_cast<int>(c.policy) << ", "
        << c.reports.size() << " reports";
    EXPECT_EQ(Bits(oracle::FuseReports(c.policy, c.reports)), Bits(c.fused));
  }
}

/// Special doubles for the bitwise select checks: both zeros, both
/// infinities, NaNs of both signs and with a payload, a signaling NaN, the
/// smallest subnormal and the extremes, built at run time.
std::vector<double> SpecialValues() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                -2.5,
                                1e-300,
                                kInf,
                                -kInf,
                                std::numeric_limits<double>::quiet_NaN(),
                                -std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::signaling_NaN(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest()};
  const uint64_t payload_nan_bits = 0x7ff8000000000123ull;
  double payload_nan = 0.0;
  std::memcpy(&payload_nan, &payload_nan_bits, sizeof(payload_nan));
  values.push_back(payload_nan);
  return values;
}

/// FuseStep as ternaries: the first report starts the accumulator.
double TernaryFuseStep(FusionPolicy policy, bool first, double acc,
                       double v) {
  switch (policy) {
    case FusionPolicy::kAverage:
      return first ? v : acc + v;
    case FusionPolicy::kLast:
      return v;
    default:  // kFirst
      return first ? v : acc;
  }
}

/// SampleStats::Add with the singleton term as a ternary.
SampleStats TernaryAdd(SampleStats stats, const EntityPoint& point) {
  const int64_t m = point.multiplicity;
  if (m <= 0) return stats;
  stats.n += m;
  stats.c += 1;
  stats.f1 += m == 1 ? 1 : 0;
  stats.singleton_sum += m == 1 ? point.value : 0.0;
  stats.sum_mm1 += m * (m - 1);
  stats.value_sum += point.value;
  stats.value_sum_sq += point.value * point.value;
  return stats;
}

/// The bits of two sums, or only their NaN-ness when both addends were
/// NaN: IEEE 754 leaves which payload such a sum carries to the operand
/// order, and the compiler may commute an addition.
void ExpectSameSum(double a, double b, bool nan_plus_nan,
                   const std::string& what) {
  if (nan_plus_nan) {
    EXPECT_TRUE(std::isnan(a) && std::isnan(b)) << what;
  } else {
    EXPECT_EQ(Bits(a), Bits(b)) << what;
  }
}

void ExpectSameStats(const SampleStats& a, const SampleStats& b,
                     bool nan_plus_nan, const std::string& what) {
  EXPECT_EQ(a.n, b.n) << what;
  EXPECT_EQ(a.c, b.c) << what;
  EXPECT_EQ(a.f1, b.f1) << what;
  EXPECT_EQ(a.sum_mm1, b.sum_mm1) << what;
  ExpectSameSum(a.value_sum, b.value_sum, nan_plus_nan, what);
  ExpectSameSum(a.value_sum_sq, b.value_sum_sq, nan_plus_nan, what);
  ExpectSameSum(a.singleton_sum, b.singleton_sum, nan_plus_nan, what);
}

TEST(Fusion, BitSelectReturnsTheChosenOperandsBits) {
  const std::vector<double> values = SpecialValues();
  for (double a : values) {
    for (double b : values) {
      for (bool pick : {true, false}) {
        EXPECT_EQ(Bits(BitSelect(pick, a, b)), Bits(pick ? a : b))
            << std::hex << "pick " << pick << " a 0x" << Bits(a) << " b 0x"
            << Bits(b);
      }
    }
  }
}

TEST(Fusion, FuseStepMatchesItsTernaryFormBitForBit) {
  // Every accumulator, stale ones (NaN, ±inf) included, against every
  // report, on the first and on a later report.
  const std::vector<double> values = SpecialValues();
  for (FusionPolicy policy : {FusionPolicy::kAverage, FusionPolicy::kFirst,
                              FusionPolicy::kLast}) {
    for (bool first : {true, false}) {
      for (double acc : values) {
        for (double v : values) {
          std::ostringstream what;
          what << "policy " << static_cast<int>(policy) << " first " << first
               << std::hex << " acc 0x" << Bits(acc) << " v 0x" << Bits(v);
          ExpectSameSum(FuseStep(policy, first, acc, v),
                        TernaryFuseStep(policy, first, acc, v),
                        policy == FusionPolicy::kAverage && !first &&
                            std::isnan(acc) && std::isnan(v),
                        what.str());
        }
      }
    }
  }
}

TEST(Fusion, StatsAddMatchesItsTernaryFormBitForBit) {
  // Every point value and multiplicity (skipped ones included) into
  // accumulators whose sums hold every special value.
  const std::vector<double> values = SpecialValues();
  for (double sum : values) {
    SampleStats start;
    start.n = 7;
    start.c = 3;
    start.f1 = 1;
    start.sum_mm1 = 12;
    start.value_sum = sum;
    start.value_sum_sq = sum;
    start.singleton_sum = sum;
    for (double value : values) {
      for (int64_t m : {-1, 0, 1, 2, 5}) {
        const EntityPoint point{value, m};
        SampleStats added = start;
        added.Add(point);
        ExpectSameStats(added, TernaryAdd(start, point),
                        std::isnan(sum) && std::isnan(value),
                        "m " + std::to_string(m) + " value bits " +
                            std::to_string(Bits(value)) + " sum bits " +
                            std::to_string(Bits(sum)));
      }
    }
  }
}

/// A 320-report stream over 70 entities and 9 sources. Source "s0" reports
/// the specials (NaN, ±inf and both zeros); the others report finite
/// values, −0.0 and +0.0 among them. Replicates that leave "s0" out keep
/// finite sums, so the digest sees every sum bit there.
IntegratedSample SpecialValueStream(FusionPolicy policy) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             kInf, -kInf, 0.0, -0.0, 3.0};
  const double finite[] = {-0.0, 0.0, 1.0, -1.0, 2.5, 1e3};
  Rng rng(0xF05E5EED);
  IntegratedSample sample(policy);
  for (int i = 0; i < 320; ++i) {
    const uint64_t source = rng.NextBounded(9);
    const std::string entity = "e" + std::to_string(rng.NextBounded(70));
    double value;
    if (source == 0) {
      value = specials[rng.NextBounded(6)];
    } else if (rng.NextBernoulli(0.5)) {
      value = finite[rng.NextBounded(6)];
    } else {
      value = rng.NextUniform(-1e3, 1e3);
    }
    sample.Add("s" + std::to_string(source), entity, value);
  }
  return sample;
}

void AddStats(const SampleStats& s, Fnv1aDigest* d) {
  d->Int(s.n);
  d->Int(s.c);
  d->Int(s.f1);
  d->Int(s.sum_mm1);
  d->Dbl(s.value_sum);
  d->Dbl(s.value_sum_sq);
  d->Dbl(s.singleton_sum);
}

/// Every field of a built replicate: policy, entities, stats, source sizes.
void AddReplicate(const ReplicateSample& rep, Fnv1aDigest* d) {
  d->Int(static_cast<int64_t>(rep.policy));
  d->Int(static_cast<int64_t>(rep.entities.size()));
  for (const EntityPoint& point : rep.entities) {
    d->Dbl(point.value);
    d->Int(point.multiplicity);
  }
  d->Int(rep.stats.has_value());
  if (rep.stats.has_value()) AddStats(*rep.stats, d);
  d->Int(static_cast<int64_t>(rep.source_sizes.size()));
  for (const int64_t size : rep.source_sizes) d->Int(size);
}

// Absolute bits of ingest and of the replicate builds under every fusion
// policy. The columnar ≡ materialized checks run the same fusion step and
// stats fold on both sides, so only a pin sees a change to those: the
// sample's fused entities and FromSample stats, six bootstrap replicates
// and every leave-one-out.
TEST(Fusion, ReplicateBuildDigestsArePinned) {
  struct Pin {
    FusionPolicy policy;
    uint64_t digest;
  };
  const Pin pins[] = {
      {FusionPolicy::kAverage, 0xe1fa6ff749554446ull},
      {FusionPolicy::kFirst, 0xd43da4a7c1c51a04ull},
      {FusionPolicy::kLast, 0x0e270940668af911ull},
      {FusionPolicy::kMajority, 0xac596a01d7c2b8eaull},
  };
  for (const Pin& pin : pins) {
    const IntegratedSample sample = SpecialValueStream(pin.policy);
    ASSERT_EQ(sample.num_sources(), 9);
    Fnv1aDigest digest;
    for (const EntityStat& entity : sample.entities()) {
      digest.Dbl(entity.value);
      digest.Int(entity.multiplicity);
    }
    AddStats(SampleStats::FromSample(sample), &digest);

    const SampleView view(sample);
    ReplicateScratch scratch;
    ReplicateSample rep;
    Rng rng(0xB007);
    std::vector<int32_t> draws;
    for (int r = 0; r < 6; ++r) {
      view.DrawBootstrapSources(&rng, &draws);
      view.BuildReplicate(draws, &scratch, &rep);
      AddReplicate(rep, &digest);
    }
    for (int32_t excluded = 0; excluded < 9; ++excluded) {
      view.BuildLeaveOneOut(excluded, &scratch, &rep);
      AddReplicate(rep, &digest);
    }
    EXPECT_EQ(digest.value(), pin.digest)
        << std::hex << "policy " << static_cast<int>(pin.policy) << ": 0x"
        << digest.value();
  }
}

}  // namespace
}  // namespace uuq
