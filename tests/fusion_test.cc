// Value fusion has one definition, integration/fusion.h: IntegratedSample
// folds each report into its entity's running state as it arrives, and the
// replicate folds replay the same steps. This suite compares every entity's
// fused value after every Add(), bit for bit, with the batch fold over the
// entity's whole report list (oracle::FuseReports) — for all four policies,
// with NaN, ±0, ±inf and tied reports — on a fresh sample, on a Filter()
// result, and on Add() after a filter.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "integration/sample.h"
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

}  // namespace
}  // namespace uuq
