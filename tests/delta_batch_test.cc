// Fuzz suite for the batched SoA Δ kernels.
//
// StatsSumEstimator::DeltaFromStatsBatch must be BIT-IDENTICAL to the
// scalar chain — NormalizedAbsDelta(DeltaFromStats(stats)) — on every lane,
// for every estimator with a specialized kernel (naive, frequency,
// freq-gt) and for the base-class fallback, across random / tie-heavy /
// all-singleton / constant-value slice populations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/bucket.h"
#include "core/estimate.h"
#include "core/frequency.h"
#include "core/naive.h"

namespace uuq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// SoA columns built from a vector of SampleStats via the StatsBatchView
/// cast convention (static_cast<double> of every count field).
struct Columns {
  std::vector<double> n, c, f1, mm1, value_sum, singleton_sum;

  explicit Columns(const std::vector<SampleStats>& stats) {
    for (const SampleStats& s : stats) {
      n.push_back(static_cast<double>(s.n));
      c.push_back(static_cast<double>(s.c));
      f1.push_back(static_cast<double>(s.f1));
      mm1.push_back(static_cast<double>(s.sum_mm1));
      value_sum.push_back(s.value_sum);
      singleton_sum.push_back(s.singleton_sum);
    }
  }

  StatsBatchView View() const {
    StatsBatchView view;
    view.size = n.size();
    view.n = n.data();
    view.c = c.data();
    view.f1 = f1.data();
    view.sum_mm1 = mm1.data();
    view.value_sum = value_sum.data();
    view.singleton_sum = singleton_sum.data();
    return view;
  }
};

/// The scalar reference for one lane: exactly what the split scan's AbsDelta
/// computes (0.0 for empty stats, fabs-or-inf otherwise).
double ScalarReference(const StatsSumEstimator& est, const SampleStats& s) {
  if (s.empty()) return 0.0;
  return NormalizedAbsDelta(est.DeltaFromStats(s));
}

void ExpectBatchMatchesScalar(const StatsSumEstimator& est,
                              const std::vector<SampleStats>& stats,
                              const std::string& what) {
  const Columns cols(stats);
  std::vector<double> out(stats.size(),
                          std::numeric_limits<double>::quiet_NaN());
  est.DeltaFromStatsBatch(cols.View(), out.data());
  for (size_t i = 0; i < stats.size(); ++i) {
    const double expected = ScalarReference(est, stats[i]);
    // Bit-identical: exact double equality (NaN is never legal —
    // non-finite deltas normalize to +inf).
    EXPECT_FALSE(std::isnan(out[i])) << what << " lane " << i;
    EXPECT_EQ(expected, out[i]) << what << " lane " << i << " of "
                                << stats.size();
  }
}

std::vector<SampleStats> RandomSliceStats(Rng* rng, int lanes,
                                          bool tie_heavy, bool all_singleton,
                                          bool constant_value) {
  // Build each lane's stats by folding a random entity slice — realistic,
  // internally consistent sufficient statistics (the only kind the scan
  // ever produces).
  std::vector<SampleStats> out;
  for (int lane = 0; lane < lanes; ++lane) {
    SampleStats s;
    const int entities = 1 + static_cast<int>(rng->NextBounded(40));
    const double constant = rng->NextUniform(-50.0, 50.0);
    for (int e = 0; e < entities; ++e) {
      const double value =
          constant_value ? constant
                         : rng->NextUniform(-100.0, 1000.0);
      int64_t mult = 1;
      if (!all_singleton) {
        mult = tie_heavy ? 1 + static_cast<int64_t>(rng->NextBounded(2))
                         : 1 + static_cast<int64_t>(rng->NextBounded(6));
      }
      s.Add(EntityPoint{value, mult});
    }
    out.push_back(s);
  }
  // A few hand-built degenerates per batch: empty lanes, inconsistent
  // hand-assembled lanes (n > 0, c == 0), and huge counts.
  out.push_back(SampleStats{});
  SampleStats inconsistent;
  inconsistent.n = 7;
  inconsistent.f1 = 2;
  inconsistent.value_sum = 123.5;
  out.push_back(inconsistent);
  SampleStats huge;
  huge.n = (int64_t{1} << 31);
  huge.c = (int64_t{1} << 30);
  huge.f1 = 12345;
  huge.sum_mm1 = (int64_t{1} << 33);
  huge.value_sum = 1e18;
  huge.singleton_sum = 1e12;
  out.push_back(huge);
  return out;
}

class DeltaBatchFuzz : public ::testing::Test {
 protected:
  NaiveEstimator naive_;
  FrequencyEstimator freq_;
  FrequencyEstimator freq_gt_{/*assume_uniform=*/true};

  std::vector<const StatsSumEstimator*> All() const {
    return {&naive_, &freq_, &freq_gt_};
  }
};

TEST_F(DeltaBatchFuzz, RandomSlicesBitIdentical) {
  Rng rng(0xBA7C4);
  for (int trial = 0; trial < 40; ++trial) {
    const auto stats = RandomSliceStats(&rng, 64, false, false, false);
    for (const StatsSumEstimator* est : All()) {
      ExpectBatchMatchesScalar(*est, stats,
                               est->name() + " random trial " +
                                   std::to_string(trial));
    }
  }
}

TEST_F(DeltaBatchFuzz, TieHeavySlicesBitIdentical) {
  Rng rng(0xBA7C5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto stats = RandomSliceStats(&rng, 48, true, false, false);
    for (const StatsSumEstimator* est : All()) {
      ExpectBatchMatchesScalar(*est, stats,
                               est->name() + " tie-heavy trial " +
                                   std::to_string(trial));
    }
  }
}

TEST_F(DeltaBatchFuzz, AllSingletonSlicesNormalizeToInfinity) {
  // Every slice all-singletons: Chao92 diverges, the scalar chain returns a
  // non-finite delta, and both paths must normalize it to exactly +inf.
  Rng rng(0xBA7C6);
  const auto stats = RandomSliceStats(&rng, 48, false, true, false);
  for (const StatsSumEstimator* est : All()) {
    ExpectBatchMatchesScalar(*est, stats, est->name() + " all-singleton");
  }
  const Columns cols(stats);
  std::vector<double> out(stats.size());
  naive_.DeltaFromStatsBatch(cols.View(), out.data());
  int infinities = 0;
  for (size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].n > 0 && stats[i].n == stats[i].f1 && out[i] == kInf) {
      ++infinities;
    }
  }
  EXPECT_GT(infinities, 0) << "fuzz population never exercised the "
                              "all-singleton divergence";
}

TEST_F(DeltaBatchFuzz, ConstantValueSlicesBitIdentical) {
  Rng rng(0xBA7C7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto stats = RandomSliceStats(&rng, 32, false, false, true);
    for (const StatsSumEstimator* est : All()) {
      ExpectBatchMatchesScalar(*est, stats,
                               est->name() + " constant-value trial " +
                                   std::to_string(trial));
    }
  }
}

TEST_F(DeltaBatchFuzz, BaseClassFallbackMatchesScalar) {
  // An estimator without a specialized kernel: the semantics-defining
  // default loop must satisfy the same contract.
  struct Halved final : public StatsSumEstimator {
    std::string name() const override { return "halved"; }
    Estimate FromStats(const SampleStats& stats) const override {
      Estimate est;
      est.estimator = name();
      est.delta = stats.value_sum * 0.5;
      return est;
    }
  } halved;
  Rng rng(0xBA7C8);
  const auto stats = RandomSliceStats(&rng, 48, false, false, false);
  ExpectBatchMatchesScalar(halved, stats, "fallback");
}

TEST_F(DeltaBatchFuzz, IndexPrefixSlicesBitIdentical) {
  // The split scan's gather: lanes built as differences of the index's
  // double prefix columns (both halves of every run-boundary cut) must
  // evaluate exactly like the scalar chain on Slice() of the same range.
  Rng rng(0xBA7CA);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<EntityPoint> points;
    const int n = 30 + static_cast<int>(rng.NextBounded(200));
    for (int i = 0; i < n; ++i) {
      points.push_back({std::floor(rng.NextUniform(-100.0, 500.0)),
                        1 + static_cast<int64_t>(rng.NextBounded(4))});
    }
    const SortedEntityIndex index{std::vector<EntityPoint>(points)};
    const SortedEntityIndex::Prefix& p = index.prefix();
    const size_t size = index.size();
    std::vector<double> ln, lc, lf1, lmm1, lvs, lss;
    std::vector<SampleStats> expected_stats;
    const auto add_lane = [&](size_t lo, size_t hi) {
      ln.push_back(p.n[hi] - p.n[lo]);
      lc.push_back(p.c[hi] - p.c[lo]);
      lf1.push_back(p.f1[hi] - p.f1[lo]);
      lmm1.push_back(p.sum_mm1[hi] - p.sum_mm1[lo]);
      lvs.push_back(p.value_sum[hi] - p.value_sum[lo]);
      lss.push_back(p.singleton_sum[hi] - p.singleton_sum[lo]);
      expected_stats.push_back(index.Slice(lo, hi));
    };
    for (size_t cut = 1; cut < size; ++cut) {
      if (index.entities()[cut].value == index.entities()[cut - 1].value) {
        continue;
      }
      add_lane(0, cut);
      add_lane(cut, size);
    }
    StatsBatchView view;
    view.size = ln.size();
    view.n = ln.data();
    view.c = lc.data();
    view.f1 = lf1.data();
    view.sum_mm1 = lmm1.data();
    view.value_sum = lvs.data();
    view.singleton_sum = lss.data();
    for (const StatsSumEstimator* est : All()) {
      std::vector<double> out(view.size);
      est->DeltaFromStatsBatch(view, out.data());
      for (size_t i = 0; i < view.size; ++i) {
        EXPECT_EQ(ScalarReference(*est, expected_stats[i]), out[i])
            << est->name() << " trial " << trial << " lane " << i;
      }
    }
  }
}

}  // namespace
}  // namespace uuq
