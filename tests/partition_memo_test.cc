// Fuzz suite for the dynamic split scan.
//
// The reference below is the exhaustive scan: every bucket re-walks its cut
// list and evaluates BOTH |Δ| halves of every candidate with the inner
// estimator's scalar FromStats — no memo, no kernel. The production
// DynamicPartitioner (in-place per-row memo, one DeltaFromPrefixSide pass
// per side, the cut chosen among the candidates the kernel lists) must
// produce bit-identical bucket boundaries — and, through the bootstrap,
// bit-identical interval endpoints — on every input we can throw at it:
// random, tie-heavy, constant-value, single-entity, all-singleton (infinite
// deltas), negative values, and bootstrap replicates through one warm
// scratch. The fold's own adversarial cases are in delta_batch_test, and
// certified_scan_test checks the scan against the exact oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/bootstrap.h"
#include "core/bucket.h"
#include "core/frequency.h"
#include "core/naive.h"
#include "index_oracle.h"
#include "integration/sample.h"
#include "integration/sample_view.h"
#include "materialized_oracle.h"

namespace uuq {
namespace {

/// |Δ| of a slice, normalized like the production scan (0 for an empty
/// slice, +inf for a non-finite Δ).
double RefAbsDelta(const StatsSumEstimator& inner, const SampleStats& stats) {
  if (stats.empty()) return 0.0;
  const double delta = inner.FromStats(stats).delta;
  if (!std::isfinite(delta)) return std::numeric_limits<double>::infinity();
  return std::fabs(delta);
}

/// The exhaustive scan: FIFO worklist, fresh per-bucket delta, full
/// two-half evaluation of every candidate, first-minimum tie-break. When
/// `memo_lanes` is set it receives the kernel lanes the memoized scan must
/// evaluate: both halves of every candidate at the root, one half in every
/// other bucket, and nothing in a bucket whose whole scan is skipped
/// (delta_rest ≥ δmin).
std::vector<size_t> ReferenceDynamicPartition(const SortedEntityIndex& index,
                                              const StatsSumEstimator& inner,
                                              int64_t* memo_lanes = nullptr) {
  if (memo_lanes != nullptr) *memo_lanes = 0;
  const size_t size = index.size();
  std::vector<size_t> bounds;
  if (size == 0) {
    bounds = {0, 0};
    return bounds;
  }

  // |Δ| of the points [begin, end).
  const auto abs_delta = [&index, &inner](size_t begin, size_t end) {
    return RefAbsDelta(inner, oracle::SlicePoints(index, begin, end));
  };
  std::vector<std::pair<size_t, size_t>> todo;
  std::vector<std::pair<size_t, size_t>> done;
  double delta_min = abs_delta(0, size);
  todo.push_back({0, size});

  for (size_t head = 0; head < todo.size(); ++head) {
    const auto [b_begin, b_end] = todo[head];
    const double b_delta = abs_delta(b_begin, b_end);
    double delta_rest;
    if (std::isinf(b_delta) || std::isinf(delta_min)) {
      delta_rest = 0.0;
      for (const auto& r : done) {
        delta_rest += abs_delta(r.first, r.second);
      }
      for (size_t i = head + 1; i < todo.size(); ++i) {
        delta_rest += abs_delta(todo[i].first, todo[i].second);
      }
      delta_min = delta_rest + b_delta;
    } else {
      delta_rest = delta_min - b_delta;
    }

    std::vector<size_t> cuts;
    {
      size_t cut = b_begin < size ? oracle::UpperBoundOfValueAt(index, b_begin)
                                  : b_end;
      while (cut < b_end) {
        cuts.push_back(cut);
        cut = oracle::UpperBoundOfValueAt(index, cut);
      }
    }
    if (memo_lanes != nullptr && delta_rest < delta_min) {
      *memo_lanes += static_cast<int64_t>(cuts.size()) * (head == 0 ? 2 : 1);
    }
    bool found = false;
    size_t best_cut = 0;
    for (size_t cut : cuts) {
      const double candidate =
          delta_rest + abs_delta(b_begin, cut) + abs_delta(cut, b_end);
      if (candidate < delta_min) {
        delta_min = candidate;
        best_cut = cut;
        found = true;
      }
    }
    if (found) {
      todo.push_back({b_begin, best_cut});
      todo.push_back({best_cut, b_end});
    } else {
      done.push_back({b_begin, b_end});
    }
  }

  std::sort(done.begin(), done.end());
  bounds.push_back(0);
  for (const auto& r : done) bounds.push_back(r.second);
  return bounds;
}

/// One partition scratch shared by every comparison in this file, so each
/// test also runs the scan on a scratch warmed by indexes of other sizes.
PartitionScratch& SharedScratch() {
  static PartitionScratch scratch;
  return scratch;
}

void ExpectSamePartition(const SortedEntityIndex& index,
                         const StatsSumEstimator& inner,
                         const std::string& what) {
  const std::vector<size_t> expected = ReferenceDynamicPartition(index, inner);
  const DynamicPartitioner dynamic;
  ASSERT_EQ(dynamic.Partition(index, inner), expected) << what << " [fresh]";
  std::vector<size_t> bounds;
  dynamic.PartitionInto(index, inner, &SharedScratch(), &bounds);
  ASSERT_EQ(oracle::PointBounds(index, bounds), expected)
      << what << " [warm scratch]";
}

SortedEntityIndex IndexOf(const std::vector<EntityPoint>& points) {
  return SortedEntityIndex(std::vector<EntityPoint>(points));
}

TEST(PartitionMemoFuzz, RandomSamplesMatchExhaustiveScan) {
  Rng rng(0xF42);
  const NaiveEstimator naive;
  const FrequencyEstimator freq;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(400));
    std::vector<EntityPoint> points;
    points.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      points.push_back({rng.NextUniform(-100.0, 1000.0),
                        1 + static_cast<int64_t>(rng.NextBounded(5))});
    }
    const SortedEntityIndex index = IndexOf(points);
    ExpectSamePartition(index, naive, "random/naive trial " +
                                          std::to_string(trial));
    ExpectSamePartition(index, freq,
                        "random/freq trial " + std::to_string(trial));
  }
}

TEST(PartitionMemoFuzz, TieHeavySamplesMatchExhaustiveScan) {
  // Few distinct values, many multiplicity ties: stresses the equal-value
  // run boundaries (the only legal cuts) and the first-minimum tie-break
  // among equal candidate totals.
  Rng rng(0xF43);
  const NaiveEstimator naive;
  const FrequencyEstimator freq;
  for (int trial = 0; trial < 40; ++trial) {
    const int distinct = 2 + static_cast<int>(rng.NextBounded(6));
    const int n = 20 + static_cast<int>(rng.NextBounded(300));
    std::vector<EntityPoint> points;
    for (int i = 0; i < n; ++i) {
      points.push_back(
          {static_cast<double>(rng.NextBounded(distinct)) * 10.0,
           1 + static_cast<int64_t>(rng.NextBounded(3))});
    }
    const SortedEntityIndex index = IndexOf(points);
    ExpectSamePartition(index, naive,
                        "tie-heavy/naive trial " + std::to_string(trial));
    ExpectSamePartition(index, freq,
                        "tie-heavy/freq trial " + std::to_string(trial));
  }
}

TEST(PartitionMemoFuzz, ConstantValueSampleIsOneBucket) {
  const NaiveEstimator naive;
  const FrequencyEstimator freq;
  std::vector<EntityPoint> points(50, EntityPoint{7.5, 2});
  points[10].multiplicity = 1;
  const SortedEntityIndex index = IndexOf(points);
  ExpectSamePartition(index, naive, "constant-value/naive");
  ExpectSamePartition(index, freq, "constant-value/freq");
  // No legal cut exists inside a single equal-value run.
  const std::vector<size_t> bounds =
      DynamicPartitioner().Partition(index, naive);
  EXPECT_EQ(bounds, (std::vector<size_t>{0, 50}));
}

TEST(PartitionMemoFuzz, SingleEntityAndEmptySamples) {
  const NaiveEstimator naive;
  const FrequencyEstimator freq;
  for (const StatsSumEstimator* inner :
       {static_cast<const StatsSumEstimator*>(&naive),
        static_cast<const StatsSumEstimator*>(&freq)}) {
    ExpectSamePartition(IndexOf({{3.0, 4}}), *inner, "single entity");
    ExpectSamePartition(IndexOf({{3.0, 1}}), *inner, "single singleton");
    ExpectSamePartition(SortedEntityIndex(std::vector<EntityPoint>{}), *inner,
                        "empty");
  }
}

TEST(PartitionMemoFuzz, AllSingletonSamplesExerciseInfiniteDeltas) {
  // Every slice is all-singletons, so every |Δ| is +inf: the scan must take
  // the infinity-aware delta_rest recomputation on every bucket and still
  // match the reference.
  Rng rng(0xF44);
  const NaiveEstimator naive;
  const FrequencyEstimator freq;
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(60));
    std::vector<EntityPoint> points;
    for (int i = 0; i < n; ++i) {
      points.push_back({rng.NextUniform(0.0, 50.0), 1});
    }
    const SortedEntityIndex index = IndexOf(points);
    ExpectSamePartition(index, naive,
                        "all-singleton/naive trial " + std::to_string(trial));
    ExpectSamePartition(index, freq,
                        "all-singleton/freq trial " + std::to_string(trial));
  }
}

TEST(PartitionMemoFuzz, BootstrapReplicatesThroughOneWarmScratch) {
  // The replicate path: indexes rebuilt through IndexScratch (incremental
  // re-sort) and partitioned through ONE partition scratch, replicates of
  // different sizes back to back — each must match the reference scan on
  // its own index, so nothing a previous partition left in the per-cut
  // memo can leak into the next.
  Rng rng(0xF45);
  IntegratedSample sample;
  for (int i = 0; i < 400; ++i) {
    sample.Add("s" + std::to_string(rng.NextBounded(12)),
               "e" + std::to_string(rng.NextBounded(150)),
               rng.NextUniform(-50.0, 500.0));
  }
  const SampleView view(sample);
  const NaiveEstimator naive;
  const FrequencyEstimator freq;
  const DynamicPartitioner dynamic;
  ReplicateScratch rscratch;
  ReplicateSample rep;
  IndexScratch iscratch;
  PartitionScratch pscratch;
  std::vector<size_t> bounds;
  size_t smallest = std::numeric_limits<size_t>::max();
  size_t largest = 0;
  for (int round = 0; round < 25; ++round) {
    std::vector<int32_t> draws;
    view.DrawBootstrapSources(&rng, &draws);
    view.BuildReplicate(draws, &rscratch, &rep);
    const SortedEntityIndex& index = iscratch.RebuildIndex(rep);
    smallest = std::min(smallest, index.size());
    largest = std::max(largest, index.size());
    const StatsSumEstimator& inner =
        round % 2 == 0 ? static_cast<const StatsSumEstimator&>(naive)
                       : static_cast<const StatsSumEstimator&>(freq);
    dynamic.PartitionInto(index, inner, &pscratch, &bounds);
    EXPECT_EQ(oracle::PointBounds(index, bounds),
              ReferenceDynamicPartition(index, inner))
        << "replicate round " << round;
  }
  EXPECT_LT(smallest, largest) << "replicates never varied in size";
}

/// Naive estimator that counts its side-kernel lanes and, given a cancel
/// source, fires it on its `fire_at`-th side call (the partitioner polls the
/// token once per worklist bucket).
class CountingNaive final : public StatsSumEstimator {
 public:
  explicit CountingNaive(CancelSource* source = nullptr, int fire_at = 0)
      : source_(source), fire_at_(fire_at) {}
  std::string name() const override { return naive_.name(); }
  Estimate FromStats(const SampleStats& stats) const override {
    return naive_.FromStats(stats);
  }
  void DeltaFromPrefixSide(const PrefixSideView& side,
                           double* out) const override {
    lanes_.fetch_add(static_cast<int64_t>(side.size),
                     std::memory_order_relaxed);
    if (calls_.fetch_add(1, std::memory_order_relaxed) + 1 == fire_at_ &&
        source_ != nullptr) {
      source_->RequestCancel();
    }
    naive_.DeltaFromPrefixSide(side, out);
  }
  int64_t lanes() const { return lanes_.load(std::memory_order_relaxed); }

 private:
  NaiveEstimator naive_;
  CancelSource* source_;
  int fire_at_;
  mutable std::atomic<int> calls_{0};
  mutable std::atomic<int64_t> lanes_{0};
};

/// Run boundaries of the index: the candidate cuts of the root scan.
int64_t CountCuts(const SortedEntityIndex& index) {
  int64_t cuts = 0;
  for (size_t i = 1; i < index.size(); ++i) {
    if (index.entities()[i].value != index.entities()[i - 1].value) ++cuts;
  }
  return cuts;
}

TEST(PartitionMemoFuzz, KernelLaneCountMatchesMemoizedReference) {
  // The per-cut memo is pinned as work: the scan evaluates exactly the
  // lanes the reference says a memoized scan needs (both halves at the
  // root, one half per child scan) — no side re-evaluated, none skipped —
  // and every lane goes through the side kernel.
  Rng rng(0xF48);
  int64_t total = 0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<EntityPoint> points;
    const int n = 20 + static_cast<int>(rng.NextBounded(400));
    for (int i = 0; i < n; ++i) {
      points.push_back({std::floor(rng.NextUniform(0.0, 2000.0)),
                        1 + static_cast<int64_t>(rng.NextBounded(4))});
    }
    const SortedEntityIndex index = IndexOf(points);
    const CountingNaive inner;
    int64_t expected = 0;
    const std::vector<size_t> reference =
        ReferenceDynamicPartition(index, inner, &expected);
    std::vector<size_t> bounds;
    DynamicPartitioner().PartitionInto(index, inner, &SharedScratch(),
                                       &bounds);
    const std::string what = "trial " + std::to_string(trial);
    EXPECT_EQ(oracle::PointBounds(index, bounds), reference) << what;
    EXPECT_EQ(inner.lanes(), expected) << what;
    EXPECT_GT(inner.lanes(), 0) << what;
    EXPECT_GE(inner.lanes(), CountCuts(index)) << what;
    total += inner.lanes();
  }
  EXPECT_GT(total, 0);
}

TEST(PartitionMemoFuzz, FiredCancelTokenReturnsValidCoarserPartition) {
  // A token firing mid-partition finalizes the pending buckets unsplit.
  // The splits already taken are the reference's first splits (same FIFO
  // order), so the result is a valid partition whose boundaries are a
  // subset of the converged one's.
  Rng rng(0xF47);
  const NaiveEstimator naive;
  int coarser = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<EntityPoint> points;
    const int n = 50 + static_cast<int>(rng.NextBounded(300));
    for (int i = 0; i < n; ++i) {
      points.push_back({rng.NextUniform(0.0, 1000.0),
                        1 + static_cast<int64_t>(rng.NextBounded(4))});
    }
    const SortedEntityIndex index = IndexOf(points);
    const std::vector<size_t> converged =
        ReferenceDynamicPartition(index, naive);
    const int fire_at = 1 + static_cast<int>(rng.NextBounded(4));
    CancelSource source;
    const CountingNaive inner(&source, fire_at);
    const DynamicPartitioner dynamic(source.token());
    const std::vector<size_t> bounds = dynamic.Partition(index, inner);

    const std::string what = "trial " + std::to_string(trial);
    // The root scan finishes before the first poll: a lane per candidate
    // cut at least, all through the side kernel.
    EXPECT_GT(inner.lanes(), 0) << what;
    EXPECT_GE(inner.lanes(), CountCuts(index)) << what;
    ASSERT_GE(bounds.size(), 2u) << what;
    EXPECT_EQ(bounds.front(), 0u) << what;
    EXPECT_EQ(bounds.back(), index.size()) << what;
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]) << what;
      if (i + 1 < bounds.size()) {
        // Every interior boundary sits on a run boundary.
        EXPECT_NE(index.entities()[bounds[i] - 1].value,
                  index.entities()[bounds[i]].value)
            << what;
      }
      EXPECT_TRUE(std::binary_search(converged.begin(), converged.end(),
                                     bounds[i]))
          << what << ": boundary " << bounds[i] << " not in the converged "
          << "partition";
    }
    if (bounds.size() < converged.size()) ++coarser;
  }
  EXPECT_GT(coarser, 0) << "cancellation never cut a partition short";
}

TEST(PartitionMemoFuzz, IntervalEndpointsBitIdenticalAcrossPathsAndThreads) {
  // End to end: the scan serves the columnar engine and the materializing
  // oracle alike, so columnar 1-thread, columnar 8-thread, and materialized
  // bootstrap intervals must all agree bit for bit.
  Rng rng(0xF46);
  IntegratedSample sample;
  for (int i = 0; i < 500; ++i) {
    sample.Add("s" + std::to_string(rng.NextBounded(15)),
               "e" + std::to_string(rng.NextBounded(200)),
               rng.NextUniform(0.0, 300.0));
  }
  const BucketSumEstimator bucket;
  ThreadPool serial(1);
  ThreadPool wide(8);
  BootstrapOptions options;
  options.replicates = 32;

  options.pool = &serial;
  const BootstrapInterval col1 = BootstrapCorrectedSum(sample, bucket, options);
  options.pool = &wide;
  const BootstrapInterval col8 = BootstrapCorrectedSum(sample, bucket, options);
  const oracle::Replicates mat = oracle::MaterializedBootstrap(
      sample, options, [&bucket](const IntegratedSample& rep) {
        return bucket.EstimateImpact(rep).corrected_sum;
      });

  EXPECT_EQ(col1.lo, col8.lo);
  EXPECT_EQ(col1.hi, col8.hi);
  EXPECT_EQ(col1.median, col8.median);
  EXPECT_EQ(col1.lo, mat.lo);
  EXPECT_EQ(col1.hi, mat.hi);
  EXPECT_EQ(col1.median, mat.median);
  EXPECT_EQ(oracle::SortedFinite(col1.by_replicate), mat.values);
}

}  // namespace
}  // namespace uuq
