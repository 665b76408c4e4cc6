// Scratch-hygiene suite for the replicate-scratch engine (IndexScratch,
// PartitionScratch, the reusable SortedEntityIndex):
//
//  * interleaving bootstrap and jackknife replicates of DIFFERENT sizes
//    from DIFFERENT views through ONE scratch must give exactly the results
//    a fresh index evaluation gives — no stale prefix or histogram state
//    may leak between rebuilds;
//  * the canonical (value, multiplicity) point order — NaN-valued points
//    last — makes the scratch path's nearly-sorted rebuild of a rank-order
//    replicate bit-identical to a full sort of a freshly constructed index;
//  * once warm, a bucket replicate evaluation performs ZERO heap
//    allocations (counted via an operator new/delete hook).
//
// The ASan CI matrix entry (-fsanitize=address,undefined) runs this suite —
// and everything else — over the new scratch paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/bootstrap.h"
#include "core/bucket.h"
#include "core/naive.h"
#include "index_oracle.h"
#include "integration/sample.h"
#include "integration/sample_view.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Overriding operator new/delete in the test
// binary is enough: the zero-allocation assertion only reads the counter
// delta around a single-threaded measured window.
// ---------------------------------------------------------------------------
namespace {
std::atomic<int64_t> g_allocations{0};

// Both allocation forms take their memory from this one std::malloc call,
// and every release returns it with std::free. (With the std::malloc call
// written inside operator new and operator new[] forwarding to it, GCC 12
// at -O2 matched the std::free it inlined from the sized operator delete
// against operator new and warned -Wmismatched-new-delete.)
void* CountedMalloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedMalloc(size); }
void* operator new[](std::size_t size) { return CountedMalloc(size); }

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace uuq {
namespace {

IntegratedSample RandomSample(Rng* rng, FusionPolicy policy, int num_sources,
                              int entity_pool, int observations) {
  IntegratedSample sample(policy);
  for (int i = 0; i < observations; ++i) {
    const int s = static_cast<int>(rng->NextBounded(num_sources));
    const int e = static_cast<int>(rng->NextBounded(entity_pool));
    const double value = rng->NextUniform(-500.0, 1500.0);
    sample.Add("s" + std::to_string(s), "e" + std::to_string(e), value);
  }
  return sample;
}

void ExpectEstimatesIdentical(const Estimate& a, const Estimate& b,
                              const std::string& what) {
  EXPECT_EQ(a.delta, b.delta) << what;
  EXPECT_EQ(a.corrected_sum, b.corrected_sum) << what;
  EXPECT_EQ(a.n_hat, b.n_hat) << what;
  EXPECT_EQ(a.missing_count, b.missing_count) << what;
  EXPECT_EQ(a.num_buckets, b.num_buckets) << what;
  EXPECT_EQ(a.finite, b.finite) << what;
}

/// The reference path: a fresh SortedEntityIndex and fresh partition
/// buffers for every call — no reuse anywhere.
Estimate FreshIndexEstimate(const BucketSumEstimator& bucket,
                            const ReplicateSample& rep) {
  std::vector<EntityPoint> points(rep.entities);
  const SortedEntityIndex index(std::move(points));
  const std::vector<ValueBucket> buckets = bucket.ComputeBuckets(index);
  // Recombine exactly like the estimator does: compare through the public
  // replicate API instead of re-implementing FromBuckets, inside a FRESH
  // scratch.
  IndexScratch fresh;
  return bucket.EstimateReplicate(rep, &fresh);
}

TEST(IndexScratchHygiene, InterleavedReplicatesMatchFreshEvaluation) {
  Rng rng(0x5C1);
  const BucketSumEstimator bucket;

  // Three samples of very different shapes (and one kMajority) sharing one
  // IndexScratch and one ReplicateScratch.
  const IntegratedSample small =
      RandomSample(&rng, FusionPolicy::kAverage, 4, 12, 40);
  const IntegratedSample large =
      RandomSample(&rng, FusionPolicy::kLast, 20, 200, 600);
  const IntegratedSample majority =
      RandomSample(&rng, FusionPolicy::kMajority, 8, 50, 250);
  const SampleView views[] = {SampleView(small), SampleView(large),
                              SampleView(majority)};

  ReplicateScratch rscratch;
  ReplicateSample rep;
  IndexScratch shared;

  for (int round = 0; round < 12; ++round) {
    const SampleView& view = views[round % 3];
    // Alternate bootstrap and jackknife builds so the scratch sees shrinking
    // and growing replicates back to back.
    if (round % 2 == 0) {
      std::vector<int32_t> draws;
      view.DrawBootstrapSources(&rng, &draws);
      view.BuildReplicate(draws, &rscratch, &rep);
    } else {
      const int32_t excluded =
          static_cast<int32_t>(rng.NextBounded(view.num_sources()));
      view.BuildLeaveOneOut(excluded, &rscratch, &rep);
    }
    ExpectEstimatesIdentical(bucket.EstimateReplicate(rep, &shared),
                             FreshIndexEstimate(bucket, rep),
                             "round " + std::to_string(round));
  }
}

TEST(IndexScratchHygiene, ScratchIndexBitIdenticalToFreshIndex) {
  Rng rng(0x5C2);
  for (int trial = 0; trial < 20; ++trial) {
    const IntegratedSample sample =
        RandomSample(&rng, FusionPolicy::kAverage, 10, 80, 300);
    const SampleView view(sample);
    ReplicateScratch rscratch;
    ReplicateSample rep;
    std::vector<int32_t> draws;
    view.DrawBootstrapSources(&rng, &draws);
    view.BuildReplicate(draws, &rscratch, &rep);

    IndexScratch scratch;
    const SortedEntityIndex& incremental = scratch.RebuildIndex(rep);
    const SortedEntityIndex fresh(
        std::vector<EntityPoint>(rep.entities));
    ASSERT_EQ(incremental.size(), fresh.size());
    for (size_t i = 0; i < incremental.size(); ++i) {
      EXPECT_EQ(incremental.entities()[i].value, fresh.entities()[i].value)
          << i;
      EXPECT_EQ(incremental.entities()[i].multiplicity,
                fresh.entities()[i].multiplicity)
          << i;
    }
    // Prefix sums too: Slice over the full range and a few random cuts.
    for (int probe = 0; probe < 8; ++probe) {
      size_t a = rng.NextBounded(incremental.size() + 1);
      size_t b = rng.NextBounded(incremental.size() + 1);
      if (a > b) std::swap(a, b);
      const SampleStats sa = oracle::SlicePoints(incremental, a, b);
      const SampleStats sb = oracle::SlicePoints(fresh, a, b);
      EXPECT_EQ(sa.value_sum, sb.value_sum);
      EXPECT_EQ(sa.n, sb.n);
      EXPECT_EQ(sa.f1, sb.f1);
      EXPECT_EQ(sa.singleton_sum, sb.singleton_sum);
    }
  }
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameColumn(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i])) << what << " row " << i;
  }
}

/// Every point and every prefix column, bit for bit.
void ExpectSameIndex(const SortedEntityIndex& a, const SortedEntityIndex& b,
                     const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a.entities()[i].value), Bits(b.entities()[i].value))
        << what << " point " << i;
    ASSERT_EQ(a.entities()[i].multiplicity, b.entities()[i].multiplicity)
        << what << " point " << i;
  }
  const SortedEntityIndex::Prefix& pa = a.prefix();
  const SortedEntityIndex::Prefix& pb = b.prefix();
  ExpectSameColumn(pa.n, pb.n, what + " n");
  ExpectSameColumn(pa.c, pb.c, what + " c");
  ExpectSameColumn(pa.f1, pb.f1, what + " f1");
  ExpectSameColumn(pa.sum_mm1, pb.sum_mm1, what + " sum_mm1");
  ExpectSameColumn(pa.value_sum, pb.value_sum, what + " value_sum");
  ExpectSameColumn(pa.value_sum_sq, pb.value_sum_sq, what + " value_sum_sq");
  ExpectSameColumn(pa.singleton_sum, pb.singleton_sum, what + " singletons");
}

/// Few distinct report values over a large entity pool: long equal-value
/// runs and multiplicity ties for the rank sweep and the insertion pass.
/// Entity "top" holds the largest value and is reported by source "zz"
/// alone, so leaving "zz" out leaves the last rank untouched.
IntegratedSample TieHeavySample(Rng* rng, FusionPolicy policy) {
  IntegratedSample sample(policy);
  for (int i = 0; i < 900; ++i) {
    const int s = static_cast<int>(rng->NextBounded(12));
    const int e = static_cast<int>(rng->NextBounded(300));
    sample.Add("s" + std::to_string(s), "e" + std::to_string(e),
               static_cast<double>(rng->NextBounded(6)) * 10.0);
  }
  sample.Add("zz", "top", 1e6);
  return sample;
}

TEST(IndexScratchHygiene, RankSweepMatchesFullSortOnTieHeavyReplicates) {
  Rng rng(0x5C4);
  IndexScratch scratch;  // shared across policies and replicate shapes
  ReplicateScratch rscratch;
  ReplicateSample rep;
  for (const FusionPolicy policy :
       {FusionPolicy::kAverage, FusionPolicy::kFirst, FusionPolicy::kLast,
        FusionPolicy::kMajority}) {
    for (int trial = 0; trial < 6; ++trial) {
      const IntegratedSample sample = TieHeavySample(&rng, policy);
      const SampleView view(sample);
      const std::string what = "policy " +
                               std::to_string(static_cast<int>(policy)) +
                               " trial " + std::to_string(trial);

      std::vector<int32_t> draws;
      view.DrawBootstrapSources(&rng, &draws);
      view.BuildReplicate(draws, &rscratch, &rep);
      ExpectSameIndex(scratch.RebuildIndex(rep),
                      SortedEntityIndex(std::vector<EntityPoint>(rep.entities)),
                      what + " bootstrap");

      // Every source once: the replicate touches every entity.
      for (size_t s = 0; s < draws.size(); ++s) {
        draws[s] = static_cast<int32_t>(s);
      }
      view.BuildReplicate(draws, &rscratch, &rep);
      ASSERT_EQ(rep.entities.size(),
                static_cast<size_t>(view.num_entities()));
      ExpectSameIndex(scratch.RebuildIndex(rep),
                      SortedEntityIndex(std::vector<EntityPoint>(rep.entities)),
                      what + " every entity");

      // Without "zz" (the last source id) the top rank stays untouched.
      view.BuildLeaveOneOut(static_cast<int32_t>(view.num_sources() - 1),
                            &rscratch, &rep);
      ASSERT_EQ(rep.entities.size() + 1,
                static_cast<size_t>(view.num_entities()));
      ExpectSameIndex(scratch.RebuildIndex(rep),
                      SortedEntityIndex(std::vector<EntityPoint>(rep.entities)),
                      what + " last rank untouched");
    }
  }
}

/// 3000 entities, 30% reported only as NaN (their fused value stays NaN
/// under every policy), 10% with a NaN among finite reports (NaN under
/// kAverage, a number under kMajority), tie-heavy finite values.
IntegratedSample NanHeavySample(Rng* rng, FusionPolicy policy) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  IntegratedSample sample(policy);
  for (int e = 0; e < 3000; ++e) {
    const double kind = rng->NextDouble();
    const int reports = 1 + static_cast<int>(rng->NextBounded(3));
    for (int k = 0; k < reports; ++k) {
      double value = static_cast<double>(rng->NextBounded(200));
      if (kind < 0.3 || (kind < 0.4 && k == 0)) value = nan;
      sample.Add("s" + std::to_string(rng->NextBounded(40)),
                 "e" + std::to_string(e), value);
    }
  }
  return sample;
}

TEST(IndexScratchHygiene, NanValuedPointsSortLastAndCanonically) {
  Rng rng(0x5C5);
  for (const FusionPolicy policy :
       {FusionPolicy::kMajority, FusionPolicy::kAverage}) {
    for (int trial = 0; trial < 5; ++trial) {
      const IntegratedSample sample = NanHeavySample(&rng, policy);
      const std::string what = "policy " +
                               std::to_string(static_cast<int>(policy)) +
                               " trial " + std::to_string(trial);
      const SortedEntityIndex index(sample.entities());
      const std::vector<EntityPoint>& points = index.entities();
      const auto nan_begin =
          std::find_if(points.begin(), points.end(), [](const EntityPoint& p) {
            return std::isnan(p.value);
          });
      ASSERT_NE(nan_begin, points.end()) << what;
      EXPECT_TRUE(std::is_sorted(points.begin(), nan_begin,
                                 SortedEntityIndex::PointLess))
          << what;
      for (auto it = nan_begin; it != points.end(); ++it) {
        ASSERT_TRUE(std::isnan(it->value)) << what;
        if (it != nan_begin) {
          const auto prev = it - 1;
          EXPECT_TRUE(prev->multiplicity < it->multiplicity ||
                      (prev->multiplicity == it->multiplicity &&
                       Bits(prev->value) <= Bits(it->value)))
              << what;
        }
      }

      // Any input permutation sorts to the same index.
      std::vector<EntityPoint> shuffled(points.begin(), points.end());
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
      }
      ExpectSameIndex(SortedEntityIndex(std::move(shuffled)), index,
                      what + " shuffled");

      // The view ranks numbers by value and NaN-valued entities last.
      const SampleView view(sample);
      const std::vector<int32_t>& rank = view.entity_rank();
      std::vector<int32_t> by_rank(rank.size());
      for (size_t e = 0; e < rank.size(); ++e) {
        by_rank[static_cast<size_t>(rank[e])] = static_cast<int32_t>(e);
      }
      const size_t numbers = static_cast<size_t>(nan_begin - points.begin());
      for (size_t r = 0; r < by_rank.size(); ++r) {
        const double v = sample.entities()[by_rank[r]].value;
        ASSERT_EQ(std::isnan(v), r >= numbers) << what << " rank " << r;
        if (r > 0 && r < numbers) {
          ASSERT_LE(sample.entities()[by_rank[r - 1]].value, v)
              << what << " rank " << r;
        }
      }

      // Replicates carry NaN points through the rank sweep too.
      IndexScratch scratch;
      ReplicateScratch rscratch;
      ReplicateSample rep;
      for (int b = 0; b < 4; ++b) {
        std::vector<int32_t> draws;
        view.DrawBootstrapSources(&rng, &draws);
        view.BuildReplicate(draws, &rscratch, &rep);
        ExpectSameIndex(
            scratch.RebuildIndex(rep),
            SortedEntityIndex(std::vector<EntityPoint>(rep.entities)),
            what + " replicate " + std::to_string(b));
      }
    }
  }
}

TEST(IndexScratchHygiene, CanonicalOrderIndependentOfInputPermutation) {
  // Same multiset appended in opposite orders must produce the same array —
  // including ties (equal value, different multiplicity).
  std::vector<EntityPoint> forward{{5.0, 1}, {5.0, 3}, {1.0, 2},
                                   {5.0, 2}, {9.0, 1}, {1.0, 2}};
  std::vector<EntityPoint> reversed(forward.rbegin(), forward.rend());
  const SortedEntityIndex a((std::vector<EntityPoint>(forward)));
  const SortedEntityIndex b((std::vector<EntityPoint>(reversed)));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entities()[i].value, b.entities()[i].value) << i;
    EXPECT_EQ(a.entities()[i].multiplicity, b.entities()[i].multiplicity)
        << i;
  }
  // And the order is (value, multiplicity) ascending.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_FALSE(SortedEntityIndex::PointLess(a.entities()[i],
                                              a.entities()[i - 1]))
        << i;
  }
}

TEST(IndexScratchHygiene, ReusableIndexSurvivesShrinkAndGrow) {
  // Finalize must fully rebuild the prefix array when the point count
  // shrinks — a stale tail would corrupt Slice stats.
  SortedEntityIndex index;
  std::vector<EntityPoint> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({static_cast<double>(i), 1 + i % 3});
  }
  index.Assign(points);
  index.Finalize(/*nearly_sorted=*/false);
  const SampleStats big = oracle::SlicePoints(index, 0, 50);
  EXPECT_EQ(big.c, 50);

  index.Assign({{2.0, 4}, {1.0, 2}});
  index.Finalize(/*nearly_sorted=*/true);
  ASSERT_EQ(index.size(), 2u);
  const SampleStats small = oracle::SlicePoints(index, 0, 2);
  EXPECT_EQ(small.c, 2);
  EXPECT_EQ(small.n, 6);
  EXPECT_EQ(small.value_sum, 3.0);
  EXPECT_DOUBLE_EQ(index.entities()[0].value, 1.0);
}

TEST(IndexScratchAllocation, WarmReplicatePathIsAllocationFree) {
  Rng rng(0x5C3);
  const IntegratedSample sample =
      RandomSample(&rng, FusionPolicy::kAverage, 16, 150, 500);
  const SampleView view(sample);
  const BucketSumEstimator bucket;

  std::vector<std::vector<int32_t>> draw_sets(8);
  for (auto& draws : draw_sets) view.DrawBootstrapSources(&rng, &draws);

  ReplicateScratch rscratch;
  ReplicateSample rep;
  IndexScratch iscratch;
  double sink = 0.0;

  // Warm-up pass grows every buffer to its steady-state capacity.
  for (const auto& draws : draw_sets) {
    view.BuildReplicate(draws, &rscratch, &rep);
    sink += bucket.EstimateReplicate(rep, &iscratch).corrected_sum;
  }
  // Jackknife warm-up too (arrival-order replay path).
  for (int32_t e = 0; e < static_cast<int32_t>(view.num_sources()); ++e) {
    view.BuildLeaveOneOut(e, &rscratch, &rep);
    sink += bucket.EstimateReplicate(rep, &iscratch).corrected_sum;
  }

  // Measured pass: identical work, warm buffers — zero heap allocations.
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const auto& draws : draw_sets) {
    view.BuildReplicate(draws, &rscratch, &rep);
    sink += bucket.EstimateReplicate(rep, &iscratch).corrected_sum;
  }
  for (int32_t e = 0; e < static_cast<int32_t>(view.num_sources()); ++e) {
    view.BuildLeaveOneOut(e, &rscratch, &rep);
    sink += bucket.EstimateReplicate(rep, &iscratch).corrected_sum;
  }
  const int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "warm bucket replicate path performed heap allocations";
  EXPECT_TRUE(std::isfinite(sink));
}

}  // namespace
}  // namespace uuq
