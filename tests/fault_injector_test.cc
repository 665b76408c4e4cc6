#include "serving/fault_injector.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace uuq {
namespace {

std::array<FaultSpec, kNumFaultSites> OneSite(FaultSite site, double p) {
  std::array<FaultSpec, kNumFaultSites> specs{};
  specs[static_cast<size_t>(site)].probability = p;
  return specs;
}

TEST(FaultInjector, DefaultIsInert) {
  FaultInjector injector;
  EXPECT_TRUE(injector.inert());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.ShouldFire(FaultSite::kSlowReplicate));
  }
  EXPECT_EQ(injector.fired_count(FaultSite::kSlowReplicate), 0);
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultInjector a(42, OneSite(FaultSite::kSlowReplicate, 0.3));
  FaultInjector b(42, OneSite(FaultSite::kSlowReplicate, 0.3));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.ShouldFire(FaultSite::kSlowReplicate),
              b.ShouldFire(FaultSite::kSlowReplicate))
        << "probe " << i;
  }
  EXPECT_EQ(a.fired_count(FaultSite::kSlowReplicate),
            b.fired_count(FaultSite::kSlowReplicate));
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  FaultInjector a(1, OneSite(FaultSite::kSlowReplicate, 0.5));
  FaultInjector b(2, OneSite(FaultSite::kSlowReplicate, 0.5));
  int differences = 0;
  for (int i = 0; i < 500; ++i) {
    if (a.ShouldFire(FaultSite::kSlowReplicate) !=
        b.ShouldFire(FaultSite::kSlowReplicate)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0);
}

TEST(FaultInjector, FireRateTracksProbability) {
  FaultInjector injector(7, OneSite(FaultSite::kQueueStall, 0.25));
  const int probes = 4000;
  for (int i = 0; i < probes; ++i) {
    injector.ShouldFire(FaultSite::kQueueStall);
  }
  const double rate =
      static_cast<double>(injector.fired_count(FaultSite::kQueueStall)) /
      probes;
  EXPECT_NEAR(rate, 0.25, 0.05);
}

TEST(FaultInjector, SitesAreIndependentStreams) {
  // Probing one site must not perturb another's schedule: interleaved and
  // isolated runs agree per site.
  FaultInjector interleaved(9, {FaultSpec{0.4, {}}, FaultSpec{0.4, {}}});
  FaultInjector isolated(9, {FaultSpec{0.4, {}}, FaultSpec{0.4, {}}});
  std::vector<bool> from_interleaved;
  for (int i = 0; i < 100; ++i) {
    from_interleaved.push_back(
        interleaved.ShouldFire(FaultSite::kSlowReplicate));
    interleaved.ShouldFire(FaultSite::kQueueStall);  // noise on another site
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(isolated.ShouldFire(FaultSite::kSlowReplicate),
              from_interleaved[static_cast<size_t>(i)])
        << "probe " << i;
  }
}

TEST(FaultInjector, ParseFullSpec) {
  auto injector =
      FaultInjector::Parse(11, "slow_replicate=0.05:2ms, queue_stall=1");
  ASSERT_TRUE(injector.ok()) << injector.status().ToString();
  EXPECT_FALSE(injector.value().inert());
  EXPECT_EQ(injector.value().delay(FaultSite::kSlowReplicate),
            std::chrono::milliseconds(2));
  EXPECT_EQ(injector.value().delay(FaultSite::kQueueStall),
            std::chrono::nanoseconds(0));
  // queue_stall=1 fires every probe.
  EXPECT_TRUE(injector.value().ShouldFire(FaultSite::kQueueStall));
  EXPECT_EQ(FaultInjector::Parse(11, "queue_stall=0.01:500us")
                .value()
                .delay(FaultSite::kQueueStall),
            std::chrono::microseconds(500));
}

TEST(FaultInjector, ParseEmptyIsInert) {
  auto injector = FaultInjector::Parse(0, "");
  ASSERT_TRUE(injector.ok());
  EXPECT_TRUE(injector.value().inert());
}

TEST(FaultInjector, ParseRejectsMalformedSpecs) {
  EXPECT_EQ(FaultInjector::Parse(0, "bogus_site=0.5").status().code(),
            StatusCode::kInvalidArgument);
  // A site that once existed is as unknown as any other name.
  EXPECT_EQ(FaultInjector::Parse(0, "source_load=0.1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Parse(0, "queue_stall").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Parse(0, "queue_stall=1.5").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Parse(0, "queue_stall=-0.1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Parse(0, "queue_stall=abc").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      FaultInjector::Parse(0, "slow_replicate=0.5:10parsecs").status().code(),
      StatusCode::kInvalidArgument);
}

TEST(FaultInjector, ConcurrentProbesAreSafeAndCounted) {
  FaultInjector injector(3, OneSite(FaultSite::kQueueStall, 0.5));
  constexpr int kThreads = 4;
  constexpr int kProbesPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&injector] {
      for (int i = 0; i < kProbesPerThread; ++i) {
        injector.ShouldFire(FaultSite::kQueueStall);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Every probe consumed exactly one counter slot; the fired total is the
  // sum over a permutation of the same probe indices, so it matches a
  // serial run of the same volume.
  FaultInjector serial(3, OneSite(FaultSite::kQueueStall, 0.5));
  for (int i = 0; i < kThreads * kProbesPerThread; ++i) {
    serial.ShouldFire(FaultSite::kQueueStall);
  }
  EXPECT_EQ(injector.fired_count(FaultSite::kQueueStall),
            serial.fired_count(FaultSite::kQueueStall));
}

}  // namespace
}  // namespace uuq
