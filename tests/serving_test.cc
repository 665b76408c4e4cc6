// Integration tests for the serving layer: admission control, cooperative
// cancellation at every engine granularity, the degradation ladder, the
// offline bit-identity contract, and the 100-schedule chaos sweep.
#include "serving/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/bootstrap.h"
#include "core/bucket.h"
#include "core/naive.h"

namespace uuq {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

// Mirrors query_correction_test's healthy fixture: 8 even sources over 30
// entities, enough structure for every estimator and a meaningful interval.
std::shared_ptr<const IntegratedSample> HealthySample() {
  auto sample = std::make_shared<IntegratedSample>();
  for (int e = 0; e < 30; ++e) {
    const int copies = 1 + (e % 4);
    for (int k = 0; k < copies; ++k) {
      sample->Add("w" + std::to_string((e + k) % 8), "e" + std::to_string(e),
                  10.0 * (e + 1));
    }
  }
  return sample;
}

constexpr char kSumSql[] = "SELECT SUM(value) FROM integrated";

// Process-wide inert injector: tests with strict outcome assertions pin it
// explicitly so the CI chaos entry's UUQ_FAULT_* env knobs (which arm
// FaultInjector::FromEnv, the faults=nullptr default) cannot perturb them.
// Tests OF the env hook use EnvDrivenFaults... below.
FaultInjector* InertFaults() {
  static FaultInjector inert;
  return &inert;
}

ServingOptions FastOptions() {
  ServingOptions options;
  options.workers = 2;
  options.full_replicates = 24;
  options.reduced_replicates = 6;
  options.faults = InertFaults();
  // The fixture corrects in well under a millisecond, so generous ladder
  // thresholds keep un-faulted tests deterministically at level 0.
  options.default_deadline = std::chrono::seconds(30);
  options.full_interval_budget = milliseconds(1);
  options.reduced_interval_budget = std::chrono::microseconds(100);
  return options;
}

// --- Engine-granularity cancellation (deterministic, no timing) ----------

CancelToken FiredToken() {
  CancelSource source;
  source.RequestCancel();
  return source.token();
}

TEST(EngineCancellation, BootstrapAbortsToDegenerateInterval) {
  const auto sample = HealthySample();
  const NaiveEstimator naive;
  BootstrapOptions options;
  options.replicates = 50;
  options.cancel = FiredToken();
  const BootstrapInterval interval =
      BootstrapCorrectedSum(*sample, naive, options);
  EXPECT_TRUE(interval.aborted);
  EXPECT_EQ(interval.finite_replicates, 0);
  EXPECT_EQ(interval.lo, interval.point);
  EXPECT_EQ(interval.hi, interval.point);
  EXPECT_TRUE(interval.replicates.empty());
}

TEST(EngineCancellation, BootstrapWithInertTokenIsBitIdentical) {
  const auto sample = HealthySample();
  const NaiveEstimator naive;
  BootstrapOptions plain;
  plain.replicates = 40;
  BootstrapOptions with_token = plain;
  CancelSource source;  // live source, never fired
  source.SetDeadlineAfter(std::chrono::hours(1));
  with_token.cancel = source.token();
  const BootstrapInterval a = BootstrapCorrectedSum(*sample, naive, plain);
  const BootstrapInterval b =
      BootstrapCorrectedSum(*sample, naive, with_token);
  EXPECT_FALSE(b.aborted);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.median, b.median);
  ASSERT_EQ(a.replicates.size(), b.replicates.size());
  for (size_t i = 0; i < a.replicates.size(); ++i) {
    EXPECT_EQ(a.replicates[i], b.replicates[i]);
  }
}

TEST(EngineCancellation, DynamicPartitionerFinalizesUnsplit) {
  const auto sample = HealthySample();
  const SortedEntityIndex index(sample->entities());
  const NaiveEstimator naive;
  const DynamicPartitioner cancelled(FiredToken());
  const std::vector<size_t> bounds = cancelled.Partition(index, naive);
  // Fired before the first pop: the root bucket is finalized whole — a
  // valid single-bucket partition.
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), index.size());
}

TEST(EngineCancellation, CorrectorFailsTypedOnPreCancelledToken) {
  QueryCorrector::Options options;
  options.cancel = FiredToken();
  const QueryCorrector corrector(options);
  auto answer = corrector.CorrectSql(*HealthySample(), kSumSql);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kCancelled);
}

TEST(EngineCancellation, CorrectorFailsTypedOnExpiredDeadline) {
  CancelSource source;
  source.SetDeadlineAfter(nanoseconds(0));
  QueryCorrector::Options options;
  options.cancel = source.token();
  const QueryCorrector corrector(options);
  auto answer = corrector.CorrectSql(*HealthySample(), kSumSql);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
}

// --- Serving behaviour ----------------------------------------------------

TEST(QueryService, ServesCorrectedAnswer) {
  QueryService service(FastOptions());
  service.RegisterSample("healthy", HealthySample());
  const ServedResult result = service.Execute("healthy", kSumSql);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.answer.corrected, 0.0);
  EXPECT_EQ(result.degraded, DegradeLevel::kNone);
  EXPECT_TRUE(result.answer.bootstrap_valid);
  EXPECT_GT(result.replicates_used, 0);
  EXPECT_GE(result.queue_ms, 0.0);
  EXPECT_GT(result.run_ms, 0.0);
  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.failed, 0);
}

TEST(QueryService, UnknownSampleIsNotFound) {
  QueryService service(FastOptions());
  const ServedResult result = service.Execute("nope", kSumSql);
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
}

// A request-supplied precision target must never reach an engine CHECK
// and abort the long-lived serving process: malformed epsilon/confidence
// values are rejected at Submit with kInvalidArgument, and the service
// keeps serving afterwards.
TEST(QueryService, MalformedPrecisionTargetRejectedAtSubmit) {
  QueryService service(FastOptions());
  service.RegisterSample("healthy", HealthySample());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    double epsilon;
    double confidence;
  } bad[] = {
      {-1.0, 0.95},  // negative epsilon
      {nan, 0.95},   // non-finite epsilon
      {inf, 0.95},   // non-finite epsilon
      {10.0, 1.0},   // confidence = 1 previously hit a CHECK -> abort
      {10.0, 2.0},   // confidence > 1
      {10.0, nan},   // non-finite confidence
  };
  for (const auto& target : bad) {
    const ServedResult result =
        service.Execute("healthy", kSumSql, nanoseconds(0),
                        /*want_interval=*/true, target.epsilon,
                        target.confidence);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
        << "epsilon=" << target.epsilon
        << " confidence=" << target.confidence << " -> "
        << result.status.ToString();
  }
  // Negative confidence is the documented "use the bootstrap default"
  // request, and a well-formed target still serves: the service survived
  // every rejection above.
  const ServedResult ok =
      service.Execute("healthy", kSumSql, nanoseconds(0),
                      /*want_interval=*/true, /*epsilon=*/1e6,
                      /*confidence=*/-1.0);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_TRUE(ok.answer.bootstrap_valid);
  EXPECT_TRUE(ok.answer.bootstrap.adaptive.enabled);
}

TEST(QueryService, ParseErrorsSurfaceTyped) {
  QueryService service(FastOptions());
  service.RegisterSample("healthy", HealthySample());
  const ServedResult result = service.Execute("healthy", "SELECT gibberish");
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.status.code() == StatusCode::kParseError ||
              result.status.code() == StatusCode::kInvalidArgument)
      << result.status.ToString();
}

// Acceptance criterion 2: a non-degraded served result is BIT-IDENTICAL to
// the offline QueryCorrector run with the same configuration.
TEST(QueryService, NonDegradedResultMatchesOfflinePathBitForBit) {
  const auto sample = HealthySample();
  const ServingOptions options = FastOptions();

  QueryService service(options);
  service.RegisterSample("healthy", sample);
  const ServedResult served = service.Execute("healthy", kSumSql);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  ASSERT_EQ(served.degraded, DegradeLevel::kNone);

  QueryCorrector::Options offline = options.correction;
  offline.attach_bootstrap = true;
  offline.bootstrap.replicates = options.full_replicates;
  auto reference = QueryCorrector(offline).CorrectSql(*sample, kSumSql);
  ASSERT_TRUE(reference.ok());

  const CorrectedAnswer& a = served.answer;
  const CorrectedAnswer& b = reference.value();
  EXPECT_EQ(a.observed, b.observed);
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.estimate.n_hat, b.estimate.n_hat);
  EXPECT_EQ(a.estimate.delta, b.estimate.delta);
  ASSERT_TRUE(a.bootstrap_valid);
  ASSERT_TRUE(b.bootstrap_valid);
  EXPECT_EQ(a.bootstrap.lo, b.bootstrap.lo);
  EXPECT_EQ(a.bootstrap.hi, b.bootstrap.hi);
  EXPECT_EQ(a.bootstrap.median, b.bootstrap.median);
  ASSERT_EQ(a.bootstrap.replicates.size(), b.bootstrap.replicates.size());
  for (size_t i = 0; i < a.bootstrap.replicates.size(); ++i) {
    EXPECT_EQ(a.bootstrap.replicates[i], b.bootstrap.replicates[i]);
  }
}

// Acceptance criterion 1: an already-expired deadline comes back as
// kDeadlineExceeded and the service keeps working afterwards (the pool was
// drained, not poisoned).
TEST(QueryService, ExpiredDeadlineIsDeadlineExceededAndServiceSurvives) {
  QueryService service(FastOptions());
  service.RegisterSample("healthy", HealthySample());
  const ServedResult expired =
      service.Execute("healthy", kSumSql, nanoseconds(1));
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded)
      << expired.status.ToString();
  // The same service immediately serves a healthy query: no leaked tasks,
  // no wedged workers.
  const ServedResult next = service.Execute("healthy", kSumSql);
  EXPECT_TRUE(next.status.ok()) << next.status.ToString();
  EXPECT_EQ(service.stats().failed, 1);
}

TEST(QueryService, DeadlineExpiringMidIntervalDegradesToPointOnly) {
  // Event-driven: from replicate kHoldFrom on, the probe holds every
  // replicate until the query's deadline has certainly passed, so the
  // deadline fires inside the interval at any thread count. The probe runs
  // after admission, so the first probe time plus the budget is past the
  // deadline. Held replicates are at most one per engine thread; the next
  // replicate any of them claims polls the fired token and aborts the loop.
  // The point estimate runs before the first replicate, so the budget only
  // has to cover it (sub-millisecond on this fixture).
  constexpr int64_t kHoldFrom = 2;
  const nanoseconds budget = milliseconds(500);
  std::mutex mu;
  std::optional<std::chrono::steady_clock::time_point> release_at;
  ServingOptions options = FastOptions();
  options.full_interval_budget = std::chrono::microseconds(1);
  // Far more replicates than engine threads, so some replicate always
  // claims work after the release.
  options.full_replicates = 256;
  options.correction.bootstrap.replicate_probe = [&](int64_t b) {
    if (b < kHoldFrom) return;
    std::chrono::steady_clock::time_point wake;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!release_at) release_at = std::chrono::steady_clock::now() + budget;
      wake = *release_at;
    }
    std::this_thread::sleep_until(wake);
  };
  QueryService service(options);
  service.RegisterSample("healthy", HealthySample());
  const ServedResult result = service.Execute("healthy", kSumSql, budget);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.degraded, DegradeLevel::kPointOnly);
  EXPECT_TRUE(result.answer.bootstrap_aborted);
  EXPECT_FALSE(result.answer.bootstrap_valid);
  EXPECT_GT(result.answer.corrected, 0.0);
}

TEST(QueryService, ShortBudgetAtDequeueStepsDownTheLadder) {
  ServingOptions options = FastOptions();
  // Budgets no real query can meet at level 0: full needs an hour.
  options.full_interval_budget = std::chrono::hours(1);
  options.reduced_interval_budget = std::chrono::microseconds(1);
  QueryService service(options);
  service.RegisterSample("healthy", HealthySample());
  const ServedResult result =
      service.Execute("healthy", kSumSql, std::chrono::seconds(10));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.degraded, DegradeLevel::kReducedReplicates);
  EXPECT_TRUE(result.answer.bootstrap_valid);
  EXPECT_EQ(service.stats().degraded, 1);
}

TEST(QueryService, WantIntervalFalseIsPointOnlyWithoutDegradation) {
  QueryService service(FastOptions());
  service.RegisterSample("healthy", HealthySample());
  const ServedResult result = service.Execute(
      "healthy", kSumSql, nanoseconds(0), /*want_interval=*/false);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.degraded, DegradeLevel::kNone);
  EXPECT_FALSE(result.answer.bootstrap_valid);
  EXPECT_EQ(result.replicates_used, 0);
  EXPECT_EQ(service.stats().degraded, 0);
}

TEST(QueryService, FullQueueShedsWithResourceExhausted) {
  // One worker stalled on a slow query, queue capacity 1: the second
  // submission is pending, the third must shed.
  FaultInjector faults(2, [] {
    std::array<FaultSpec, kNumFaultSites> specs{};
    specs[static_cast<size_t>(FaultSite::kSlowReplicate)] = {
        1.0, std::chrono::milliseconds(2)};
    return specs;
  }());
  ServingOptions options = FastOptions();
  options.workers = 1;
  options.max_queue = 1;
  options.faults = &faults;
  options.full_interval_budget = std::chrono::microseconds(1);
  QueryService service(options);
  service.RegisterSample("healthy", HealthySample());

  auto first = service.Submit("healthy", kSumSql, std::chrono::seconds(30));
  ASSERT_TRUE(first.ok());
  auto second = service.Submit("healthy", kSumSql, std::chrono::seconds(30));
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().shed, 1);

  const ServedResult result = first.value().Wait();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
}

TEST(QueryService, CancelledTicketComesBackCancelled) {
  FaultInjector faults(3, [] {
    std::array<FaultSpec, kNumFaultSites> specs{};
    specs[static_cast<size_t>(FaultSite::kSlowReplicate)] = {
        1.0, std::chrono::milliseconds(2)};
    return specs;
  }());
  ServingOptions options = FastOptions();
  options.faults = &faults;
  options.full_interval_budget = std::chrono::microseconds(1);
  QueryService service(options);
  service.RegisterSample("healthy", HealthySample());
  auto ticket = service.Submit("healthy", kSumSql, std::chrono::seconds(30));
  ASSERT_TRUE(ticket.ok());
  ticket.value().Cancel();
  const ServedResult result = ticket.value().Wait();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled)
      << result.status.ToString();
}

TEST(QueryService, ShutdownResolvesQueuedQueriesAsCancelled) {
  FaultInjector faults(4, [] {
    std::array<FaultSpec, kNumFaultSites> specs{};
    specs[static_cast<size_t>(FaultSite::kSlowReplicate)] = {
        1.0, std::chrono::milliseconds(2)};
    return specs;
  }());
  ServingOptions options = FastOptions();
  options.workers = 1;
  options.max_queue = 8;
  options.faults = &faults;
  options.full_interval_budget = std::chrono::microseconds(1);
  auto service = std::make_unique<QueryService>(options);
  service->RegisterSample("healthy", HealthySample());
  std::vector<QueryService::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    auto ticket =
        service->Submit("healthy", kSumSql, std::chrono::seconds(30));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  service->Shutdown();
  int cancelled = 0;
  for (auto& ticket : tickets) {
    const ServedResult result = ticket.Wait();  // must not hang
    if (result.status.code() == StatusCode::kCancelled) ++cancelled;
  }
  // The worker may have finished some before Shutdown; everything still
  // queued must resolve kCancelled, and nothing may be left pending.
  EXPECT_GE(cancelled, 1);
  const ServedResult after = service->Execute("healthy", kSumSql);
  EXPECT_EQ(after.status.code(), StatusCode::kFailedPrecondition);
}

// The CI chaos entry arms faults process-wide via UUQ_FAULT_SEED /
// UUQ_FAULT_SPEC; a faults=nullptr service picks them up through
// FaultInjector::FromEnv(). Whatever that schedule does — inert locally,
// aggressive in the chaos job — every outcome must be kOk or a typed
// failure.
TEST(QueryService, EnvDrivenFaultsOnlyEverYieldTypedStatuses) {
  ServingOptions options = FastOptions();
  options.faults = nullptr;  // → FromEnv()
  QueryService service(options);
  service.RegisterSample("healthy", HealthySample());
  for (int q = 0; q < 16; ++q) {
    const ServedResult result =
        service.Execute("healthy", kSumSql, std::chrono::seconds(30));
    switch (result.status.code()) {
      case StatusCode::kOk:
      case StatusCode::kUnavailable:
      case StatusCode::kResourceExhausted:
      case StatusCode::kDeadlineExceeded:
        break;
      default:
        ADD_FAILURE() << "untyped status: " << result.status.ToString();
    }
  }
}

// --- Null tickets, snapshots, replacement, trim, occupancy ---------------

// Regression: Wait()/Cancel() on a default-constructed Ticket used to
// dereference a null state_. Contract now: typed failure / no-op.
TEST(QueryServiceTicket, DefaultConstructedWaitAndCancelAreSafe) {
  QueryService::Ticket ticket;
  ticket.Cancel();  // must not crash
  const ServedResult result = ticket.Wait();
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition)
      << result.status.ToString();
  EXPECT_EQ(ticket.id(), 0u);
  ticket.Cancel();  // still a no-op after Wait
}

void ExpectSameBits(double a, double b, const std::string& what) {
  uint64_t a_bits = 0;
  uint64_t b_bits = 0;
  std::memcpy(&a_bits, &a, sizeof a);
  std::memcpy(&b_bits, &b, sizeof b);
  EXPECT_EQ(a_bits, b_bits) << what << ": " << a << " vs " << b;
}

void ExpectBitIdenticalAnswers(const CorrectedAnswer& a,
                               const CorrectedAnswer& b,
                               const std::string& what = "") {
  ExpectSameBits(a.observed, b.observed, what + " observed");
  ExpectSameBits(a.corrected, b.corrected, what + " corrected");
  ExpectSameBits(a.estimate.n_hat, b.estimate.n_hat, what + " n_hat");
  ExpectSameBits(a.estimate.delta, b.estimate.delta, what + " delta");
  ExpectSameBits(a.estimate.missing_count, b.estimate.missing_count,
                 what + " missing_count");
  EXPECT_EQ(a.estimate.num_buckets, b.estimate.num_buckets) << what;
  EXPECT_EQ(a.unconstrained, b.unconstrained) << what;
  ASSERT_EQ(a.bound_valid, b.bound_valid) << what;
  if (a.bound_valid) {
    ExpectSameBits(a.bound.phi_upper, b.bound.phi_upper, what + " bound");
  }
  EXPECT_EQ(a.claim_true_extreme, b.claim_true_extreme) << what;
  ExpectSameBits(a.extreme.observed_extreme, b.extreme.observed_extreme,
                 what + " extreme");
  ExpectSameBits(a.extreme.extreme_bucket_missing,
                 b.extreme.extreme_bucket_missing, what + " extreme missing");
  ASSERT_EQ(a.bootstrap_valid, b.bootstrap_valid) << what;
  if (a.bootstrap_valid) {
    ExpectSameBits(a.bootstrap.point, b.bootstrap.point, what + " bs point");
    ExpectSameBits(a.bootstrap.lo, b.bootstrap.lo, what + " bs lo");
    ExpectSameBits(a.bootstrap.hi, b.bootstrap.hi, what + " bs hi");
    ExpectSameBits(a.bootstrap.median, b.bootstrap.median, what + " median");
    EXPECT_EQ(a.bootstrap.finite_replicates, b.bootstrap.finite_replicates)
        << what;
    ASSERT_EQ(a.bootstrap.replicates.size(), b.bootstrap.replicates.size())
        << what;
    for (size_t i = 0; i < a.bootstrap.replicates.size(); ++i) {
      ExpectSameBits(a.bootstrap.replicates[i], b.bootstrap.replicates[i],
                     what + " replicate " + std::to_string(i));
    }
    ASSERT_EQ(a.bootstrap.by_replicate.size(),
              b.bootstrap.by_replicate.size())
        << what;
    for (size_t i = 0; i < a.bootstrap.by_replicate.size(); ++i) {
      ExpectSameBits(a.bootstrap.by_replicate[i], b.bootstrap.by_replicate[i],
                     what + " replicate #" + std::to_string(i));
    }
  }
}

// Served answers come from the registered snapshot (first query computes on
// the precomputed artifacts, repeat queries hit the answer memo). Both must
// match the offline QueryCorrector, run with no precomputed artifacts, byte
// for byte across every aggregate.
TEST(QueryService, ServedAnswersMatchOfflineCorrectorBitForBit) {
  const auto sample = HealthySample();
  const ServingOptions options = FastOptions();
  QueryService service(options);
  service.RegisterSample("healthy", sample);
  EXPECT_EQ(service.stats().cached_samples, 1);

  QueryCorrector::Options offline = options.correction;
  offline.attach_bootstrap = true;
  offline.bootstrap.replicates = options.full_replicates;
  const QueryCorrector reference(offline);

  const char* queries[] = {
      "SELECT SUM(value) FROM integrated",
      "SELECT COUNT(*) FROM integrated",
      "SELECT AVG(value) FROM integrated",
      "SELECT MIN(value) FROM integrated",
      "SELECT MAX(value) FROM integrated",
  };
  for (const char* sql : queries) {
    const auto expect = reference.CorrectSql(*sample, sql);
    const ServedResult first = service.Execute("healthy", sql);
    const ServedResult repeat = service.Execute("healthy", sql);  // memo hit
    ASSERT_TRUE(expect.ok()) << sql;
    ASSERT_TRUE(first.status.ok()) << sql;
    ASSERT_TRUE(repeat.status.ok()) << sql;
    ASSERT_EQ(first.degraded, DegradeLevel::kNone) << sql;
    ASSERT_EQ(repeat.degraded, DegradeLevel::kNone) << sql;
    ExpectBitIdenticalAnswers(first.answer, expect.value(), sql);
    ExpectBitIdenticalAnswers(repeat.answer, expect.value(), sql);
    EXPECT_EQ(first.replicates_used, options.full_replicates) << sql;
    EXPECT_EQ(repeat.replicates_used, options.full_replicates) << sql;
  }
}

/// Counts the replicates a service evaluates: installed as the base
/// corrector's replicate probe, which an inert-fault service keeps. A memo
/// hit evaluates none.
class ReplicateCounter {
 public:
  void Install(ServingOptions* options) {
    options->correction.bootstrap.replicate_probe = [this](int64_t) {
      count_.fetch_add(1, std::memory_order_relaxed);
    };
  }
  int64_t Take() { return count_.exchange(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> count_{0};
};

// The targeted budget end to end through the service: a target any pilot
// meets stops at the pilot, an unreachable one escalates to the cap and
// comes back precision_degraded, and each answer is bit-identical to a
// fixed-budget service at the settled count. All of them share the memo
// entry of one SQL text. Targeted intervals always compute (from scratch)
// and store their prefix; they do not read the memo. A fixed-budget
// request is answered from the longest stored prefix once it covers B.
TEST(QueryService, AdaptiveBudgetMatchesFixedBudgetServiceBitForBit) {
  const auto sample = HealthySample();
  ServingOptions options = FastOptions();
  ASSERT_LT(options.adaptive_pilot_replicates, options.full_replicates);
  ASSERT_LT(options.full_replicates, options.adaptive_max_replicates);

  const auto fixed_at = [&](int replicates) {
    ServingOptions fixed_options = options;
    fixed_options.full_replicates = replicates;
    QueryService fixed(fixed_options);
    fixed.RegisterSample("healthy", sample);
    return fixed.Execute("healthy", kSumSql);
  };

  ReplicateCounter evaluated;
  ServingOptions counted = options;
  evaluated.Install(&counted);
  QueryService service(counted);
  service.RegisterSample("healthy", sample);
  const auto adaptive_at = [&](double epsilon) {
    return service.Execute("healthy", kSumSql, nanoseconds(0),
                           /*want_interval=*/true, epsilon);
  };

  const ServedResult at_pilot =
      adaptive_at(std::numeric_limits<double>::max());
  ASSERT_TRUE(at_pilot.status.ok()) << at_pilot.status.ToString();
  ASSERT_EQ(at_pilot.degraded, DegradeLevel::kNone);
  EXPECT_TRUE(at_pilot.answer.bootstrap.adaptive.enabled);
  EXPECT_FALSE(at_pilot.precision_degraded);
  EXPECT_EQ(at_pilot.replicates_used, options.adaptive_pilot_replicates);
  EXPECT_EQ(evaluated.Take(), options.adaptive_pilot_replicates);
  ExpectBitIdenticalAnswers(
      at_pilot.answer, fixed_at(options.adaptive_pilot_replicates).answer,
      "pilot");

  // The stored 16-replicate prefix does not cover B = 24: recompute.
  const ServedResult fixed = service.Execute("healthy", kSumSql);
  ASSERT_TRUE(fixed.status.ok()) << fixed.status.ToString();
  EXPECT_FALSE(fixed.answer.bootstrap.adaptive.enabled);
  EXPECT_EQ(fixed.replicates_used, options.full_replicates);
  EXPECT_EQ(evaluated.Take(), options.full_replicates);
  ExpectBitIdenticalAnswers(fixed.answer,
                            fixed_at(options.full_replicates).answer, "fixed");

  const ServedResult at_cap = adaptive_at(1e-12);
  ASSERT_TRUE(at_cap.status.ok()) << at_cap.status.ToString();
  ASSERT_EQ(at_cap.degraded, DegradeLevel::kNone);
  EXPECT_TRUE(at_cap.answer.bootstrap.adaptive.enabled);
  EXPECT_TRUE(at_cap.precision_degraded);
  EXPECT_EQ(at_cap.replicates_used, options.adaptive_max_replicates);
  EXPECT_EQ(evaluated.Take(), options.adaptive_max_replicates);
  ExpectBitIdenticalAnswers(
      at_cap.answer, fixed_at(options.adaptive_max_replicates).answer, "cap");

  // The capped run stored 192 replicates: the fixed budget is now a hit,
  // while a targeted repeat computes again.
  ExpectBitIdenticalAnswers(service.Execute("healthy", kSumSql).answer,
                            fixed.answer, "fixed hit");
  EXPECT_EQ(evaluated.Take(), 0);
  ExpectBitIdenticalAnswers(
      adaptive_at(std::numeric_limits<double>::max()).answer, at_pilot.answer,
      "pilot repeat");
  EXPECT_EQ(evaluated.Take(), options.adaptive_pilot_replicates);
}

// One request of the budget matrix below.
struct BudgetRequest {
  std::string label;
  bool want_interval = true;
  double epsilon = 0.0;
};

/// Serves `requests` in order on a fresh service and checks every answer
/// against the offline QueryCorrector (no snapshot): the bits of a fixed
/// run at the served replicates_used, and the stop-rule report of an
/// offline run with the same target and cap. Records in `*fresh` / `*hits`
/// the labels that computed replicates / were answered from the memo.
void ServeAndCheck(const std::shared_ptr<const IntegratedSample>& sample,
                   const std::string& sql, ServingOptions options,
                   DegradeLevel level, const std::vector<BudgetRequest>& order,
                   std::set<std::string>* fresh, std::set<std::string>* hits) {
  ReplicateCounter evaluated;
  evaluated.Install(&options);
  QueryService service(options);
  service.RegisterSample("s", sample);
  QueryCorrector::Options offline = options.correction;
  offline.bootstrap.replicate_probe = nullptr;
  const int cap = level == DegradeLevel::kReducedReplicates
                      ? options.reduced_replicates
                      : options.adaptive_max_replicates;
  for (const BudgetRequest& request : order) {
    const std::string what = sql + " [" + request.label + "]";
    const ServedResult served =
        service.Execute("s", sql, nanoseconds(0), request.want_interval,
                        request.epsilon);
    const int64_t computed = evaluated.Take();
    ASSERT_TRUE(served.status.ok()) << what << served.status.ToString();
    EXPECT_EQ(served.degraded,
              request.want_interval ? level : DegradeLevel::kNone)
        << what;

    QueryCorrector::Options fixed = offline;
    fixed.attach_bootstrap = request.want_interval;
    fixed.bootstrap.replicates = std::max(1, served.replicates_used);
    const auto expect = QueryCorrector(fixed).CorrectSql(*sample, sql);
    ASSERT_TRUE(expect.ok()) << what;
    ExpectBitIdenticalAnswers(served.answer, expect.value(), what);
    if (!request.want_interval) continue;
    (computed > 0 ? fresh : hits)->insert(request.label);
    // A miss recomputes from scratch: exactly the settled replicates.
    if (computed > 0) EXPECT_EQ(computed, served.replicates_used) << what;

    QueryCorrector::Options targeted = offline;
    targeted.attach_bootstrap = true;
    targeted.bootstrap.replicates =
        request.epsilon > 0.0 || level == DegradeLevel::kReducedReplicates
            ? cap
            : options.full_replicates;
    targeted.bootstrap.adaptive.epsilon = request.epsilon;
    targeted.bootstrap.adaptive.pilot_replicates =
        options.adaptive_pilot_replicates;
    targeted.bootstrap.adaptive.escalation_block =
        options.adaptive_escalation_block;
    const auto reference = QueryCorrector(targeted).CorrectSql(*sample, sql);
    ASSERT_TRUE(reference.ok()) << what;
    const AdaptiveBudgetReport& got = served.answer.bootstrap.adaptive;
    const AdaptiveBudgetReport& want = reference.value().bootstrap.adaptive;
    EXPECT_EQ(served.replicates_used,
              static_cast<int>(reference.value().bootstrap.by_replicate.size()))
        << what;
    EXPECT_EQ(got.enabled, want.enabled) << what;
    EXPECT_EQ(got.target_met, want.target_met) << what;
    EXPECT_EQ(got.precision_degraded, want.precision_degraded) << what;
    EXPECT_EQ(served.precision_degraded, want.precision_degraded) << what;
    EXPECT_EQ(got.replicates_used, want.replicates_used) << what;
    EXPECT_EQ(got.pilot_replicates, want.pilot_replicates) << what;
    EXPECT_EQ(got.escalations, want.escalations) << what;
    ExpectSameBits(got.half_width, want.half_width, what + " half_width");
  }
}

// Bits unchanged under the one budget controller and the prefix memo:
// every aggregate, unfiltered and filtered, at every budget — point-only,
// fixed 48, the reduced rung's 12, and a precision target that stops at
// the pilot, mid-escalation and at the 192 cap — in three orders (loose →
// tight ε, tight → loose ε, fixed → targeted), equals the offline
// corrector at its replicates_used. Fixed budgets are served both fresh
// and from a prefix a longer run (fixed or targeted) stored.
TEST(QueryService, ServedBudgetsMatchOfflineCorrectorAtReplicatesUsed) {
  const auto sample = HealthySample();
  ServingOptions options = FastOptions();
  options.full_replicates = 48;
  options.reduced_replicates = 12;
  ASSERT_EQ(options.adaptive_pilot_replicates, 16);
  ASSERT_EQ(options.adaptive_max_replicates, 192);
  ServingOptions reduced = options;
  reduced.full_interval_budget = std::chrono::hours(1);
  reduced.reduced_interval_budget = std::chrono::microseconds(1);

  std::set<std::string> fresh;
  std::set<std::string> hits;
  int mid_escalations = 0;
  for (const char* aggregate :
       {"SUM(value)", "COUNT(*)", "AVG(value)", "MIN(value)", "MAX(value)"}) {
    for (const char* filter : {"", " WHERE value > 85"}) {
      const std::string sql =
          std::string("SELECT ") + aggregate + " FROM integrated" + filter;
      // A mid-escalation target: half the pilot's own half-width, so the
      // pilot misses it and the planned budget lands inside (16, 192).
      QueryCorrector::Options probe = options.correction;
      probe.attach_bootstrap = true;
      probe.bootstrap.replicates = options.adaptive_max_replicates;
      probe.bootstrap.adaptive.epsilon = std::numeric_limits<double>::max();
      const double pilot_width = QueryCorrector(probe)
                                     .CorrectSql(*sample, sql)
                                     .value()
                                     .bootstrap.adaptive.half_width;
      const bool can_escalate = std::isfinite(pilot_width) && pilot_width > 0;
      const BudgetRequest point{"point", false, 0.0};
      const BudgetRequest fixed{"fixed", true, 0.0};
      const BudgetRequest pilot{"pilot", true,
                                std::numeric_limits<double>::max()};
      const BudgetRequest mid{"mid", true,
                              can_escalate ? pilot_width / 2 : 1e-12};
      const BudgetRequest capped{"cap", true, 1e-12};

      ServeAndCheck(sample, sql, options, DegradeLevel::kNone,
                    {point, pilot, mid, capped, point, pilot, mid, capped},
                    &fresh, &hits);
      ServeAndCheck(sample, sql, options, DegradeLevel::kNone,
                    {capped, mid, pilot, fixed, point}, &fresh, &hits);
      ServeAndCheck(sample, sql, options, DegradeLevel::kNone,
                    {fixed, pilot, mid, capped, fixed}, &fresh, &hits);
      ServeAndCheck(sample, sql, reduced, DegradeLevel::kReducedReplicates,
                    {{"reduced", true, 0.0},
                     {"reduced-target", true, 1e-12},
                     {"reduced", true, 0.0}},
                    &fresh, &hits);

      QueryCorrector::Options escalated = probe;
      escalated.bootstrap.adaptive.epsilon = mid.epsilon;
      const AdaptiveBudgetReport report = QueryCorrector(escalated)
                                              .CorrectSql(*sample, sql)
                                              .value()
                                              .bootstrap.adaptive;
      if (report.target_met && report.escalations > 0) ++mid_escalations;
    }
  }
  // The matrix really covers every budget: fixed budgets both computed and
  // answered from a stored prefix, targeted ones computed every time.
  for (const char* label : {"fixed", "reduced"}) {
    EXPECT_TRUE(fresh.count(label)) << label << " never computed";
    EXPECT_TRUE(hits.count(label)) << label << " never a memo hit";
  }
  for (const char* label : {"pilot", "mid", "cap", "reduced-target"}) {
    EXPECT_TRUE(fresh.count(label)) << label << " never computed";
    EXPECT_FALSE(hits.count(label)) << label << " read the memo";
  }
  EXPECT_GT(mid_escalations, 0) << "no target stopped mid-escalation";
}

// The reduced rung caps a targeted query at reduced_replicates: its answer
// bits are a fixed 12-replicate run's, and it reports whether the target
// was met under that cap.
TEST(QueryService, ReducedRungRunsTheTargetUnderTheReducedCap) {
  const auto sample = HealthySample();
  ServingOptions options = FastOptions();
  options.reduced_replicates = 12;
  options.full_interval_budget = std::chrono::hours(1);
  options.reduced_interval_budget = std::chrono::microseconds(1);
  QueryService service(options);
  service.RegisterSample("healthy", sample);

  QueryCorrector::Options offline = options.correction;
  offline.attach_bootstrap = true;
  offline.bootstrap.replicates = 12;
  const auto expect = QueryCorrector(offline).CorrectSql(*sample, kSumSql);
  ASSERT_TRUE(expect.ok());
  for (const double epsilon : {1e-12, std::numeric_limits<double>::max()}) {
    const ServedResult served = service.Execute(
        "healthy", kSumSql, nanoseconds(0), /*want_interval=*/true, epsilon);
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    EXPECT_EQ(served.degraded, DegradeLevel::kReducedReplicates);
    EXPECT_EQ(served.replicates_used, 12);
    EXPECT_TRUE(served.answer.bootstrap.adaptive.enabled);
    EXPECT_EQ(served.answer.bootstrap.adaptive.escalations, 0);
    const bool loose = epsilon > 1.0;
    EXPECT_EQ(served.answer.bootstrap.adaptive.target_met, loose);
    EXPECT_EQ(served.precision_degraded, !loose);
    ExpectBitIdenticalAnswers(served.answer, expect.value(),
                              loose ? "loose" : "tight");
  }
}

// Two workers race on one SQL text with different targets (and the fixed
// budget), so lookups, extensions and stores interleave on one memo entry.
// Every answer equals the offline fixed run at its replicates_used.
TEST(QueryService, RacingTargetsOnOneSqlTextMatchOfflineFixedRuns) {
  const auto sample = HealthySample();
  ServingOptions options = FastOptions();
  options.workers = 2;
  options.engine_threads = 2;  // two workers even at UUQ_THREADS=1
  QueryCorrector::Options offline = options.correction;
  offline.attach_bootstrap = true;
  std::map<int, CorrectedAnswer> expected;  // by replicate count
  const double epsilons[] = {0.0, std::numeric_limits<double>::max(), 1e-12,
                             50.0, 0.0, 5.0};
  for (int round = 0; round < 4; ++round) {
    QueryService service(options);
    service.RegisterSample("healthy", sample);
    std::vector<QueryService::Ticket> tickets;
    for (int i = 0; i < 12; ++i) {
      const double epsilon = epsilons[(i + round) % 6];
      auto ticket = service.Submit("healthy", kSumSql, nanoseconds(0),
                                   /*want_interval=*/true, epsilon);
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      tickets.push_back(std::move(ticket).value());
    }
    for (QueryService::Ticket& ticket : tickets) {
      const ServedResult served = ticket.Wait();
      ASSERT_TRUE(served.status.ok()) << served.status.ToString();
      ASSERT_EQ(served.degraded, DegradeLevel::kNone);
      const int b = served.replicates_used;
      if (expected.count(b) == 0) {
        offline.bootstrap.replicates = b;
        expected[b] = QueryCorrector(offline).CorrectSql(*sample, kSumSql)
                          .value();
      }
      ExpectBitIdenticalAnswers(served.answer, expected[b],
                                "round " + std::to_string(round) + " B=" +
                                    std::to_string(b));
    }
  }
}

// Satellite: RegisterSample replacement under load. In-flight queries
// admitted before the replacement finish bit-identical on the OLD snapshot;
// queries admitted after use the new sample; the old snapshot is replaced
// (cached_samples stays 1). ASan (CI matrix) pins the no-use-after-free
// half: the old snapshot dies when its last pinned query finishes.
TEST(QueryService, ReplacementUnderLoadKeepsOldSnapshotForInFlight) {
  const auto old_sample = HealthySample();
  auto new_sample = std::make_shared<IntegratedSample>();
  for (int e = 0; e < 20; ++e) {
    new_sample->Add("w" + std::to_string(e % 5), "n" + std::to_string(e),
                    7.0 * (e + 1));
  }

  // Four distinct aggregates so every in-flight query computes for real
  // (distinct memo keys), slowed enough that the replacement lands while
  // they run.
  const char* queries[] = {
      "SELECT SUM(value) FROM integrated",
      "SELECT COUNT(*) FROM integrated",
      "SELECT AVG(value) FROM integrated",
      "SELECT MIN(value) FROM integrated",
  };
  const ServingOptions base = FastOptions();
  QueryCorrector::Options offline = base.correction;
  offline.attach_bootstrap = true;
  offline.bootstrap.replicates = base.full_replicates;
  const QueryCorrector reference(offline);

  FaultInjector slow(7, [] {
    std::array<FaultSpec, kNumFaultSites> specs{};
    specs[static_cast<size_t>(FaultSite::kSlowReplicate)] = {
        1.0, std::chrono::microseconds(500)};
    return specs;
  }());
  ServingOptions options = base;
  options.faults = &slow;
  QueryService service(options);
  service.RegisterSample("s", old_sample);

  std::vector<QueryService::Ticket> in_flight;
  for (const char* sql : queries) {
    auto ticket = service.Submit("s", sql, std::chrono::seconds(30));
    ASSERT_TRUE(ticket.ok());
    in_flight.push_back(ticket.value());
  }
  service.RegisterSample("s", new_sample);  // replace while they run
  EXPECT_EQ(service.stats().cached_samples, 1);

  for (size_t i = 0; i < in_flight.size(); ++i) {
    const ServedResult served = in_flight[i].Wait();
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    ASSERT_EQ(served.degraded, DegradeLevel::kNone);
    auto expect = reference.CorrectSql(*old_sample, queries[i]);
    ASSERT_TRUE(expect.ok());
    ExpectBitIdenticalAnswers(served.answer, expect.value());
  }
  for (const char* sql : queries) {
    const ServedResult served =
        service.Execute("s", sql, std::chrono::seconds(30));
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    ASSERT_EQ(served.degraded, DegradeLevel::kNone);
    auto expect = reference.CorrectSql(*new_sample, sql);
    ASSERT_TRUE(expect.ok());
    ExpectBitIdenticalAnswers(served.answer, expect.value());
  }
}

// Satellite: a long-lived server must not pin the largest-ever sample's
// engine scratch forever. Replacing a large sample with a small one
// requests a cooperative trim; the next queries execute it on the engine
// threads, and the resident-bytes gauge falls.
TEST(QueryService, ReplacingLargeSampleWithSmallReleasesScratch) {
  auto big = std::make_shared<IntegratedSample>();
  for (int e = 0; e < 4000; ++e) {
    big->Add("w" + std::to_string(e % 6), "b" + std::to_string(e),
             1.0 + (e % 97));
  }
  ServingOptions options = FastOptions();
  options.workers = 1;
  options.engine_threads = 1;  // one engine thread → trim is deterministic
  QueryService service(options);

  // Distinct SQL texts: neither query can be a memo hit, so both run the
  // engines and touch their scratch.
  service.RegisterSample("s", big);
  ASSERT_TRUE(service.Execute("s", kSumSql).status.ok());
  const int64_t after_big = service.stats().resident_scratch_bytes;
  EXPECT_GT(after_big, 0);

  service.RegisterSample("s", HealthySample());  // smaller → trim request
  ASSERT_TRUE(
      service.Execute("s", "SELECT SUM(value) FROM integrated WHERE value > 0")
          .status.ok());
  const int64_t after_small = service.stats().resident_scratch_bytes;
  EXPECT_LT(after_small, after_big);
  EXPECT_GE(after_small, 0);
}

// Acceptance criterion: total live engine threads never exceed the engine
// budget, no matter how many workers are configured. workers=8 against a
// budget of 2 must clamp to 2 one-thread (inline) slices.
TEST(QueryService, EngineOccupancyNeverExceedsBudget) {
  ServingOptions options = FastOptions();
  options.workers = 8;
  options.engine_threads = 2;
  QueryService service(options);
  service.RegisterSample("healthy", HealthySample());

  ThreadPool::ResetMaxOccupancy();
  std::vector<QueryService::Ticket> tickets;
  for (int q = 0; q < 12; ++q) {
    // A distinct SQL text per query: memo hits would skip the engines.
    const std::string sql =
        std::string(kSumSql) + " WHERE value > " + std::to_string(q);
    auto ticket = service.Submit("healthy", sql, std::chrono::seconds(30));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket.Wait().status.ok());
  }
  EXPECT_LE(ThreadPool::MaxOccupancy(), 2);
  EXPECT_GT(ThreadPool::MaxOccupancy(), 0);
}

// Acceptance criterion 3: across 100 seeded fault schedules every injected
// fault class surfaces as its typed Status — never a crash, never an
// unexpected code, and level-0 successes still match the offline answer.
TEST(QueryService, ChaosSweep100SeedsOnlyTypedFailures) {
  const auto sample = HealthySample();
  const ServingOptions base = FastOptions();
  QueryCorrector::Options offline = base.correction;
  offline.attach_bootstrap = true;
  offline.bootstrap.replicates = base.full_replicates;
  const auto reference = QueryCorrector(offline).CorrectSql(*sample, kSumSql);
  ASSERT_TRUE(reference.ok());

  int failures = 0;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    auto faults = FaultInjector::Parse(
        seed,
        "source_load=0.25,arena_alloc=0.25,slow_replicate=0.2:100us,"
        "queue_stall=0.2:100us");
    ASSERT_TRUE(faults.ok());
    ServingOptions options = base;
    options.workers = 2;
    options.faults = &faults.value();
    QueryService service(options);
    service.RegisterSample("healthy", sample);
    std::vector<QueryService::Ticket> tickets;
    for (int q = 0; q < 4; ++q) {
      auto ticket =
          service.Submit("healthy", kSumSql, std::chrono::seconds(30));
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(ticket.value());
    }
    for (auto& ticket : tickets) {
      const ServedResult result = ticket.Wait();
      switch (result.status.code()) {
        case StatusCode::kOk:
          if (result.degraded == DegradeLevel::kNone) {
            // Faults may slow a query but can never corrupt it.
            EXPECT_EQ(result.answer.corrected, reference.value().corrected)
                << "seed " << seed;
          }
          break;
        case StatusCode::kUnavailable:       // injected source_load
        case StatusCode::kResourceExhausted: // injected arena_alloc
        case StatusCode::kDeadlineExceeded:  // stalls ate the budget
          ++failures;
          break;
        default:
          ADD_FAILURE() << "seed " << seed << ": unexpected status "
                        << result.status.ToString();
      }
    }
  }
  // With p=0.25 per failure site per query, injected failures are certain
  // across 400 queries.
  EXPECT_GT(failures, 0);
}

}  // namespace
}  // namespace uuq
