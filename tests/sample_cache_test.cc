// Unit tests for the per-sample artifact snapshot: artifact construction
// matches the from-scratch equivalents bit for bit, corrected answers
// computed on the artifacts match the offline path bit for bit, and the
// capacity-capped answer memo answers every budget its stored replicate
// prefix covers with the bits of a fresh correction. Snapshot replacement
// through the service is covered by serving_test.
#include "serving/sample_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/advisor.h"
#include "core/bucket.h"
#include "core/combined.h"
#include "core/frequency.h"
#include "core/naive.h"
#include "core/query_correction.h"
#include "fnv_digest.h"
#include "perfbench_stream.h"
#include "simulation/scenarios.h"

namespace uuq {
namespace {

std::shared_ptr<const IntegratedSample> SmallSample(double scale) {
  auto sample = std::make_shared<IntegratedSample>();
  for (int e = 0; e < 24; ++e) {
    const int copies = 1 + (e % 3);
    for (int k = 0; k < copies; ++k) {
      sample->Add("w" + std::to_string((e + k) % 6), "e" + std::to_string(e),
                  scale * (e + 1));
    }
  }
  return sample;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Every field of every bucket, doubles by bit pattern.
void ExpectSameBuckets(const std::vector<ValueBucket>& a,
                       const std::vector<ValueBucket>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string at = what + " bucket " + std::to_string(i);
    EXPECT_EQ(Bits(a[i].lo), Bits(b[i].lo)) << at;
    EXPECT_EQ(Bits(a[i].hi), Bits(b[i].hi)) << at;
    const SampleStats& sa = a[i].stats;
    const SampleStats& sb = b[i].stats;
    EXPECT_EQ(sa.n, sb.n) << at;
    EXPECT_EQ(sa.c, sb.c) << at;
    EXPECT_EQ(sa.f1, sb.f1) << at;
    EXPECT_EQ(sa.sum_mm1, sb.sum_mm1) << at;
    EXPECT_EQ(Bits(sa.value_sum), Bits(sb.value_sum)) << at;
    EXPECT_EQ(Bits(sa.value_sum_sq), Bits(sb.value_sum_sq)) << at;
    EXPECT_EQ(Bits(sa.singleton_sum), Bits(sb.singleton_sum)) << at;
    const Estimate& ea = a[i].estimate;
    const Estimate& eb = b[i].estimate;
    EXPECT_EQ(ea.estimator, eb.estimator) << at;
    EXPECT_EQ(Bits(ea.delta), Bits(eb.delta)) << at;
    EXPECT_EQ(Bits(ea.corrected_sum), Bits(eb.corrected_sum)) << at;
    EXPECT_EQ(Bits(ea.n_hat), Bits(eb.n_hat)) << at;
    EXPECT_EQ(Bits(ea.missing_count), Bits(eb.missing_count)) << at;
    EXPECT_EQ(Bits(ea.missing_value), Bits(eb.missing_value)) << at;
    EXPECT_EQ(ea.finite, eb.finite) << at;
    EXPECT_EQ(ea.coverage_ok, eb.coverage_ok) << at;
    EXPECT_EQ(ea.num_buckets, eb.num_buckets) << at;
  }
}

TEST(SampleArtifacts, MatchFromScratchConstruction) {
  const auto sample = SmallSample(10.0);
  const EstimatorAdvisor::Options advisor_options;
  const SampleArtifacts artifacts(sample, advisor_options);

  // View: same flattening as a fresh SampleView.
  const SampleView fresh_view(*sample);
  EXPECT_EQ(artifacts.view.num_sources(), fresh_view.num_sources());
  EXPECT_EQ(artifacts.view.num_entities(), fresh_view.num_entities());
  EXPECT_EQ(artifacts.view.num_observations(), fresh_view.num_observations());
  EXPECT_EQ(artifacts.view.entity_rank(), fresh_view.entity_rank());

  // Buckets: the default partition of a fresh sort.
  ExpectSameBuckets(artifacts.buckets,
                    BucketSumEstimator().ComputeBuckets(*sample), "small");

  // Stats + advice: same folds and the same verdict.
  const SampleStats fresh_stats = SampleStats::FromSample(*sample);
  EXPECT_EQ(artifacts.stats.n, fresh_stats.n);
  EXPECT_EQ(artifacts.stats.f1, fresh_stats.f1);
  EXPECT_EQ(artifacts.stats.value_sum, fresh_stats.value_sum);
  const Advice fresh_advice =
      EstimatorAdvisor(advisor_options).Advise(*sample);
  EXPECT_EQ(artifacts.advice.choice, fresh_advice.choice);
  EXPECT_EQ(artifacts.advice.coverage, fresh_advice.coverage);

  // precomp() wires exactly this bundle's artifacts.
  const SamplePrecomp pre = artifacts.precomp();
  EXPECT_EQ(pre.view, &artifacts.view);
  EXPECT_EQ(pre.buckets, &artifacts.buckets);
  EXPECT_EQ(pre.stats, &artifacts.stats);
  EXPECT_EQ(pre.advice, &artifacts.advice);
}

/// A sample large enough for the dynamic partition to split several times.
std::shared_ptr<const IntegratedSample> CrowdSample() {
  Rng rng(0xCAC4E);
  auto sample = std::make_shared<IntegratedSample>();
  for (int i = 0; i < 900; ++i) {
    const int e = static_cast<int>(rng.NextBounded(300));
    sample->Add("w" + std::to_string(rng.NextBounded(20)),
                "e" + std::to_string(e), 10.0 + 3.0 * e);
  }
  return sample;
}

void ExpectSameBits(double a, double b, const std::string& what) {
  EXPECT_TRUE(a == b || (std::isnan(a) && std::isnan(b)))
      << what << ": " << a << " vs " << b;
}

TEST(SampleArtifacts, PointPartitionMatchesFreshPartition) {
  const auto sample = CrowdSample();
  const SampleArtifacts artifacts(sample, EstimatorAdvisor::Options{});
  const std::vector<ValueBucket> fresh =
      BucketSumEstimator().ComputeBuckets(*sample);
  EXPECT_GT(fresh.size(), 1u);
  ExpectSameBuckets(artifacts.buckets, fresh, "crowd");
}

/// A cached correction against the uncached one: the point half and the
/// interval, every replicate value included.
void ExpectSameCorrection(const CorrectedAnswer& a, const CorrectedAnswer& b,
                          const std::string& what) {
  EXPECT_EQ(a.estimate.estimator, b.estimate.estimator) << what;
  ExpectSameBits(a.observed, b.observed, what + " observed");
  ExpectSameBits(a.corrected, b.corrected, what + " corrected");
  ExpectSameBits(a.estimate.delta, b.estimate.delta, what + " delta");
  ExpectSameBits(a.estimate.n_hat, b.estimate.n_hat, what + " n_hat");
  ExpectSameBits(a.estimate.missing_count, b.estimate.missing_count,
                 what + " missing_count");
  EXPECT_EQ(a.estimate.num_buckets, b.estimate.num_buckets) << what;
  EXPECT_EQ(a.unconstrained, b.unconstrained) << what;
  ExpectSameBits(a.extreme.observed_extreme, b.extreme.observed_extreme,
                 what + " extreme");
  ExpectSameBits(a.extreme.extreme_bucket_missing,
                 b.extreme.extreme_bucket_missing, what + " extreme missing");
  EXPECT_EQ(a.claim_true_extreme, b.claim_true_extreme) << what;

  ASSERT_TRUE(a.bootstrap_valid) << what;
  ASSERT_TRUE(b.bootstrap_valid) << what;
  ExpectSameBits(a.bootstrap.point, b.bootstrap.point, what + " bs point");
  ExpectSameBits(a.bootstrap.lo, b.bootstrap.lo, what + " bs lo");
  ExpectSameBits(a.bootstrap.hi, b.bootstrap.hi, what + " bs hi");
  ExpectSameBits(a.bootstrap.median, b.bootstrap.median, what + " median");
  EXPECT_EQ(a.bootstrap.finite_replicates, b.bootstrap.finite_replicates)
      << what;
  ASSERT_EQ(a.bootstrap.by_replicate.size(), b.bootstrap.by_replicate.size())
      << what;
  EXPECT_GT(a.bootstrap.by_replicate.size(), 0u) << what;
  for (size_t i = 0; i < a.bootstrap.by_replicate.size(); ++i) {
    ExpectSameBits(a.bootstrap.by_replicate[i], b.bootstrap.by_replicate[i],
                   what + " replicate " + std::to_string(i));
  }
}

// Every aggregate corrected on the cached artifacts (point partition,
// stats, view, advice) returns the bits of the offline path: the
// point estimate and an interval, every replicate value included, under
// every SUM estimator choice. Only the default bucket configuration — the
// dynamic-bucket SUM, AVG and MIN/MAX — folds the cached partition; every
// other choice must ignore it.
TEST(SampleArtifacts, CachedCorrectionMatchesUncachedBitForBit) {
  const auto sample = CrowdSample();
  QueryCorrector::Options options;
  options.attach_bootstrap = true;
  const SampleArtifacts artifacts(sample, options.advisor);
  const SamplePrecomp pre = artifacts.precomp();

  for (const CorrectionEstimator estimator :
       {CorrectionEstimator::kAuto, CorrectionEstimator::kBucket,
        CorrectionEstimator::kMonteCarlo, CorrectionEstimator::kNaive,
        CorrectionEstimator::kFreq}) {
    options.estimator = estimator;
    // The other choices only show that they ignore the partition; a short
    // interval keeps the Monte-Carlo one cheap.
    options.bootstrap.replicates =
        estimator == CorrectionEstimator::kAuto ? 48 : 8;
    const QueryCorrector corrector(options);
    for (const char* sql : {"SELECT SUM(value) FROM integrated",
                            "SELECT COUNT(*) FROM integrated",
                            "SELECT AVG(value) FROM integrated",
                            "SELECT MIN(value) FROM integrated",
                            "SELECT MAX(value) FROM integrated"}) {
      const auto uncached = corrector.CorrectSql(*sample, sql);
      const auto cached = corrector.CorrectSql(*sample, sql, &pre);
      ASSERT_TRUE(uncached.ok()) << sql;
      ASSERT_TRUE(cached.ok()) << sql;
      ExpectSameCorrection(cached.value(), uncached.value(),
                           std::string(sql) + " estimator " +
                               std::to_string(static_cast<int>(estimator)));
    }
  }
}

/// Every field of an Estimate, in declaration order.
void AddEstimate(const Estimate& e, Fnv1aDigest* d) {
  d->Str(e.estimator);
  d->Dbl(e.delta);
  d->Dbl(e.corrected_sum);
  d->Dbl(e.n_hat);
  d->Dbl(e.missing_count);
  d->Dbl(e.missing_value);
  d->Int(e.finite);
  d->Int(e.coverage_ok);
  d->Int(e.num_buckets);
}

/// The digest of every field of a CorrectedAnswer, in declaration order.
/// The pins predate the interval's stop reason: the fields it replaced (the
/// sorted finite replicates, the abort flags, and the report's flags and
/// echoes of the request) are hashed as they read then, derived from the
/// stop reason, `by_replicate` and the `request` the answer was computed
/// for. A fixed budget (ε = 0) or no interval hashes them as zeros.
class AnswerDigest : public Fnv1aDigest {
 public:
  void Add(const CorrectedAnswer& a, const QueryCorrector::Options& request) {
    Int(static_cast<int64_t>(a.aggregate));
    Str(a.query_text);
    Dbl(a.observed);
    Dbl(a.corrected);
    Int(a.unconstrained);
    AddEstimate(a.estimate, this);
    Int(static_cast<int64_t>(a.advice.choice));
    Dbl(a.advice.coverage);
    Int(a.advice.num_sources);
    Int(a.advice.streaker_suspected);
    Str(a.advice.rationale);
    Dbl(a.bound.m0_upper);
    Dbl(a.bound.n_hat_upper);
    Dbl(a.bound.value_upper);
    Dbl(a.bound.phi_upper);
    Dbl(a.bound.delta_upper);
    Int(a.bound.finite);
    Int(a.bound_valid);
    Int(a.claim_true_extreme);
    Int(a.extreme.has_data);
    Int(a.extreme.claim_true_extreme);
    Dbl(a.extreme.observed_extreme);
    Dbl(a.extreme.extreme_bucket_missing);
    Dbl(a.extreme.bucket_lo);
    Dbl(a.extreme.bucket_hi);
    Int(a.bootstrap_valid);
    Dbl(a.bootstrap_confidence);
    const BootstrapInterval& b = a.bootstrap;
    const BudgetStop stop = b.adaptive.stop;
    const BootstrapOptions& budget = request.bootstrap;
    const bool targeted =
        request.attach_bootstrap && budget.adaptive.epsilon > 0.0;
    const bool cut_off =
        stop == BudgetStop::kDeadline || stop == BudgetStop::kCancelled;
    const bool aborted = cut_off && b.by_replicate.empty();
    std::vector<double> finite;
    for (double value : b.by_replicate) {
      if (std::isfinite(value)) finite.push_back(value);
    }
    std::sort(finite.begin(), finite.end());
    Dbl(b.point);
    Dbl(b.lo);
    Dbl(b.hi);
    Dbl(b.median);
    Int(b.finite_replicates);
    Vec(finite);
    Vec(b.by_replicate);
    Int(aborted);
    Int(targeted);
    Int(stop == BudgetStop::kTargetMet);
    Int(targeted && (stop == BudgetStop::kCapReached || cut_off));
    Int(targeted ? static_cast<int64_t>(b.by_replicate.size()) : 0);
    Int(targeted ? std::min(budget.replicates,
                            budget.adaptive.pilot_replicates)
                 : 0);
    Int(b.adaptive.escalations);
    Dbl(targeted ? budget.adaptive.epsilon : 0.0);
    Dbl(b.adaptive.half_width);
    Int(aborted);
  }
};

std::shared_ptr<const IntegratedSample> FiftyThousandSample() {
  return PerfbenchStreamPrefix(50000);
}

/// One pinned row of the 50k sample: the digest of its point answer, a
/// fixed interval of `replicates` and, when `targeted`, a precision-targeted
/// interval (ε = 0.1 × the fixed interval's width, cap 192), in that order.
struct AnswerPin {
  const char* sql;
  CorrectionEstimator estimator;
  uint64_t digest;
  bool targeted = true;
  int replicates = 48;
};

/// Expects `pin`'s answers on `sample` to hash to its digest, served through
/// the snapshot's artifacts `pre` and then offline with no precomputed
/// artifacts. With `memo`, the served answers are also stored on a fresh
/// snapshot and answered from it (a replay over the stored prefix).
void ExpectAnswersPinned(const std::shared_ptr<const IntegratedSample>& sample,
                         const QueryCorrector::Options& options,
                         const SamplePrecomp& pre, const AnswerPin& pin,
                         bool memo) {
  struct Answered {
    QueryCorrector::Options request;
    CorrectedAnswer answer;
  };
  // Corrected served (`p` the snapshot's artifacts) or offline.
  const auto correct = [&](const SamplePrecomp* p,
                           std::vector<Answered>* out) {
    QueryCorrector::Options point = options;
    point.estimator = pin.estimator;
    QueryCorrector::Options fixed = point;
    fixed.attach_bootstrap = true;
    fixed.bootstrap.replicates = pin.replicates;
    for (const QueryCorrector::Options& request : {point, fixed}) {
      auto answer = QueryCorrector(request).CorrectSql(*sample, pin.sql, p);
      ASSERT_TRUE(answer.ok()) << pin.sql;
      out->push_back({request, std::move(answer).value()});
    }
    ASSERT_TRUE(out->back().answer.bootstrap_valid) << pin.sql;
    if (!pin.targeted) return;
    const BootstrapInterval& fixed_interval = out->back().answer.bootstrap;
    QueryCorrector::Options targeted = fixed;
    targeted.bootstrap.replicates = 192;
    targeted.bootstrap.adaptive.epsilon =
        0.1 * (fixed_interval.hi - fixed_interval.lo);
    auto answer = QueryCorrector(targeted).CorrectSql(*sample, pin.sql, p);
    ASSERT_TRUE(answer.ok()) << pin.sql;
    out->push_back({targeted, std::move(answer).value()});
  };
  const auto expect_pinned = [&](const std::vector<Answered>& answered,
                                 const char* pass) {
    AnswerDigest digest;
    for (const Answered& a : answered) digest.Add(a.answer, a.request);
    EXPECT_EQ(digest.value(), pin.digest)
        << std::hex << pin.sql << " estimator "
        << static_cast<int>(pin.estimator) << " " << pass << ": 0x"
        << digest.value() << " (last run used " << std::dec
        << answered.back().answer.bootstrap.by_replicate.size()
        << " replicates)";
  };

  std::vector<Answered> served;
  correct(&pre, &served);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  expect_pinned(served, "served");
  std::vector<Answered> offline;
  correct(nullptr, &offline);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  expect_pinned(offline, "offline");
  if (!memo) return;

  // The memo assumes one corrector configuration per snapshot, so each row
  // stores on its own.
  const SampleArtifacts memo_snapshot(sample, options.advisor);
  for (const Answered& a : served) {
    memo_snapshot.MemoizeAnswer(pin.sql, a.answer);
  }
  std::vector<Answered> replayed;
  for (const Answered& a : served) {
    CorrectedAnswer out;
    ASSERT_TRUE(memo_snapshot.LookupAnswer(
        pin.sql, a.request.attach_bootstrap, a.request.bootstrap, &out))
        << pin.sql << " " << a.request.bootstrap.adaptive.epsilon;
    replayed.push_back({a.request, std::move(out)});
  }
  expect_pinned(replayed, "memo");
}

// Absolute bits of every unfiltered aggregate on the 50k sample: the point
// answer, a B=48 interval and a precision-targeted interval (ε = 0.1 × the
// B=48 width, cap 192: SUM stops at the pilot, COUNT/AVG/MAX escalate and
// MIN runs to the cap), served through the snapshot's artifacts and then
// offline with no precomputed artifacts. The relative checks elsewhere
// (served ≡ offline, columnar ≡ materialized) share the index, the split
// scan and the stats folds on both sides, so they cannot see a rounding
// change there; these hex pins can. The filtered rows (point and B=48) pin
// the predicate push-down, IntegratedSample::Filter, that every WHERE
// query runs; their literals sit near the 25th, 50th and 75th percentiles
// of the sample's fused values. The memo pass (unfiltered rows) stores the
// served answers on a fresh snapshot and answers the same three requests
// from it: a replay over the stored prefix hashes to the same pin.
TEST(SampleArtifacts, FiftyThousandAnswerDigestsArePinned) {
  const auto sample = FiftyThousandSample();
  ASSERT_EQ(sample->n(), 50000);
  QueryCorrector::Options options;
  const SampleArtifacts artifacts(sample, options.advisor);
  const SamplePrecomp pre = artifacts.precomp();

  // The frequency-estimator SUM is the one answer that reads the singleton
  // sums (φf1); the bucket estimators' naive inner estimator does not.
  constexpr auto kAuto = CorrectionEstimator::kAuto;
  constexpr auto kFreq = CorrectionEstimator::kFreq;
  const AnswerPin pins[] = {
      {"SELECT SUM(value) FROM integrated", CorrectionEstimator::kAuto,
       0x4a3be39392700e2bull},
      {"SELECT SUM(value) FROM integrated", CorrectionEstimator::kFreq,
       0x4c5a3b5775fa3529ull},
      {"SELECT COUNT(*) FROM integrated", CorrectionEstimator::kAuto,
       0xe1116cfe978be0b6ull},
      {"SELECT AVG(value) FROM integrated", CorrectionEstimator::kAuto,
       0xb60b2306d3260cb7ull},
      {"SELECT MIN(value) FROM integrated", CorrectionEstimator::kAuto,
       0x4c66b3e972540b36ull},
      {"SELECT MAX(value) FROM integrated", CorrectionEstimator::kAuto,
       0xc3d5ecd86eb57d40ull},
      {"SELECT SUM(value) FROM integrated WHERE value > 70000", kAuto,
       0x2ccf00fd03d9e678ull, false},
      {"SELECT SUM(value) FROM integrated WHERE value > 70000", kFreq,
       0xdc645c67b4c25500ull, false},
      {"SELECT COUNT(*) FROM integrated WHERE value > 70000", kAuto,
       0xda5270f73fd226feull, false},
      {"SELECT AVG(value) FROM integrated WHERE value > 70000", kAuto,
       0x8cf02eca5ffb5d17ull, false},
      {"SELECT MIN(value) FROM integrated WHERE value > 70000", kAuto,
       0xbfc1ae5548dd5ae3ull, false},
      {"SELECT MAX(value) FROM integrated WHERE value > 70000", kAuto,
       0x81453d2297218ad8ull, false},
      {"SELECT SUM(value) FROM integrated "
       "WHERE value >= 48000 AND value < 86000",
       kAuto, 0x0a383a37a81f4e03ull, false},
      {"SELECT SUM(value) FROM integrated "
       "WHERE value >= 48000 AND value < 86000",
       kFreq, 0x308ac34368b89489ull, false},
      {"SELECT COUNT(*) FROM integrated "
       "WHERE value >= 48000 AND value < 86000",
       kAuto, 0xbdd0980437b52997ull, false},
      {"SELECT AVG(value) FROM integrated "
       "WHERE value >= 48000 AND value < 86000",
       kAuto, 0x726c4ce79dc47d46ull, false},
      {"SELECT MIN(value) FROM integrated "
       "WHERE value >= 48000 AND value < 86000",
       kAuto, 0x9b8e40557a25077eull, false},
      {"SELECT MAX(value) FROM integrated "
       "WHERE value >= 48000 AND value < 86000",
       kAuto, 0x57f6c90d901ac63full, false},
  };
  for (const AnswerPin& pin : pins) {
    ExpectAnswersPinned(sample, options, pre, pin, /*memo=*/pin.targeted);
  }
}

// The golden digest's gaps on the 50k sample, each served, offline and from
// the memo: precision-targeted intervals of the filtered SUM and AVG rows
// (ε = 0.1 × their B=48 width, cap 192), a predicate on `observations` (a
// column other than `value`, read per entity by the push-down), and the
// bounds of a fixed B=128 interval on the unfiltered SUM.
TEST(SampleArtifacts, FiftyThousandDigestGapsArePinned) {
  const auto sample = FiftyThousandSample();
  ASSERT_EQ(sample->n(), 50000);
  QueryCorrector::Options options;
  const SampleArtifacts artifacts(sample, options.advisor);
  const SamplePrecomp pre = artifacts.precomp();

  constexpr auto kAuto = CorrectionEstimator::kAuto;
  const AnswerPin pins[] = {
      {"SELECT SUM(value) FROM integrated WHERE value > 70000", kAuto,
       0x758887cad7576e08ull},
      {"SELECT AVG(value) FROM integrated WHERE value > 70000", kAuto,
       0x9472e9501a596e76ull},
      {"SELECT SUM(value) FROM integrated "
       "WHERE value >= 48000 AND value < 86000",
       kAuto, 0x8867e6f89fda0443ull},
      {"SELECT AVG(value) FROM integrated "
       "WHERE value >= 48000 AND value < 86000",
       kAuto, 0xfdaf331fc7cf51b5ull},
      {"SELECT SUM(value) FROM integrated WHERE observations >= 2", kAuto,
       0x0bde0b7be97b4461ull},
      {"SELECT SUM(value) FROM integrated", kAuto, 0xcc8e7f9f674a923aull,
       /*targeted=*/false, /*replicates=*/128},
  };
  for (const AnswerPin& pin : pins) {
    ExpectAnswersPinned(sample, options, pre, pin, /*memo=*/true);
  }
}

/// Bounds, then every field of every bucket (doubles by bit pattern).
void AddPartition(const std::vector<size_t>& bounds,
                  const std::vector<ValueBucket>& buckets, Fnv1aDigest* d) {
  d->Int(static_cast<int64_t>(bounds.size()));
  for (const size_t b : bounds) d->Int(static_cast<int64_t>(b));
  d->Int(static_cast<int64_t>(buckets.size()));
  for (const ValueBucket& bucket : buckets) {
    d->Dbl(bucket.lo);
    d->Dbl(bucket.hi);
    const SampleStats& s = bucket.stats;
    d->Int(s.n);
    d->Int(s.c);
    d->Int(s.f1);
    d->Int(s.sum_mm1);
    d->Dbl(s.value_sum);
    d->Dbl(s.value_sum_sq);
    d->Dbl(s.singleton_sum);
    AddEstimate(bucket.estimate, d);
  }
}

// Absolute bits of the dynamic partition (Algorithm 1) under each inner
// estimator the split scan runs: a 6k-observation prefix of the 50k stream,
// its point partition and estimate, then four bootstrap replicates'
// partitions and estimates. The answer pins above see the partition only
// through the naive inner estimator and Eq. 11's sum; these pin the bounds
// and every bucket field, so a change to the Δ chain or the split scan
// under any inner estimator shows here.
TEST(SampleArtifacts, SixThousandPartitionDigestsArePinned) {
  const auto sample = PerfbenchStreamPrefix(6000);
  ASSERT_EQ(sample->n(), 6000);
  const SampleView view(*sample);
  struct Pin {
    std::shared_ptr<const StatsSumEstimator> inner;
    uint64_t point;
    uint64_t replicates;
  };
  const Pin pins[] = {
      {std::make_shared<NaiveEstimator>(), 0x571081e587adcba5ull,
       0xb241873b9f577a04ull},
      {std::make_shared<FrequencyEstimator>(), 0x05baa108e2fb5c33ull,
       0x5c83bc360c0ff64dull},
      {std::make_shared<FrequencyEstimator>(/*assume_uniform=*/true),
       0x6bb5775341023887ull, 0x85c7a393e9faa117ull},
  };
  for (const Pin& pin : pins) {
    const BucketSumEstimator estimator(std::make_shared<DynamicPartitioner>(),
                                       pin.inner);
    const BucketPartitioner& partitioner = estimator.partitioner();

    Fnv1aDigest point;
    AddPartition(
        partitioner.Partition(SortedEntityIndex(sample->entities()),
                              *pin.inner),
        estimator.ComputeBuckets(*sample), &point);
    AddEstimate(estimator.EstimateImpact(*sample), &point);

    Fnv1aDigest replicates;
    Rng rng(0x5EED6000);
    ReplicateScratch rscratch;
    ReplicateSample rep;
    std::vector<int32_t> draws;
    for (int r = 0; r < 4; ++r) {
      view.DrawBootstrapSources(&rng, &draws);
      view.BuildReplicate(draws, &rscratch, &rep);
      AddPartition(partitioner.Partition(SortedEntityIndex(rep.entities),
                                         *pin.inner),
                   estimator.ComputeBuckets(rep), &replicates);
      AddEstimate(estimator.EstimateReplicate(rep), &replicates);
    }

    EXPECT_EQ(point.value(), pin.point)
        << std::hex << pin.inner->name() << " point: 0x" << point.value();
    EXPECT_EQ(replicates.value(), pin.replicates)
        << std::hex << pin.inner->name() << " replicates: 0x"
        << replicates.value();
  }
}

/// Point partition and estimate of `sample`, then four bootstrap
/// replicates' partitions and estimates, all into one digest.
uint64_t PartitionDigest(const IntegratedSample& sample,
                         const BucketSumEstimator& estimator) {
  const BucketPartitioner& partitioner = estimator.partitioner();
  Fnv1aDigest digest;
  AddPartition(partitioner.Partition(SortedEntityIndex(sample.entities()),
                                     estimator.inner()),
               estimator.ComputeBuckets(sample), &digest);
  AddEstimate(estimator.EstimateImpact(sample), &digest);
  const SampleView view(sample);
  Rng rng(0x5EED6000);
  ReplicateScratch rscratch;
  ReplicateSample rep;
  std::vector<int32_t> draws;
  for (int r = 0; r < 4; ++r) {
    view.DrawBootstrapSources(&rng, &draws);
    view.BuildReplicate(draws, &rscratch, &rep);
    AddPartition(partitioner.Partition(SortedEntityIndex(rep.entities),
                                       estimator.inner()),
                 estimator.ComputeBuckets(rep), &digest);
    AddEstimate(estimator.EstimateReplicate(rep), &digest);
  }
  return digest.value();
}

// Absolute bits of the static partitioners (§3.3.1 equi-width, Appendix B
// equi-height) on the 6k prefix, at three bucket counts under the naive
// and frequency inner estimators: point partition and four replicates each.
TEST(SampleArtifacts, StaticPartitionDigestsArePinned) {
  const auto sample = PerfbenchStreamPrefix(6000);
  ASSERT_EQ(sample->n(), 6000);
  struct Pin {
    bool equi_width;
    int buckets;
    bool frequency;
    uint64_t digest;
  };
  const Pin pins[] = {
      {true, 4, false, 0x664c7e167dab11f6ull},
      {true, 4, true, 0x446c873e0965d8daull},
      {true, 16, false, 0xfce642247f4f5fecull},
      {true, 16, true, 0xa184226a31e44878ull},
      {true, 64, false, 0x3630d98ea5f7f67aull},
      {true, 64, true, 0x89971154271baa1aull},
      {false, 4, false, 0x726d98e81ef163dbull},
      {false, 4, true, 0x691ed3728d4945d5ull},
      {false, 16, false, 0xb5091a272ca75902ull},
      {false, 16, true, 0x89ee1fb62d26e763ull},
      {false, 64, false, 0xd38d2f2fa0aeb5b9ull},
      {false, 64, true, 0x599bc663cb5f7f2aull},
  };
  for (const Pin& pin : pins) {
    std::shared_ptr<const BucketPartitioner> partitioner;
    if (pin.equi_width) {
      partitioner = std::make_shared<EquiWidthPartitioner>(pin.buckets);
    } else {
      partitioner = std::make_shared<EquiHeightPartitioner>(pin.buckets);
    }
    std::shared_ptr<const StatsSumEstimator> inner;
    if (pin.frequency) {
      inner = std::make_shared<FrequencyEstimator>();
    } else {
      inner = std::make_shared<NaiveEstimator>();
    }
    const BucketSumEstimator estimator(partitioner, inner);
    const uint64_t digest = PartitionDigest(*sample, estimator);
    EXPECT_EQ(digest, pin.digest)
        << std::hex << estimator.name() << ": 0x" << digest;
  }
}

// Absolute bits of the combined estimator (§3.5: dynamic buckets with a
// Monte-Carlo count per bucket) on a 1.5k prefix, at a small grid.
TEST(SampleArtifacts, CombinedEstimatorDigestsArePinned) {
  const auto sample = PerfbenchStreamPrefix(1500);
  ASSERT_EQ(sample->n(), 1500);
  struct Pin {
    int runs_per_point;
    int n_grid_steps;
    uint64_t digest;
  };
  const Pin pins[] = {{2, 5, 0x37463bdd1d616d56ull}};
  for (const Pin& pin : pins) {
    MonteCarloOptions options;
    options.runs_per_point = pin.runs_per_point;
    options.n_grid_steps = pin.n_grid_steps;
    Fnv1aDigest digest;
    AddEstimate(MonteCarloBucketEstimator(options).EstimateImpact(*sample),
                &digest);
    EXPECT_EQ(digest.value(), pin.digest)
        << std::hex << pin.runs_per_point << "x" << pin.n_grid_steps
        << ": 0x" << digest.value();
  }
}

// Absolute bits of the dynamic partition on tie-heavy copies of the 6k
// prefix (TieHeavyStreamPrefix), without and with a NaN level: the 50k pins
// see no tied value, so these are the ones that see the split scan's run
// boundaries. Point partition and four replicates under each inner
// estimator.
TEST(SampleArtifacts, TieHeavyPartitionDigestsArePinned) {
  const auto tied = TieHeavyStreamPrefix(6000, /*nan_level=*/false);
  const auto with_nan = TieHeavyStreamPrefix(6000, /*nan_level=*/true);
  ASSERT_EQ(tied->n(), 6000);
  ASSERT_EQ(with_nan->n(), 6000);
  // Few runs, and the NaN level present.
  for (const auto& sample : {tied, with_nan}) {
    const SortedEntityIndex index(sample->entities());
    size_t nan_points = 0;
    size_t runs = 0;
    for (size_t i = 0; i < index.size(); ++i) {
      const double value = index.entities()[i].value;
      if (std::isnan(value)) ++nan_points;
      if (i == 0 || !(value == index.entities()[i - 1].value)) ++runs;
    }
    EXPECT_LE(runs - nan_points, 40u);
    EXPECT_EQ(nan_points > 0, sample == with_nan);
  }
  struct Pin {
    std::shared_ptr<const StatsSumEstimator> inner;
    uint64_t tied;
    uint64_t with_nan;
  };
  const Pin pins[] = {
      {std::make_shared<NaiveEstimator>(), 0xf75c8770fbf63295ull,
       0x77b620e49926d094ull},
      {std::make_shared<FrequencyEstimator>(), 0x1a63a61b857b5d48ull,
       0x2a2188b9e41c230dull},
      {std::make_shared<FrequencyEstimator>(/*assume_uniform=*/true),
       0x8b96e23abd031db1ull, 0x7805240424ffa7efull},
  };
  for (const Pin& pin : pins) {
    const BucketSumEstimator estimator(std::make_shared<DynamicPartitioner>(),
                                       pin.inner);
    EXPECT_GT(estimator.ComputeBuckets(*tied).size(), 2u)
        << pin.inner->name();
    const uint64_t tied_digest = PartitionDigest(*tied, estimator);
    EXPECT_EQ(tied_digest, pin.tied)
        << std::hex << pin.inner->name() << " tied: 0x" << tied_digest;
    const uint64_t nan_digest = PartitionDigest(*with_nan, estimator);
    EXPECT_EQ(nan_digest, pin.with_nan)
        << std::hex << pin.inner->name() << " with NaN: 0x" << nan_digest;
  }
}

/// A lookup answer against a fresh correction with the same budget: the
/// point half, the interval flag, and every interval field and replicate.
void ExpectSameAnswer(const CorrectedAnswer& a, const CorrectedAnswer& b,
                      const std::string& what) {
  ExpectSameBits(a.observed, b.observed, what + " observed");
  ExpectSameBits(a.corrected, b.corrected, what + " corrected");
  ExpectSameBits(a.estimate.n_hat, b.estimate.n_hat, what + " n_hat");
  ASSERT_EQ(a.bootstrap_valid, b.bootstrap_valid) << what;
  EXPECT_EQ(a.bootstrap_confidence, b.bootstrap_confidence) << what;
  ExpectSameBits(a.bootstrap.point, b.bootstrap.point, what + " bs point");
  ExpectSameBits(a.bootstrap.lo, b.bootstrap.lo, what + " bs lo");
  ExpectSameBits(a.bootstrap.hi, b.bootstrap.hi, what + " bs hi");
  ExpectSameBits(a.bootstrap.median, b.bootstrap.median, what + " median");
  EXPECT_EQ(a.bootstrap.by_replicate, b.bootstrap.by_replicate) << what;
  EXPECT_EQ(a.bootstrap.adaptive.stop, b.bootstrap.adaptive.stop) << what;
  EXPECT_EQ(a.bootstrap.adaptive.escalations,
            b.bootstrap.adaptive.escalations)
      << what;
}

// One entry per SQL text: a stored 24-replicate run answers the point-only
// request, every fixed budget up to 24 and a target that settles at the
// 16-replicate pilot, each bit-identical to a fresh correction with that
// budget. Budgets past the prefix miss until a longer run is stored.
TEST(SampleArtifactsMemo, PrefixAnswersEveryBudgetItCovers) {
  const auto sample = CrowdSample();
  const char* sql = "SELECT SUM(value) FROM integrated";
  QueryCorrector::Options options;
  options.attach_bootstrap = true;
  const SampleArtifacts artifacts(sample, options.advisor);
  const auto fresh = [&](const QueryCorrector::Options& o) {
    return QueryCorrector(o).CorrectSql(*sample, sql).value();
  };
  const auto lookup = [&](const QueryCorrector::Options& o,
                          CorrectedAnswer* out) {
    return artifacts.LookupAnswer(sql, o.attach_bootstrap, o.bootstrap, out);
  };

  CorrectedAnswer out;
  EXPECT_FALSE(lookup(options, &out));
  options.bootstrap.replicates = 24;
  artifacts.MemoizeAnswer(sql, fresh(options));

  QueryCorrector::Options point_only = options;
  point_only.attach_bootstrap = false;
  ASSERT_TRUE(lookup(point_only, &out));
  ExpectSameAnswer(out, fresh(point_only), "point-only");

  for (const int replicates : {24, 12, 1}) {
    QueryCorrector::Options fixed = options;
    fixed.bootstrap.replicates = replicates;
    ASSERT_TRUE(lookup(fixed, &out)) << replicates;
    ExpectSameAnswer(out, fresh(fixed), "B=" + std::to_string(replicates));
  }

  QueryCorrector::Options targeted = options;
  targeted.bootstrap.replicates = 192;
  targeted.bootstrap.adaptive.epsilon = std::numeric_limits<double>::max();
  ASSERT_TRUE(lookup(targeted, &out));
  EXPECT_EQ(out.bootstrap.by_replicate.size(), 16u);
  EXPECT_EQ(out.bootstrap.adaptive.stop, BudgetStop::kTargetMet);
  ExpectSameAnswer(out, fresh(targeted), "pilot stop");

  QueryCorrector::Options longer = options;
  longer.bootstrap.replicates = 48;
  EXPECT_FALSE(lookup(longer, &out));
  targeted.bootstrap.adaptive.epsilon = 1e-12;  // runs to the 192 cap
  EXPECT_FALSE(lookup(targeted, &out));

  artifacts.MemoizeAnswer(sql, fresh(longer));
  ASSERT_TRUE(lookup(longer, &out));
  ExpectSameAnswer(out, fresh(longer), "B=48");
  // A shorter run stored later never shrinks the prefix.
  artifacts.MemoizeAnswer(sql, fresh(options));
  ASSERT_TRUE(lookup(longer, &out));
  ExpectSameAnswer(out, fresh(longer), "B=48 after B=24");
}

// An answer without an interval stores only the point half: point-only
// requests hit, interval requests miss.
TEST(SampleArtifactsMemo, PointOnlyEntryMissesIntervalRequests) {
  const auto sample = SmallSample(1.0);
  const char* sql = "SELECT COUNT(*) FROM integrated";
  QueryCorrector::Options options;
  const SampleArtifacts artifacts(sample, options.advisor);
  const CorrectedAnswer point =
      QueryCorrector(options).CorrectSql(*sample, sql).value();
  artifacts.MemoizeAnswer(sql, point);

  CorrectedAnswer out;
  ASSERT_TRUE(
      artifacts.LookupAnswer(sql, /*attach_interval=*/false, {}, &out));
  ExpectSameAnswer(out, point, "point-only");
  EXPECT_FALSE(artifacts.LookupAnswer(sql, /*attach_interval=*/true, {}, &out));
  EXPECT_FALSE(artifacts.LookupAnswer("SELECT SUM(value) FROM integrated",
                                      /*attach_interval=*/false, {}, &out));
}

TEST(SampleArtifactsMemo, CapacityCapDropsNewKeysNotOldOnes) {
  const SampleArtifacts artifacts(SmallSample(1.0),
                                  EstimatorAdvisor::Options{});
  CorrectedAnswer answer;
  // Fill to capacity (64) plus change; the overflow keys must be dropped
  // while every pre-cap key stays resident.
  for (int i = 0; i < 80; ++i) {
    answer.observed = static_cast<double>(i);
    artifacts.MemoizeAnswer("Q" + std::to_string(i), answer);
  }
  CorrectedAnswer out;
  int resident = 0;
  for (int i = 0; i < 80; ++i) {
    if (artifacts.LookupAnswer("Q" + std::to_string(i),
                               /*attach_interval=*/false, {}, &out)) {
      ++resident;
      EXPECT_EQ(out.observed, static_cast<double>(i));
      EXPECT_LT(i, 64);  // only pre-cap keys survive
    }
  }
  EXPECT_EQ(resident, 64);
}

}  // namespace
}  // namespace uuq
