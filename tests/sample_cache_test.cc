// Unit tests for the per-sample artifact snapshot: artifact construction
// matches the from-scratch equivalents bit for bit, corrected answers
// computed on the artifacts match the offline path bit for bit, and the
// capacity-capped answer memo. Snapshot replacement through the service is
// covered by serving_test.
#include "serving/sample_cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "common/random.h"
#include "core/advisor.h"
#include "core/bucket.h"
#include "core/query_correction.h"

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

TEST(SampleArtifacts, MatchFromScratchConstruction) {
  const auto sample = SmallSample(10.0);
  const EstimatorAdvisor::Options advisor_options;
  const SampleArtifacts artifacts(sample, advisor_options);

  // View: same flattening as a fresh SampleView.
  const SampleView fresh_view(*sample);
  EXPECT_EQ(artifacts.view.num_sources(), fresh_view.num_sources());
  EXPECT_EQ(artifacts.view.num_entities(), fresh_view.num_entities());
  EXPECT_EQ(artifacts.view.num_observations(), fresh_view.num_observations());
  ASSERT_EQ(artifacts.view.entity_rank_order().size(),
            fresh_view.entity_rank_order().size());
  for (size_t i = 0; i < fresh_view.entity_rank_order().size(); ++i) {
    EXPECT_EQ(artifacts.view.entity_rank_order()[i],
              fresh_view.entity_rank_order()[i]);
  }

  // Index: same canonical sorted content as a fresh SortedEntityIndex.
  const SortedEntityIndex fresh_index(sample->entities());
  ASSERT_EQ(artifacts.index.size(), fresh_index.size());
  for (size_t i = 0; i < fresh_index.size(); ++i) {
    EXPECT_EQ(artifacts.index.entities()[i].value,
              fresh_index.entities()[i].value);
    EXPECT_EQ(artifacts.index.entities()[i].multiplicity,
              fresh_index.entities()[i].multiplicity);
  }

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
  EXPECT_EQ(pre.index, &artifacts.index);
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

// Every aggregate corrected on the cached artifacts (sorted index, stats,
// view, advice) returns the bits of the offline path: the point estimate
// and a B=48 interval, every replicate value included. AVG and MIN/MAX
// consume the cached index for their point estimate and share the SUM
// replicate scratch for their interval.
TEST(SampleArtifacts, CachedCorrectionMatchesUncachedBitForBit) {
  const auto sample = CrowdSample();
  QueryCorrector::Options options;
  options.attach_bootstrap = true;
  options.bootstrap.replicates = 48;
  const QueryCorrector corrector(options);
  const SampleArtifacts artifacts(sample, options.advisor);
  const SamplePrecomp pre = artifacts.precomp();

  for (const char* sql : {"SELECT SUM(value) FROM integrated",
                          "SELECT COUNT(*) FROM integrated",
                          "SELECT AVG(value) FROM integrated",
                          "SELECT MIN(value) FROM integrated",
                          "SELECT MAX(value) FROM integrated"}) {
    const auto uncached = corrector.CorrectSql(*sample, sql);
    const auto cached = corrector.CorrectSql(*sample, sql, &pre);
    ASSERT_TRUE(uncached.ok()) << sql;
    ASSERT_TRUE(cached.ok()) << sql;
    const CorrectedAnswer& a = cached.value();
    const CorrectedAnswer& b = uncached.value();
    const std::string what = sql;
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
    ASSERT_EQ(a.bootstrap.replicates.size(), b.bootstrap.replicates.size())
        << what;
    EXPECT_GT(a.bootstrap.replicates.size(), 0u) << what;
    for (size_t i = 0; i < a.bootstrap.replicates.size(); ++i) {
      ExpectSameBits(a.bootstrap.replicates[i], b.bootstrap.replicates[i],
                     what + " replicate " + std::to_string(i));
    }
  }
}

TEST(SampleArtifactsMemo, KeyNormalizesPointOnlyReplicates) {
  // Point-only answers do not depend on the replicate count.
  EXPECT_EQ(SampleArtifacts::AnswerKey("SELECT 1", 24, false),
            SampleArtifacts::AnswerKey("SELECT 1", 6, false));
  EXPECT_NE(SampleArtifacts::AnswerKey("SELECT 1", 24, true),
            SampleArtifacts::AnswerKey("SELECT 1", 6, true));
  EXPECT_NE(SampleArtifacts::AnswerKey("SELECT 1", 24, true),
            SampleArtifacts::AnswerKey("SELECT 1", 24, false));
  EXPECT_NE(SampleArtifacts::AnswerKey("SELECT 1", 24, true),
            SampleArtifacts::AnswerKey("SELECT 2", 24, true));
}

TEST(SampleArtifactsMemo, LookupAfterMemoizeRoundTrips) {
  const SampleArtifacts artifacts(SmallSample(1.0),
                                  EstimatorAdvisor::Options{});
  const std::string key = SampleArtifacts::AnswerKey("SELECT 1", 24, true);
  CorrectedAnswer out;
  EXPECT_FALSE(artifacts.LookupAnswer(key, &out));

  CorrectedAnswer answer;
  answer.observed = 123.5;
  answer.corrected = 456.25;
  answer.bootstrap_valid = true;
  answer.bootstrap.lo = 400.0;
  answer.bootstrap.hi = 500.0;
  artifacts.MemoizeAnswer(key, answer);

  ASSERT_TRUE(artifacts.LookupAnswer(key, &out));
  EXPECT_EQ(out.observed, 123.5);
  EXPECT_EQ(out.corrected, 456.25);
  EXPECT_TRUE(out.bootstrap_valid);
  EXPECT_EQ(out.bootstrap.lo, 400.0);
  EXPECT_EQ(out.bootstrap.hi, 500.0);
  EXPECT_FALSE(artifacts.LookupAnswer(
      SampleArtifacts::AnswerKey("SELECT 1", 6, true), &out));
}

TEST(SampleArtifactsMemo, CapacityCapDropsNewKeysNotOldOnes) {
  const SampleArtifacts artifacts(SmallSample(1.0),
                                  EstimatorAdvisor::Options{});
  CorrectedAnswer answer;
  // Fill to capacity (64) plus change; the overflow keys must be dropped
  // while every pre-cap key stays resident.
  for (int i = 0; i < 80; ++i) {
    answer.observed = static_cast<double>(i);
    artifacts.MemoizeAnswer(
        SampleArtifacts::AnswerKey("Q" + std::to_string(i), 24, true),
        answer);
  }
  CorrectedAnswer out;
  int resident = 0;
  for (int i = 0; i < 80; ++i) {
    if (artifacts.LookupAnswer(
            SampleArtifacts::AnswerKey("Q" + std::to_string(i), 24, true),
            &out)) {
      ++resident;
      EXPECT_EQ(out.observed, static_cast<double>(i));
      EXPECT_LT(i, 64);  // only pre-cap keys survive
    }
  }
  EXPECT_EQ(resident, 64);
}

}  // namespace
}  // namespace uuq
