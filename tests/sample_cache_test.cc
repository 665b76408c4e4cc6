// Unit tests for the per-sample artifact snapshot: artifact construction
// matches the from-scratch equivalents bit for bit, corrected answers
// computed on the artifacts match the offline path bit for bit, and the
// capacity-capped answer memo answers every budget its stored replicate
// prefix covers with the bits of a fresh correction. Snapshot replacement
// through the service is covered by serving_test.
#include "serving/sample_cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
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
  EXPECT_EQ(a.bootstrap.replicates, b.bootstrap.replicates) << what;
  EXPECT_EQ(a.bootstrap.by_replicate, b.bootstrap.by_replicate) << what;
  EXPECT_EQ(a.bootstrap.adaptive.enabled, b.bootstrap.adaptive.enabled)
      << what;
  EXPECT_EQ(a.bootstrap.adaptive.replicates_used,
            b.bootstrap.adaptive.replicates_used)
      << what;
  EXPECT_EQ(a.bootstrap.adaptive.target_met, b.bootstrap.adaptive.target_met)
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
  EXPECT_EQ(out.bootstrap.adaptive.replicates_used, 16);
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
