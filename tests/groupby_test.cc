// GROUP BY support: parser and grouped unknown-unknowns correction (the
// library's extension of the paper's §5 machinery).
#include <gtest/gtest.h>

#include "core/query_correction.h"
#include "db/query.h"
#include "db/sql_parser.h"

namespace uuq {
namespace {

TEST(ParseQuery, GroupByClause) {
  auto q = ParseQuery("SELECT SUM(amount) FROM sales GROUP BY region");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().group_by, "region");
  EXPECT_EQ(q.value().ToString(),
            "SELECT SUM(amount) FROM sales GROUP BY region");
}

TEST(ParseQuery, GroupByAfterWhere) {
  auto q = ParseQuery(
      "SELECT AVG(amount) FROM sales WHERE amount > 1 GROUP BY region");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().group_by, "region");
  EXPECT_NE(q.value().predicate->ToString(), "TRUE");
}

TEST(ParseQuery, GroupByRequiresColumn) {
  EXPECT_FALSE(ParseQuery("SELECT SUM(a) FROM t GROUP BY").ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM(a) FROM t GROUP region").ok());
}

// --- corrected grouped queries over an integrated sample ---

IntegratedSample CategorizedSample() {
  IntegratedSample sample;
  // Two sectors; each entity seen 1-4 times across 6 sources.
  for (int e = 0; e < 12; ++e) {
    const std::string sector = e % 2 == 0 ? "hardware" : "software";
    const int copies = 1 + (e % 4);
    for (int k = 0; k < copies; ++k) {
      sample.Add("w" + std::to_string((e + k) % 6), "e" + std::to_string(e),
                 10.0 * (e + 1), sector);
    }
  }
  return sample;
}

TEST(IntegratedSample, CategoriesAreTracked) {
  const auto sample = CategorizedSample();
  EXPECT_EQ(sample.Categories(),
            (std::vector<std::string>{"hardware", "software"}));
  EXPECT_EQ(sample.entities()[0].category, "hardware");
}

TEST(IntegratedSample, FirstNonEmptyCategoryWins) {
  IntegratedSample sample;
  sample.Add("w1", "a", 1.0, "");
  sample.Add("w2", "a", 1.0, "late-category");
  sample.Add("w3", "a", 1.0, "even-later");
  EXPECT_EQ(sample.entities()[0].category, "late-category");
}

TEST(QueryCorrector, GroupedSqlCorrectsPerCategory) {
  const QueryCorrector corrector;
  auto result = corrector.CorrectGroupedSql(
      CategorizedSample(), "SELECT SUM(value) FROM t GROUP BY category");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& groups = result.value().groups;
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].first, "hardware");
  EXPECT_EQ(groups[1].first, "software");
  // Observed per-group sums: hardware = 10+30+50+...= Σ 10(e+1) even e;
  const double hw_observed = 10 + 30 + 50 + 70 + 90 + 110;
  const double sw_observed = 20 + 40 + 60 + 80 + 100 + 120;
  EXPECT_DOUBLE_EQ(groups[0].second.observed, hw_observed);
  EXPECT_DOUBLE_EQ(groups[1].second.observed, sw_observed);
  // Corrections are attached per group.
  EXPECT_GE(groups[0].second.corrected, groups[0].second.observed);
  EXPECT_GE(groups[1].second.corrected, groups[1].second.observed);
}

TEST(QueryCorrector, GroupedSqlWithPredicate) {
  const QueryCorrector corrector;
  auto result = corrector.CorrectGroupedSql(
      CategorizedSample(),
      "SELECT COUNT(value) FROM t WHERE value > 60 GROUP BY category");
  ASSERT_TRUE(result.ok());
  // Entities with value > 60: e6..e11 -> 3 hardware, 3 software.
  ASSERT_EQ(result.value().groups.size(), 2u);
  EXPECT_DOUBLE_EQ(result.value().groups[0].second.observed, 3.0);
  EXPECT_DOUBLE_EQ(result.value().groups[1].second.observed, 3.0);
}

TEST(QueryCorrector, GroupedSqlUncategorizedGroup) {
  IntegratedSample sample = CategorizedSample();
  sample.Add("w1", "uncategorized-entity", 999.0);
  const QueryCorrector corrector;
  auto result = corrector.CorrectGroupedSql(
      sample, "SELECT SUM(value) FROM t GROUP BY category");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().groups.size(), 3u);
  EXPECT_EQ(result.value().groups.back().first, "");
  EXPECT_DOUBLE_EQ(result.value().groups.back().second.observed, 999.0);
}

TEST(QueryCorrector, GroupedSqlRejectsNonCategoryColumn) {
  const QueryCorrector corrector;
  EXPECT_FALSE(corrector
                   .CorrectGroupedSql(CategorizedSample(),
                                      "SELECT SUM(value) FROM t GROUP BY value")
                   .ok());
}

TEST(QueryCorrector, UngroupedSqlThroughGroupedApiFails) {
  const QueryCorrector corrector;
  EXPECT_FALSE(corrector
                   .CorrectGroupedSql(CategorizedSample(),
                                      "SELECT SUM(value) FROM t")
                   .ok());
}

TEST(QueryCorrector, GroupedSqlThroughUngroupedApiFails) {
  const QueryCorrector corrector;
  EXPECT_FALSE(corrector
                   .CorrectSql(CategorizedSample(),
                               "SELECT SUM(value) FROM t GROUP BY category")
                   .ok());
}

TEST(QueryCorrector, GroupedAnswerToStringListsGroups) {
  const QueryCorrector corrector;
  auto result = corrector.CorrectGroupedSql(
      CategorizedSample(), "SELECT SUM(value) FROM t GROUP BY category");
  ASSERT_TRUE(result.ok());
  const std::string report = result.value().ToString();
  EXPECT_NE(report.find("hardware"), std::string::npos);
  EXPECT_NE(report.find("software"), std::string::npos);
  EXPECT_NE(report.find("corrected"), std::string::npos);
}

TEST(QueryCorrector, PredicateOnCategoryColumn) {
  const QueryCorrector corrector;
  auto answer = corrector.CorrectSql(
      CategorizedSample(),
      "SELECT SUM(value) FROM t WHERE category = 'hardware'");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_DOUBLE_EQ(answer.value().observed, 10 + 30 + 50 + 70 + 90 + 110);
}

}  // namespace
}  // namespace uuq
