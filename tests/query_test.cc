#include "db/query.h"

#include <gtest/gtest.h>

#include <string>

#include "core/query_correction.h"

namespace uuq {
namespace {

AggregateQuery MakeQuery(AggregateKind kind, std::string attr,
                         PredicatePtr pred = nullptr) {
  AggregateQuery q;
  q.aggregate = kind;
  q.attribute = std::move(attr);
  q.table_name = "companies";
  q.predicate = pred != nullptr ? pred : MakeTrue();
  return q;
}

// An all-singleton sample degenerates Chao92 (coverage 0, N̂ → ∞): the
// corrector clamps to the observed answer and flags it. The flag must
// survive the whole SQL result path — per-answer, per-group, and in the
// rendered report the CLI prints.
TEST(SqlResultPath, UnconstrainedClampPropagates) {
  IntegratedSample sample;
  for (int e = 0; e < 12; ++e) {
    sample.Add("w" + std::to_string(e % 3), "e" + std::to_string(e),
               10.0 * (e + 1), e % 2 == 0 ? "even" : "odd");
  }
  const QueryCorrector corrector;

  auto answer =
      corrector.CorrectSql(sample, "SELECT SUM(value) FROM integrated");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer.value().unconstrained);
  EXPECT_DOUBLE_EQ(answer.value().corrected, answer.value().observed);
  EXPECT_NE(answer.value().ToString().find("UNCONSTRAINED"),
            std::string::npos);

  auto grouped = corrector.CorrectGroupedSql(
      sample, "SELECT SUM(value) FROM integrated GROUP BY category");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped.value().groups.size(), 2u);
  for (const auto& [category, group_answer] : grouped.value().groups) {
    EXPECT_TRUE(group_answer.unconstrained) << category;
  }
  // The rendered grouped report marks every clamped group line.
  const std::string report = grouped.value().ToString();
  size_t markers = 0;
  for (size_t pos = report.find("UNCONSTRAINED"); pos != std::string::npos;
       pos = report.find("UNCONSTRAINED", pos + 1)) {
    ++markers;
  }
  EXPECT_EQ(markers, 2u);
}

TEST(AggregateQuery, ToStringRendering) {
  const auto q = MakeQuery(
      AggregateKind::kSum, "employees",
      MakeComparison("employees", CompareOp::kGt, Value(int64_t{10})));
  EXPECT_EQ(q.ToString(),
            "SELECT SUM(employees) FROM companies WHERE (employees > 10)");
  const auto bare = MakeQuery(AggregateKind::kCount, "*");
  EXPECT_EQ(bare.ToString(), "SELECT COUNT(*) FROM companies");
}

}  // namespace
}  // namespace uuq
