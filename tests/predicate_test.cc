#include "db/predicate.h"

#include <gtest/gtest.h>

#include <vector>

namespace uuq {
namespace {

class PredicateTest : public ::testing::Test {
 protected:
  Schema schema_{{{"name", ValueType::kString},
                  {"employees", ValueType::kDouble}}};
  Row ibm_{Value("ibm"), Value(100.0)};
  Row tiny_{Value("tiny"), Value(3.0)};
  Row unknown_{Value("ghost"), Value::Null()};

  bool Eval(const PredicatePtr& p, const Row& row) {
    auto result = p->Eval(row, schema_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value_or(false);
  }
};

TEST_F(PredicateTest, ComparisonOperators) {
  EXPECT_TRUE(Eval(MakeComparison("employees", CompareOp::kGt, Value(50.0)),
                   ibm_));
  EXPECT_FALSE(Eval(MakeComparison("employees", CompareOp::kGt, Value(50.0)),
                    tiny_));
  EXPECT_TRUE(Eval(MakeComparison("employees", CompareOp::kLe, Value(3.0)),
                   tiny_));
  EXPECT_TRUE(Eval(MakeComparison("employees", CompareOp::kGe, Value(100.0)),
                   ibm_));
  EXPECT_TRUE(Eval(MakeComparison("employees", CompareOp::kNe, Value(5.0)),
                   ibm_));
  EXPECT_TRUE(
      Eval(MakeComparison("name", CompareOp::kEq, Value("ibm")), ibm_));
}

TEST_F(PredicateTest, IntLiteralMatchesDoubleColumn) {
  EXPECT_TRUE(Eval(
      MakeComparison("employees", CompareOp::kEq, Value(int64_t{100})), ibm_));
}

TEST_F(PredicateTest, NullCellNeverMatches) {
  EXPECT_FALSE(Eval(MakeComparison("employees", CompareOp::kEq, Value(0.0)),
                    unknown_));
  EXPECT_FALSE(Eval(MakeComparison("employees", CompareOp::kNe, Value(0.0)),
                    unknown_));
}

TEST_F(PredicateTest, NullLiteralNeverMatches) {
  EXPECT_FALSE(
      Eval(MakeComparison("employees", CompareOp::kEq, Value::Null()), ibm_));
}

TEST_F(PredicateTest, AndShortCircuits) {
  const auto p = MakeAnd(
      MakeComparison("employees", CompareOp::kGt, Value(50.0)),
      MakeComparison("name", CompareOp::kEq, Value("ibm")));
  EXPECT_TRUE(Eval(p, ibm_));
  EXPECT_FALSE(Eval(p, tiny_));
}

TEST_F(PredicateTest, OrEitherSide) {
  const auto p = MakeOr(
      MakeComparison("employees", CompareOp::kLt, Value(10.0)),
      MakeComparison("name", CompareOp::kEq, Value("ibm")));
  EXPECT_TRUE(Eval(p, ibm_));
  EXPECT_TRUE(Eval(p, tiny_));
  EXPECT_FALSE(Eval(p, unknown_));
}

TEST_F(PredicateTest, NotInverts) {
  const auto p =
      MakeNot(MakeComparison("employees", CompareOp::kGt, Value(50.0)));
  EXPECT_FALSE(Eval(p, ibm_));
  EXPECT_TRUE(Eval(p, tiny_));
}

// SQL three-valued logic: a comparison with a NULL cell is UNKNOWN, and
// NOT UNKNOWN stays UNKNOWN, so negating a comparison never admits the NULL
// rows the comparison itself dropped.
TEST_F(PredicateTest, NotOverNullStaysUnknown) {
  const auto eq = MakeComparison("employees", CompareOp::kEq, Value(0.0));
  const auto negated = MakeNot(eq);
  EXPECT_FALSE(Eval(negated, unknown_));
  EXPECT_FALSE(Eval(MakeNot(negated), unknown_));
  EXPECT_EQ(Eval(negated, unknown_),
            Eval(MakeComparison("employees", CompareOp::kNe, Value(0.0)),
                 unknown_));
  // x OR NOT x is TRUE on every non-NULL row and UNKNOWN on a NULL one.
  const auto excluded_middle = MakeOr(eq, negated);
  EXPECT_TRUE(Eval(excluded_middle, ibm_));
  EXPECT_TRUE(Eval(excluded_middle, tiny_));
  EXPECT_FALSE(Eval(excluded_middle, unknown_));
  // UNKNOWN AND FALSE is FALSE, whose negation is TRUE; UNKNOWN OR TRUE is
  // TRUE, whose negation is FALSE.
  const auto is_ghost = MakeComparison("name", CompareOp::kEq, Value("ghost"));
  EXPECT_TRUE(Eval(MakeNot(MakeAnd(eq, MakeNot(is_ghost))), unknown_));
  EXPECT_FALSE(Eval(MakeNot(MakeOr(eq, is_ghost)), unknown_));
  // UNKNOWN AND TRUE stays UNKNOWN under NOT.
  EXPECT_FALSE(Eval(MakeNot(MakeAnd(eq, is_ghost)), unknown_));
}

TEST_F(PredicateTest, TrueMatchesEverything) {
  EXPECT_TRUE(Eval(MakeTrue(), ibm_));
  EXPECT_TRUE(Eval(MakeTrue(), unknown_));
}

TEST_F(PredicateTest, EvalUnknownColumnFails) {
  const auto p = MakeComparison("revenue", CompareOp::kGt, Value(1.0));
  EXPECT_FALSE(p->Eval(ibm_, schema_).ok());
}

TEST_F(PredicateTest, BindChecksAllLeaves) {
  const auto good = MakeAnd(
      MakeComparison("name", CompareOp::kEq, Value("x")),
      MakeComparison("employees", CompareOp::kGt, Value(0.0)));
  EXPECT_TRUE(good->Bind(schema_).ok());
  const auto bad = MakeAnd(
      MakeComparison("name", CompareOp::kEq, Value("x")),
      MakeNot(MakeComparison("ghost_col", CompareOp::kGt, Value(0.0))));
  EXPECT_FALSE(bad->Bind(schema_).ok());
}

// A bound predicate resolves each comparison's column once; nested
// comparisons consume their positions left to right, so each leaf reads its
// own column, and Reads() names exactly the columns some leaf reads.
TEST_F(PredicateTest, BindResolvesEveryLeafOnce) {
  const auto p = MakeOr(
      MakeAnd(MakeComparison("employees", CompareOp::kGt, Value(50.0)),
              MakeNot(MakeComparison("name", CompareOp::kEq, Value("ibm")))),
      MakeComparison("name", CompareOp::kEq, Value("tiny")));
  auto bound = p->Bind(schema_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_TRUE(bound.value().Reads(0));
  EXPECT_TRUE(bound.value().Reads(1));
  EXPECT_FALSE(bound.value().Reads(2));
  const Row big_other{Value("acme"), Value(70.0)};
  for (const Row* row : std::vector<const Row*>{&ibm_, &tiny_, &unknown_,
                                                &big_other}) {
    EXPECT_EQ(bound.value()(*row), Eval(p, *row));
  }
  EXPECT_FALSE(bound.value()(ibm_));      // big, but named ibm
  EXPECT_TRUE(bound.value()(tiny_));      // the rhs alternative
  EXPECT_TRUE(bound.value()(big_other));  // big and not ibm

  auto value_only =
      MakeComparison("employees", CompareOp::kLt, Value(10.0))->Bind(schema_);
  ASSERT_TRUE(value_only.ok());
  EXPECT_FALSE(value_only.value().Reads(0));
  EXPECT_TRUE(value_only.value().Reads(1));

  EXPECT_FALSE(MakeTrue()->Bind(schema_).value().Reads(0));
  EXPECT_FALSE(MakeComparison("ghost", CompareOp::kEq, Value(1.0))
                   ->Bind(schema_)
                   .ok());
}

TEST_F(PredicateTest, ToStringRendering) {
  const auto p = MakeAnd(
      MakeComparison("employees", CompareOp::kGe, Value(10.0)),
      MakeNot(MakeComparison("name", CompareOp::kEq, Value("ibm"))));
  EXPECT_EQ(p->ToString(), "((employees >= 10) AND (NOT (name = 'ibm')))");
}

TEST(CompareOpSymbol, AllSymbols) {
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kEq), "=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kNe), "!=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kLt), "<");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kLe), "<=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kGt), ">");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kGe), ">=");
}

}  // namespace
}  // namespace uuq
