#include "db/value.h"

#include <gtest/gtest.h>

namespace uuq {
namespace {

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(Value, TypedConstruction) {
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value(int64_t{3}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(3.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("abc").type(), ValueType::kString);
  EXPECT_EQ(Value(std::string("abc")).type(), ValueType::kString);
}

TEST(Value, Accessors) {
  EXPECT_TRUE(Value(true).AsBool());
  EXPECT_EQ(Value(int64_t{-7}).AsInt64(), -7);
  EXPECT_DOUBLE_EQ(Value(2.25).AsDouble(), 2.25);
  EXPECT_EQ(Value("xyz").AsString(), "xyz");
}

TEST(ValueDeathTest, WrongAccessorAborts) {
  EXPECT_DEATH(Value(1.5).AsInt64(), "not INT64");
  EXPECT_DEATH(Value("s").AsDouble(), "not DOUBLE");
}

TEST(Value, ToDoubleCoercesNumerics) {
  EXPECT_DOUBLE_EQ(Value(int64_t{4}).ToDouble().value(), 4.0);
  EXPECT_DOUBLE_EQ(Value(4.5).ToDouble().value(), 4.5);
}

TEST(Value, ToDoubleRejectsNonNumerics) {
  EXPECT_FALSE(Value("4").ToDouble().ok());
  EXPECT_FALSE(Value(true).ToDouble().ok());
  EXPECT_FALSE(Value::Null().ToDouble().ok());
}

TEST(Value, IntAndDoubleCompareNumerically) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_LT(Value(int64_t{3}), Value(3.5));
  EXPECT_GT(Value(4.0), Value(int64_t{3}));
}

TEST(Value, StringOrdering) {
  EXPECT_LT(Value("apple"), Value("banana"));
  EXPECT_EQ(Value("x"), Value("x"));
  EXPECT_GT(Value("b"), Value("a"));
}

TEST(Value, CrossTypeOrderingIsStable) {
  // NULL < BOOL < numeric < STRING.
  EXPECT_LT(Value::Null(), Value(false));
  EXPECT_LT(Value(true), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{999}), Value("0"));
}

TEST(Value, NullEqualsNull) { EXPECT_EQ(Value::Null(), Value::Null()); }

TEST(Value, BoolOrdering) {
  EXPECT_LT(Value(false), Value(true));
  EXPECT_EQ(Value(true), Value(true));
}

TEST(Value, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(false).ToString(), "false");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(Value, ComparisonOperatorsAgreeWithCompare) {
  const Value a(int64_t{1}), b(int64_t{2});
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(a <= b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(b >= a);
  EXPECT_TRUE(a != b);
  EXPECT_FALSE(a == b);
}

TEST(ValueTypeName, Names) {
  EXPECT_STREQ(ValueTypeName(ValueType::kNull), "NULL");
  EXPECT_STREQ(ValueTypeName(ValueType::kInt64), "INT64");
  EXPECT_STREQ(ValueTypeName(ValueType::kString), "STRING");
}

}  // namespace
}  // namespace uuq
