#include "common/strings.h"

#include <gtest/gtest.h>

namespace uuq {
namespace {

TEST(AsciiToLower, LowersOnlyAscii) {
  EXPECT_EQ(AsciiToLower("AbC dEf"), "abc def");
  EXPECT_EQ(AsciiToLower(""), "");
  EXPECT_EQ(AsciiToLower("123!@#"), "123!@#");
}

TEST(StripWhitespace, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  abc  "), "abc");
  EXPECT_EQ(StripWhitespace("\t\nabc"), "abc");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(StripWhitespace, AllWhitespaceBecomesEmpty) {
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StripWhitespace, PreservesInnerWhitespace) {
  EXPECT_EQ(StripWhitespace(" a b "), "a b");
}

TEST(Split, BasicSplit) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> pieces{"x", "y", "z"};
  EXPECT_EQ(Join(pieces, ","), "x,y,z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(EqualsIgnoreCase, Matches) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("SeLeCt", "sElEcT"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(EqualsIgnoreCase, Rejects) {
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "SELECT "));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
  EXPECT_FALSE(EqualsIgnoreCase("a", ""));
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(FormatDouble, IntegersHaveNoDecimals) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(-42.0), "-42");
  EXPECT_EQ(FormatDouble(0.0), "0");
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(3.5), "3.5");
  EXPECT_EQ(FormatDouble(3.50000, 6), "3.5");
  EXPECT_EQ(FormatDouble(0.25, 6), "0.25");
}

TEST(FormatDouble, HandlesSpecials) {
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(FormatDouble(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(Padding, PadLeft) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadLeft("abcd", 2), "abcd");  // never truncates below content
}

}  // namespace
}  // namespace uuq
