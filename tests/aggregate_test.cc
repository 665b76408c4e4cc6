#include "db/aggregate.h"

#include <gtest/gtest.h>

namespace uuq {
namespace {

TEST(ParseAggregateKind, AllNamesCaseInsensitive) {
  EXPECT_EQ(ParseAggregateKind("SUM").value(), AggregateKind::kSum);
  EXPECT_EQ(ParseAggregateKind("count").value(), AggregateKind::kCount);
  EXPECT_EQ(ParseAggregateKind("Avg").value(), AggregateKind::kAvg);
  EXPECT_EQ(ParseAggregateKind("mIn").value(), AggregateKind::kMin);
  EXPECT_EQ(ParseAggregateKind("MAX").value(), AggregateKind::kMax);
  EXPECT_FALSE(ParseAggregateKind("median").ok());
}

TEST(AggregateKindName, Names) {
  EXPECT_STREQ(AggregateKindName(AggregateKind::kSum), "SUM");
  EXPECT_STREQ(AggregateKindName(AggregateKind::kMax), "MAX");
}

}  // namespace
}  // namespace uuq
