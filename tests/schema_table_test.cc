#include <gtest/gtest.h>

#include "db/schema.h"

namespace uuq {
namespace {

Schema CompanySchema() {
  return Schema({{"name", ValueType::kString},
                 {"employees", ValueType::kDouble},
                 {"public", ValueType::kBool}});
}

TEST(Schema, IndexOfIsCaseInsensitive) {
  const Schema schema = CompanySchema();
  EXPECT_EQ(schema.IndexOf("name").value(), 0u);
  EXPECT_EQ(schema.IndexOf("EMPLOYEES").value(), 1u);
  EXPECT_EQ(schema.IndexOf("Public").value(), 2u);
}

TEST(Schema, IndexOfMissingIsNotFound) {
  const Schema schema = CompanySchema();
  auto idx = schema.IndexOf("revenue");
  EXPECT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kNotFound);
}

TEST(Schema, HasField) {
  const Schema schema = CompanySchema();
  EXPECT_TRUE(schema.HasField("name"));
  EXPECT_FALSE(schema.HasField("missing"));
}

TEST(Schema, ToStringListsFields) {
  const Schema schema({{"a", ValueType::kInt64}});
  EXPECT_EQ(schema.ToString(), "(a:INT64)");
}

TEST(Schema, EqualityComparesNamesAndTypes) {
  EXPECT_EQ(CompanySchema(), CompanySchema());
  const Schema other({{"name", ValueType::kString}});
  EXPECT_FALSE(CompanySchema() == other);
}

TEST(SchemaDeathTest, DuplicateNamesAbort) {
  EXPECT_DEATH(Schema({{"x", ValueType::kInt64}, {"X", ValueType::kDouble}}),
               "duplicate");
}

}  // namespace
}  // namespace uuq
