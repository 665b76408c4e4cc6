#include "db/csv.h"

#include <gtest/gtest.h>

namespace uuq {
namespace {

TEST(ParseCsv, SimpleRows) {
  auto rows = ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows.value()[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(ParseCsv, NoTrailingNewline) {
  auto rows = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
}

TEST(ParseCsv, CrlfLineEndings) {
  auto rows = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[1][1], "2");
}

TEST(ParseCsv, QuotedFieldWithComma) {
  auto rows = ParseCsv("name,size\n\"Acme, Inc\",5\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value()[1][0], "Acme, Inc");
}

TEST(ParseCsv, EscapedQuotes) {
  auto rows = ParseCsv("a\n\"He said \"\"hi\"\"\"\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value()[1][0], "He said \"hi\"");
}

TEST(ParseCsv, NewlineInsideQuotes) {
  auto rows = ParseCsv("a,b\n\"line1\nline2\",x\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[1][0], "line1\nline2");
}

TEST(ParseCsv, EmptyFieldsPreserved) {
  auto rows = ParseCsv("a,,c\n,,\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value()[0], (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(rows.value()[1], (std::vector<std::string>{"", "", ""}));
}

TEST(ParseCsv, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsv("a\n\"oops\n").ok());
}

TEST(ParseCsv, QuoteInsideUnquotedFieldFails) {
  EXPECT_FALSE(ParseCsv("ab\"c\n").ok());
}

TEST(ParseCsv, EmptyInputIsNoRows) {
  auto rows = ParseCsv("");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
}

TEST(CsvEscapeField, OnlyQuotesWhenNeeded) {
  EXPECT_EQ(CsvEscapeField("plain"), "plain");
  EXPECT_EQ(CsvEscapeField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscapeField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscapeField("two\nlines"), "\"two\nlines\"");
}

TEST(ReadObservationsCsv, Basic) {
  auto obs = ReadObservationsCsv(
      "source,entity,value\nw1,IBM,1000\nw2,Acme,5\n");
  ASSERT_TRUE(obs.ok());
  ASSERT_EQ(obs.value().size(), 2u);
  EXPECT_EQ(obs.value()[0].source_id, "w1");
  EXPECT_EQ(obs.value()[0].entity_key, "IBM");
  EXPECT_DOUBLE_EQ(obs.value()[0].value, 1000.0);
}

TEST(ReadObservationsCsv, ColumnOrderFreeAndCaseInsensitive) {
  auto obs = ReadObservationsCsv(
      "Value,SOURCE,extra,Entity\n3.5,w9,zz,thing\n");
  ASSERT_TRUE(obs.ok());
  EXPECT_EQ(obs.value()[0].source_id, "w9");
  EXPECT_EQ(obs.value()[0].entity_key, "thing");
  EXPECT_DOUBLE_EQ(obs.value()[0].value, 3.5);
}

TEST(ReadObservationsCsv, MissingColumnRejected) {
  EXPECT_FALSE(ReadObservationsCsv("source,entity\nw1,x\n").ok());
}

TEST(ReadObservationsCsv, NonNumericValueRejected) {
  EXPECT_FALSE(
      ReadObservationsCsv("source,entity,value\nw1,x,many\n").ok());
}

// --- Ingest hardening: malformed input comes back as descriptive
// kParseError naming the 1-based source line, never a crash. ------------

TEST(ParseCsv, ReportsRowStartLines) {
  std::vector<size_t> lines;
  // Row 1 starts line 1; row 2's quoted field spans lines 2-3, so row 3
  // starts on line 4.
  auto rows = ParseCsv("a,b\n\"two\nlines\",x\n1,2\n", &lines);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], 1u);
  EXPECT_EQ(lines[1], 2u);
  EXPECT_EQ(lines[2], 4u);
}

TEST(ParseCsv, UnterminatedQuoteNamesItsStartLine) {
  const Status status = ParseCsv("a\nok\n\"trunca").status();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("line 3"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("truncated"), std::string::npos);
}

TEST(ParseCsv, StrayQuoteNamesItsLine) {
  const Status status = ParseCsv("a,b\n1,2\nbad\"field\n").status();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("line 3"), std::string::npos)
      << status.message();
}

TEST(ReadObservationsCsv, TruncatedTrailingRowNamesLine) {
  const Status status =
      ReadObservationsCsv("source,entity,value\nw1,x,1\nw2,y").status();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("line 3"), std::string::npos)
      << status.message();
}

TEST(ReadObservationsCsv, NonNumericValueNamesLineAndField) {
  const Status status =
      ReadObservationsCsv("source,entity,value\nw1,x,1\nw2,y,many\n")
          .status();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("line 3"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("'many'"), std::string::npos);
}

TEST(ReadObservationsCsv, NonFiniteValuesRejected) {
  for (const char* bad : {"inf", "-inf", "nan", "1e999"}) {
    const Status status =
        ReadObservationsCsv(std::string("source,entity,value\nw1,x,") + bad +
                            "\n")
            .status();
    EXPECT_EQ(status.code(), StatusCode::kParseError) << bad;
    EXPECT_NE(status.message().find("line 2"), std::string::npos) << bad;
  }
  // Finite extremes still load.
  EXPECT_TRUE(
      ReadObservationsCsv("source,entity,value\nw1,x,1e300\n").ok());
}

TEST(ReadObservationsCsv, EmptyKeysRejectedWithLine) {
  const Status no_source =
      ReadObservationsCsv("source,entity,value\n,x,1\n").status();
  EXPECT_EQ(no_source.code(), StatusCode::kParseError);
  EXPECT_NE(no_source.message().find("line 2"), std::string::npos);
  EXPECT_NE(no_source.message().find("source"), std::string::npos);

  const Status no_entity =
      ReadObservationsCsv("source,entity,value\nw1,,1\n").status();
  EXPECT_EQ(no_entity.code(), StatusCode::kParseError);
  EXPECT_NE(no_entity.message().find("entity"), std::string::npos);
}

TEST(WriteObservationsCsv, RoundTrips) {
  const std::vector<Observation> stream{{"w1", "IBM, Inc", 1000.0, ""},
                                        {"w2", "Acme", 5.5, ""}};
  const std::string csv = WriteObservationsCsv(stream);
  auto round = ReadObservationsCsv(csv);
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round.value().size(), 2u);
  EXPECT_EQ(round.value()[0].entity_key, "IBM, Inc");
  EXPECT_DOUBLE_EQ(round.value()[1].value, 5.5);
}

}  // namespace
}  // namespace uuq
