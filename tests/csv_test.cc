#include "src/io/csv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "tests/test_util.h"

namespace datatriage::io {
namespace {

using testing::PaperCatalog;

TEST(CsvTest, ParsesTypedEvents) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterStream({"m", Schema({{"i", FieldType::kInt64},
                                                {"d", FieldType::kDouble},
                                                {"s", FieldType::kString}})})
                  .ok());
  auto events = ParseEventsCsv(
      "stream,timestamp,values...\n"
      "m,0.5,42,2.25,hello\n"
      "# a comment line\n"
      "\n"
      "m,1.5,-7,1e3,world\n",
      catalog);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 2u);
  const Tuple& first = (*events)[0].tuple;
  EXPECT_EQ((*events)[0].stream, "m");
  EXPECT_DOUBLE_EQ(first.timestamp(), 0.5);
  EXPECT_EQ(first.value(0).int64(), 42);
  EXPECT_DOUBLE_EQ(first.value(1).dbl(), 2.25);
  EXPECT_EQ(first.value(2).str(), "hello");
  EXPECT_DOUBLE_EQ((*events)[1].tuple.value(1).dbl(), 1000.0);
}

TEST(CsvTest, ParseErrorsCarryLineNumbers) {
  Catalog catalog = PaperCatalog();
  // Wrong arity for stream r (1 column).
  auto wrong_arity = ParseEventsCsv("r,0.5,1,2\n", catalog);
  ASSERT_FALSE(wrong_arity.ok());
  EXPECT_NE(wrong_arity.status().message().find("line 1"),
            std::string::npos);

  auto bad_int = ParseEventsCsv("r,0.5,xyz\n", catalog);
  ASSERT_FALSE(bad_int.ok());
  EXPECT_NE(bad_int.status().message().find("INTEGER"),
            std::string::npos);

  auto bad_ts = ParseEventsCsv("r,abc,1\n", catalog);
  EXPECT_FALSE(bad_ts.ok());

  auto unknown = ParseEventsCsv("nope,0.5,1\n", catalog);
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  auto short_line = ParseEventsCsv("r\n", catalog);
  EXPECT_FALSE(short_line.ok());
}

TEST(CsvTest, IntegerOverflowIsAParseError) {
  Catalog catalog = PaperCatalog();
  for (const char* huge :
       {"99999999999999999999999", "-99999999999999999999999",
        "9223372036854775808", "-9223372036854775809"}) {
    auto events =
        ParseEventsCsv(std::string("r,0.5,1\nr,0.6,") + huge + "\n", catalog);
    ASSERT_FALSE(events.ok()) << huge;
    EXPECT_EQ(events.status().code(), StatusCode::kParseError);
    EXPECT_NE(events.status().message().find("line 2"), std::string::npos)
        << events.status().ToString();
    EXPECT_NE(events.status().message().find(huge), std::string::npos)
        << events.status().ToString();
  }
  // The ends of the range still parse.
  auto edges = ParseEventsCsv(
      "r,0.5,9223372036854775807\nr,0.6,-9223372036854775808\n", catalog);
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  EXPECT_EQ((*edges)[0].tuple.value(0).int64(), INT64_MAX);
  EXPECT_EQ((*edges)[1].tuple.value(0).int64(), INT64_MIN);
}

TEST(CsvTest, EventsRoundTrip) {
  Catalog catalog = PaperCatalog();
  const char* text =
      "r,0.25,5\n"
      "s,0.5,1,2\n"
      "t,0.75,9\n";
  auto events = ParseEventsCsv(text, catalog);
  ASSERT_TRUE(events.ok());
  std::string formatted = FormatEventsCsv(*events);
  auto reparsed = ParseEventsCsv(formatted, catalog);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->size(), events->size());
  for (size_t i = 0; i < events->size(); ++i) {
    EXPECT_EQ((*reparsed)[i].stream, (*events)[i].stream);
    EXPECT_EQ((*reparsed)[i].tuple, (*events)[i].tuple);
    EXPECT_DOUBLE_EQ((*reparsed)[i].tuple.timestamp(),
                     (*events)[i].tuple.timestamp());
  }
}

TEST(CsvTest, SortEventsByTimeIsStable) {
  Catalog catalog = PaperCatalog();
  auto events = ParseEventsCsv(
      "r,2.0,1\n"
      "r,0.5,2\n"
      "s,0.5,3,4\n"
      "t,1.0,5\n",
      catalog);
  ASSERT_TRUE(events.ok());
  SortEventsByTime(&events.value());
  EXPECT_EQ((*events)[0].tuple.value(0).int64(), 2);
  EXPECT_EQ((*events)[1].stream, "s");  // stable: r@0.5 before s@0.5
  EXPECT_EQ((*events)[2].stream, "t");
  EXPECT_EQ((*events)[3].tuple.value(0).int64(), 1);
}

TEST(CsvTest, FormatResultsEmitsExactAndMergedRows) {
  engine::WindowResult result;
  result.window = 3;
  result.emit_time = 5.0;
  result.exact_rows = {testing::Row({1, 10})};
  result.merged_rows = {
      Tuple({Value::Int64(1), Value::Double(12.5)}),
      Tuple({Value::Int64(2), Value::Double(0.5)}),
  };
  std::vector<engine::WindowResult> results;
  results.push_back(std::move(result));
  const std::string csv =
      FormatResultsCsv(results, {"a", "count"});
  EXPECT_NE(csv.find("kind,window,emit_time,a,count"), std::string::npos);
  EXPECT_NE(csv.find("exact,3,5,1,10"), std::string::npos) << csv;
  EXPECT_NE(csv.find("merged,3,5,1,12.5"), std::string::npos) << csv;
  EXPECT_NE(csv.find("merged,3,5,2,0.5"), std::string::npos) << csv;
}

TEST(CsvTest, ReadMissingFileIsNotFound) {
  auto missing = ReadFileToString("/definitely/not/a/file.csv");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace datatriage::io
