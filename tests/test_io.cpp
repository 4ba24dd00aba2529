// Tests for CSV, JSON, text tables, and instance (de)serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "rng/rng.hpp"

#include "core/instance.hpp"
#include "io/csv.hpp"
#include "io/instance_io.hpp"
#include "io/json.hpp"
#include "io/table.hpp"

namespace rdp {
namespace {

TEST(Csv, PlainRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, QuotesSpecialCells) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"x,y", "he said \"hi\"", "line\nbreak"});
  EXPECT_EQ(os.str(), "\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(Csv, TypedRowFormatsNumbers) {
  std::ostringstream os;
  CsvWriter w(os);
  w.typed_row("name", 3, 2.5, std::size_t{7});
  EXPECT_EQ(os.str(), "name,3,2.5,7\n");
}

TEST(Csv, ParseRoundTrip) {
  const std::string text = "a,b\n\"x,y\",\"q\"\"q\"\n1,2\n";
  const auto rows = parse_csv(text);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"x,y", "q\"q"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"1", "2"}));
}

TEST(Csv, ParseHandlesCrLfAndMissingFinalNewline) {
  const auto rows = parse_csv("a,b\r\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, ParseEmptyInput) {
  EXPECT_TRUE(parse_csv("").empty());
  EXPECT_TRUE(parse_csv("\n\n").empty());
}

TEST(Csv, ParseRejectsUnterminatedQuoteNamingTheLine) {
  try {
    (void)parse_csv("a,b\nc,\"unclosed");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  // The line reported is where the quoted field *opened*, even if the
  // field swallows later newlines.
  try {
    (void)parse_csv("a\nb\nc,\"spans\nlines");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(Csv, CrLfLeavesNoTrailingCarriageReturn) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, RoundTripQuotedCrLfAndEmbeddedNewlineCells) {
  const std::vector<std::vector<std::string>> original = {
      {"plain", "with,comma", "with\"quote"},
      {"multi\nline", "crlf\r\ninside", "end"},
  };
  std::ostringstream os;
  CsvWriter w(os);
  for (const auto& row : original) w.row(row);
  const auto parsed = parse_csv(os.str());
  EXPECT_EQ(parsed, original);
}

TEST(Csv, QuotedCellFollowedByCrLfRowEnding) {
  const auto rows = parse_csv("\"x,y\"\r\n\"z\"\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"x,y"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"z"}));
}

TEST(Json, Scalars) {
  EXPECT_EQ(JsonValue(nullptr).dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(3).dump(), "3");
  EXPECT_EQ(JsonValue(2.5).dump(), "2.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, ArraysAndObjects) {
  JsonArray arr = {1, 2, 3};
  EXPECT_EQ(JsonValue(arr).dump(), "[1,2,3]");
  JsonObject obj;
  obj["b"] = 2;
  obj["a"] = JsonArray{JsonValue("x")};
  EXPECT_EQ(JsonValue(obj).dump(), "{\"a\":[\"x\"],\"b\":2}");
}

TEST(Json, PrettyPrinting) {
  JsonObject obj;
  obj["k"] = 1;
  const std::string text = JsonValue(obj).dump(2);
  EXPECT_NE(text.find("\n  \"k\": 1"), std::string::npos);
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(), "null");
}

namespace {

/// parse(dump(x)) must give back the exact bit pattern of x.
void expect_round_trip(double x) {
  const std::string text = JsonValue(x).dump();
  const double back = parse_json(text).as_number();
  EXPECT_EQ(std::memcmp(&x, &back, sizeof x), 0)
      << "value " << x << " dumped as '" << text << "' parsed back as " << back;
}

}  // namespace

TEST(Json, NumberRoundTripBoundaries) {
  // Values "%.12g" used to collapse: neighbours differing below ~1e-12.
  expect_round_trip(0.1);
  expect_round_trip(1.0 + 1e-15);
  expect_round_trip(std::nextafter(1.0, 2.0));
  expect_round_trip(1.0 / 3.0);
  // The integer fast path boundary (|d| < 1e15 prints as long long).
  expect_round_trip(1e15);
  expect_round_trip(-1e15);
  expect_round_trip(999999999999999.0);
  expect_round_trip(std::nextafter(1e15, 2e15));
  expect_round_trip(1e15 + 2.0);
  // Extremes and subnormals.
  expect_round_trip(std::numeric_limits<double>::max());
  expect_round_trip(std::numeric_limits<double>::min());
  expect_round_trip(std::numeric_limits<double>::denorm_min());
  expect_round_trip(4.9406564584124654e-310);  // subnormal
  expect_round_trip(0.0);
  expect_round_trip(-0.0);
  EXPECT_EQ(JsonValue(-0.0).dump(), "-0");  // signbit survives the trip
}

TEST(Json, NumberRoundTripRandomDoubles) {
  // 10k doubles drawn from random 64-bit patterns (skipping NaN/inf,
  // which intentionally serialize as null) plus uniform magnitudes.
  Xoshiro256 rng(20260806);
  std::size_t tested = 0;
  while (tested < 10'000) {
    double x;
    if (tested % 2 == 0) {
      const std::uint64_t bits = rng.next();
      std::memcpy(&x, &bits, sizeof x);
      if (!std::isfinite(x)) continue;
    } else {
      // Exercise the human-scale range the library actually emits.
      x = (rng.next_double() - 0.5) * 2e6;
    }
    expect_round_trip(x);
    ++tested;
  }
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "v"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Header, separator and the two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TextTable, RejectsWidthMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, NumericRowUsesPrecision) {
  TextTable t({"x", "y"});
  t.add_numeric_row({1.23456, 2.0}, 2);
  EXPECT_NE(t.render().find("1.23"), std::string::npos);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(InstanceIo, RoundTripThroughString) {
  Instance inst({{1.5, 2.0}, {3.25, 0.5}}, 4, 1.75);
  const Instance back = parse_instance(instance_to_string(inst));
  EXPECT_EQ(back.num_tasks(), 2u);
  EXPECT_EQ(back.num_machines(), 4u);
  EXPECT_DOUBLE_EQ(back.alpha(), 1.75);
  EXPECT_DOUBLE_EQ(back.estimate(0), 1.5);
  EXPECT_DOUBLE_EQ(back.size(1), 0.5);
}

TEST(InstanceIo, CommentsIgnored) {
  const std::string text = "# hello\nmachines,2,alpha,1.5\n1,1\n# mid comment\n2,2\n";
  const Instance inst = parse_instance(text);
  EXPECT_EQ(inst.num_tasks(), 2u);
}

TEST(InstanceIo, MalformedHeaderRejected) {
  EXPECT_THROW((void)parse_instance("nope,2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_instance(""), std::invalid_argument);
  EXPECT_THROW((void)parse_instance("machines,x,alpha,1.5\n"), std::invalid_argument);
}

TEST(InstanceIo, MalformedTaskRowRejected) {
  EXPECT_THROW((void)parse_instance("machines,2,alpha,1.5\n1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_instance("machines,2,alpha,1.5\nabc,1\n"),
               std::invalid_argument);
}

TEST(InstanceIo, FileRoundTrip) {
  Instance inst({{2.0, 3.0}}, 2, 1.25);
  const std::string path = ::testing::TempDir() + "/rdp_instance_test.csv";
  save_instance(path, inst);
  const Instance back = load_instance(path);
  EXPECT_DOUBLE_EQ(back.estimate(0), 2.0);
  std::remove(path.c_str());
}

TEST(InstanceIo, MissingFileThrows) {
  EXPECT_THROW((void)load_instance("/nonexistent/rdp.csv"), std::runtime_error);
}

}  // namespace
}  // namespace rdp
