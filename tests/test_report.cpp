// Tests for the machine-readable experiment report writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "exp/report.hpp"
#include "io/csv.hpp"

namespace rdp {
namespace {

TEST(Report, SeriesValidation) {
  EXPECT_THROW(Series(std::vector<std::string>{}), std::invalid_argument);
  Series s({"x", "y"});
  s.add_row({1.0, 2.0});
  EXPECT_THROW(s.add_row({1.0}), std::invalid_argument);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Report, RequiresId) {
  EXPECT_THROW(ExperimentReport("", "d"), std::invalid_argument);
}

TEST(Report, SeriesReopenChecksColumns) {
  ExperimentReport report("exp", "demo");
  report.series("a", {"x", "y"}).add_row({1.0, 2.0});
  EXPECT_NO_THROW(report.series("a", {"x", "y"}));
  EXPECT_THROW(report.series("a", {"x"}), std::invalid_argument);
}

TEST(Report, JsonContainsEverything) {
  ExperimentReport report("fig3", "ratio vs replication");
  report.set_param("m", 210.0);
  report.set_param("note", "demo");
  Series& s = report.series("alpha-2", {"replication", "ratio"});
  s.add_row({1.0, 7.74});
  s.add_row({3.0, 5.76});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"id\": \"fig3\""), std::string::npos);
  EXPECT_NE(json.find("\"m\": \"210\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha-2\""), std::string::npos);
  EXPECT_NE(json.find("7.74"), std::string::npos);
}

TEST(Report, CsvRoundTripsValues) {
  ExperimentReport report("t", "csv check");
  Series& s = report.series("main", {"x", "y"});
  s.add_row({1.5, 2.25});
  std::ostringstream os;
  report.write_csv(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# series: main"), std::string::npos);
  // Strip comments and parse the CSV payload.
  std::string payload;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '#') continue;
    payload += line + "\n";
  }
  const auto rows = parse_csv(payload);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"x", "y"}));
  EXPECT_DOUBLE_EQ(std::stod(rows[1][0]), 1.5);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][1]), 2.25);
}

TEST(Report, FileWriters) {
  ExperimentReport report("t2", "files");
  report.series("s", {"x"}).add_row({42.0});
  const std::string json_path = ::testing::TempDir() + "/rdp_report.json";
  report.save_json(json_path);
  std::ifstream json_in(json_path);
  EXPECT_TRUE(json_in.good());
  std::remove(json_path.c_str());
  std::ostringstream csv;
  report.write_csv(csv);
  EXPECT_NE(csv.str().find("# series: s"), std::string::npos);
  EXPECT_THROW(report.save_json("/nonexistent-dir/x.json"), std::runtime_error);
}

}  // namespace
}  // namespace rdp
