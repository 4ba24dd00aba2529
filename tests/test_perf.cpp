// Tests for the perf regression gate (src/perf/): BenchRecord building
// and loading (a saved record or a --metrics-out snapshot, and nothing
// else), min-of-k repeat merging, JSON round-trips, and the noise-aware
// comparison -- including the golden cases: a self-compare is clean, and
// an injected 2x slowdown is detected and named.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "perf/bench_record.hpp"
#include "perf/compare.hpp"

namespace rdp {
namespace {

using perf::Direction;
using perf::Noise;

JsonValue certify_params(double trials = 2) {
  JsonObject params;
  params["alphas"] = JsonArray{JsonValue(1.5)};
  params["budget"] = 300000;
  params["m"] = 8;
  params["n"] = 22;
  params["threads"] = 8;
  params["trials"] = trials;
  return JsonValue(std::move(params));
}

// A miniature certify-speedup record, built the way the bench builds it.
perf::BenchRecord certify_record(double seq_seconds = 0.021,
                                 double hit_rate = 0.8) {
  perf::BenchRecord record;
  record.name = "certify";
  record.source = "BENCH_certify_smoke.json";
  record.set_params(certify_params());
  record.add("timing.engine_seq_seconds", seq_seconds, Direction::kLower,
             Noise::kTiming);
  record.add("timing.engine_par_seconds", 0.022, Direction::kLower, Noise::kTiming);
  record.add("timing.legacy_seconds", 0.110, Direction::kLower, Noise::kTiming);
  record.add("timing.speedup_seq", 5.2, Direction::kHigher, Noise::kTiming);
  record.add("cache.hit_rate", hit_rate, Direction::kHigher, Noise::kExact);
  record.add("checks.seq_par_bit_mismatches", 0, Direction::kLower, Noise::kExact);
  record.add("checks.max_abs_diff_vs_legacy", 2.2e-16, Direction::kLower,
             Noise::kExact, /*abs_slack=*/1e-12);
  return record;
}

/// The saved JSON of certify_record() with one field of the
/// cache.hit_rate metric replaced.
JsonValue with_hit_rate_field(const std::string& field, JsonValue value) {
  JsonObject root = parse_json(certify_record().to_json()).as_object();
  JsonObject metrics = root.at("metrics").as_object();
  JsonObject metric = metrics.at("cache.hit_rate").as_object();
  metric[field] = std::move(value);
  metrics["cache.hit_rate"] = std::move(metric);
  root["metrics"] = std::move(metrics);
  return JsonValue(std::move(root));
}

void expect_rejected(const JsonValue& doc, const std::string& what) {
  try {
    (void)perf::normalize_bench_json(doc, "copy.json");
    FAIL() << "accepted " << what;
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("copy.json"), std::string::npos) << message;
    EXPECT_NE(message.find("cache.hit_rate"), std::string::npos) << message;
  }
}

// --- Building and loading ---------------------------------------------------

TEST(BenchRecord, AddAndSetParamsBuildTheGateRecord) {
  const perf::BenchRecord record = certify_record();
  EXPECT_EQ(record.params_json, certify_params().dump(-1));
  EXPECT_EQ(record.params_hash, perf::fnv1a_hex(record.params_json));
  EXPECT_EQ(record.params_hash.size(), 16u);

  const perf::BenchMetric* slack = record.find("checks.max_abs_diff_vs_legacy");
  ASSERT_NE(slack, nullptr);
  EXPECT_EQ(slack->direction, Direction::kLower);
  EXPECT_EQ(slack->noise, Noise::kExact);
  EXPECT_DOUBLE_EQ(slack->abs_slack, 1e-12);
  EXPECT_EQ(slack->repeats, std::vector<double>{2.2e-16});
}

TEST(BenchRecord, LabelsKeepTheirOnDiskSpelling) {
  EXPECT_EQ(perf::to_string(Direction::kLower), "lower");
  EXPECT_EQ(perf::to_string(Direction::kHigher), "higher");
  EXPECT_EQ(perf::to_string(Direction::kNone), "none");
  EXPECT_EQ(perf::to_string(Noise::kTiming), "timing");
  EXPECT_EQ(perf::to_string(Noise::kExact), "exact");
  const std::string json = certify_record().to_json(-1);
  EXPECT_NE(json.find(R"("direction":"higher","mad":0,"noise":"exact")"),
            std::string::npos)
      << json;
}

TEST(BenchRecord, LoadingFillsAnEmptySourceFromTheFileName) {
  perf::BenchRecord record = certify_record();
  record.source.clear();
  EXPECT_EQ(perf::normalize_bench_json(parse_json(record.to_json()),
                                       "BENCH_x_smoke.json")
                .source,
            "BENCH_x_smoke.json");
  record.source = "BENCH_certify.json";
  EXPECT_EQ(perf::normalize_bench_json(parse_json(record.to_json()), "copy.json")
                .source,
            "BENCH_certify.json");
}

TEST(BenchRecord, RejectsMistypedDirection) {
  expect_rejected(with_hit_rate_field("direction", "lowr"), "direction 'lowr'");
}

TEST(BenchRecord, RejectsMistypedNoise) {
  expect_rejected(with_hit_rate_field("noise", "exct"), "noise 'exct'");
}

TEST(BenchRecord, RejectsNonNumericValue) {
  expect_rejected(with_hit_rate_field("value", "0.8"), "a string value");
  expect_rejected(with_hit_rate_field("value", nullptr), "a null value");
}

TEST(BenchRecord, RejectsNonFiniteValue) {
  expect_rejected(
      with_hit_rate_field("value", std::numeric_limits<double>::infinity()),
      "an infinite value");
  expect_rejected(
      with_hit_rate_field("value", std::numeric_limits<double>::quiet_NaN()),
      "a NaN value");
}

TEST(BenchRecord, RejectsBadRepeats) {
  expect_rejected(with_hit_rate_field("repeats", JsonArray{JsonValue("x")}),
                  "a string repeat");
  expect_rejected(
      with_hit_rate_field("repeats", JsonArray{JsonValue(std::nan(""))}),
      "a NaN repeat");
}

TEST(BenchRecord, RejectsBadAbsSlack) {
  expect_rejected(with_hit_rate_field("abs_slack", true), "a boolean abs_slack");
  expect_rejected(
      with_hit_rate_field("abs_slack", std::numeric_limits<double>::infinity()),
      "an infinite abs_slack");
}

TEST(BenchRecord, RejectsUnsupportedSchemaVersion) {
  JsonObject root = parse_json(certify_record().to_json()).as_object();
  root["schema_version"] = 2;
  try {
    (void)perf::normalize_bench_json(JsonValue(std::move(root)), "copy.json");
    FAIL() << "accepted schema_version 2";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("copy.json"), std::string::npos) << message;
    EXPECT_NE(message.find("schema_version"), std::string::npos) << message;
  }
}

TEST(BenchRecord, RejectsRecordWithoutMetricsObject) {
  JsonObject root = parse_json(certify_record().to_json()).as_object();
  root["metrics"] = JsonArray{};
  EXPECT_THROW(
      (void)perf::normalize_bench_json(JsonValue(std::move(root)), "copy.json"),
      std::runtime_error);
}

// What a bench writes with save() is what the gate reads back with
// load_bench_file(), and an empty `source` becomes the bare file name.
TEST(BenchRecord, SaveWritesWhatLoadBenchFileReads) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "rdp_test_bench_record.json";
  perf::BenchRecord record = certify_record();
  record.source.clear();
  record.save(path.string());
  const perf::BenchRecord back = perf::load_bench_file(path.string());
  std::remove(path.string().c_str());
  EXPECT_EQ(back.source, "rdp_test_bench_record.json");
  EXPECT_EQ(back.name, record.name);
  EXPECT_EQ(back.params_json, record.params_json);
  EXPECT_EQ(back.params_hash, record.params_hash);
  ASSERT_EQ(back.metrics.size(), record.metrics.size());
  for (const auto& [key, m] : record.metrics) {
    const perf::BenchMetric* other = back.find(key);
    ASSERT_NE(other, nullptr) << key;
    EXPECT_EQ(other->value, m.value) << key;
    EXPECT_EQ(other->direction, m.direction) << key;
    EXPECT_EQ(other->noise, m.noise) << key;
    EXPECT_EQ(other->abs_slack, m.abs_slack) << key;
  }
}

TEST(BenchRecord, NormalizesMetricsSnapshotShape) {
  const char* snapshot = R"({
    "counters": {"sim.dispatch.calls": 40},
    "gauges": {"sweep.cells_per_sec": 7000.0},
    "histograms": {"sweep.cell_seconds": {
      "count": 40, "mean": 0.001, "stddev": 0.0001, "min": 0.0005,
      "max": 0.002, "sum": 0.04, "p50": 0.0009, "p90": 0.0015, "p99": 0.0019}}
  })";
  const perf::BenchRecord record =
      perf::normalize_bench_json(parse_json(snapshot), "metrics.json");
  EXPECT_EQ(record.name, "metrics_snapshot");
  const perf::BenchMetric* p99 = record.find("histograms.sweep.cell_seconds.p99");
  ASSERT_NE(p99, nullptr);
  EXPECT_EQ(p99->direction, Direction::kLower)
      << "seconds-like histograms gate on tails";
  EXPECT_DOUBLE_EQ(p99->value, 0.0019);
  const perf::BenchMetric* calls = record.find("counters.sim.dispatch.calls");
  ASSERT_NE(calls, nullptr);
  EXPECT_EQ(calls->direction, Direction::kNone) << "counters are informational";
}

TEST(BenchRecord, RejectsEveryOtherShape) {
  EXPECT_THROW(
      (void)perf::normalize_bench_json(parse_json(R"({"foo": 1})"), "x.json"),
      std::runtime_error);
  // A raw bench summary (the shape benches wrote before they built
  // records) is not a record.
  EXPECT_THROW((void)perf::normalize_bench_json(
                   parse_json(R"({"multiplier": 1.7, "baseline_seconds": 1.1})"),
                   "x.json"),
               std::runtime_error);
  EXPECT_THROW((void)perf::load_bench_file("/nonexistent/bench.json"),
               std::runtime_error);
}

TEST(BenchRecord, JsonRoundTripPreservesEverything) {
  perf::BenchRecord record = certify_record();
  record.git_sha = "abc123";
  record.host = perf::host_fingerprint();
  const perf::BenchRecord back =
      perf::normalize_bench_json(parse_json(record.to_json()), "roundtrip.json");
  EXPECT_EQ(back.name, record.name);
  EXPECT_EQ(back.params_hash, record.params_hash);
  EXPECT_EQ(back.git_sha, "abc123");
  EXPECT_EQ(back.host, record.host);
  ASSERT_EQ(back.metrics.size(), record.metrics.size());
  for (const auto& [key, m] : record.metrics) {
    const perf::BenchMetric* other = back.find(key);
    ASSERT_NE(other, nullptr) << key;
    EXPECT_DOUBLE_EQ(other->value, m.value);
    EXPECT_EQ(other->direction, m.direction);
    EXPECT_EQ(other->noise, m.noise);
    EXPECT_DOUBLE_EQ(other->abs_slack, m.abs_slack);
    EXPECT_EQ(other->repeats, m.repeats);
  }
}

TEST(BenchRecord, MergeRepeatsTakesBestAndComputesMad) {
  std::vector<perf::BenchRecord> runs = {certify_record(0.030),
                                         certify_record(0.021),
                                         certify_record(0.025)};
  const perf::BenchRecord merged = perf::merge_repeats(runs);
  const perf::BenchMetric* seq = merged.find("timing.engine_seq_seconds");
  ASSERT_NE(seq, nullptr);
  EXPECT_DOUBLE_EQ(seq->value, 0.021) << "min-of-k for lower-is-better";
  EXPECT_EQ(seq->repeats.size(), 3u);
  // MAD of {0.030, 0.021, 0.025}: median 0.025, deviations {5,4,0}e-3,
  // median deviation 4e-3.
  EXPECT_NEAR(seq->mad, 0.004, 1e-12);
  const perf::BenchMetric* speedup = merged.find("timing.speedup_seq");
  ASSERT_NE(speedup, nullptr);
  EXPECT_DOUBLE_EQ(speedup->value, 5.2) << "max-of-k for higher-is-better";
}

TEST(BenchRecord, MergeRejectsMismatchedParams) {
  perf::BenchRecord other = certify_record();
  other.set_params(certify_params(64));  // different workload
  EXPECT_THROW((void)perf::merge_repeats({certify_record(), other}),
               std::runtime_error);
}

TEST(BenchRecord, Fnv1aIsStable) {
  EXPECT_EQ(perf::fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(perf::fnv1a_hex("a"), perf::fnv1a_hex("a"));
  EXPECT_NE(perf::fnv1a_hex("a"), perf::fnv1a_hex("b"));
}

// --- Comparison ------------------------------------------------------------

TEST(PerfCompare, SelfCompareIsClean) {
  const perf::BenchRecord record = certify_record();
  const perf::CompareResult result = perf::compare_records(record, record);
  EXPECT_FALSE(result.regressed());
  for (const auto& verdict : result.metrics) {
    EXPECT_TRUE(verdict.status == "ok" || verdict.status == "info")
        << verdict.name << " -> " << verdict.status;
  }
}

// The ISSUE's golden case: double one timing metric, the gate must fire
// and name it.
TEST(PerfCompare, DetectsInjectedTwoXSlowdownByName) {
  const perf::BenchRecord baseline = certify_record(0.021);
  const perf::BenchRecord slowed = certify_record(0.042);
  const perf::CompareResult result = perf::compare_records(baseline, slowed);
  EXPECT_TRUE(result.regressed());
  bool named = false;
  for (const auto& verdict : result.metrics) {
    if (verdict.name == "timing.engine_seq_seconds") {
      EXPECT_EQ(verdict.status, "regressed");
      named = true;
    } else {
      EXPECT_NE(verdict.status, "regressed") << verdict.name;
    }
  }
  EXPECT_TRUE(named);
  // Both renderings carry the verdict.
  EXPECT_NE(result.render_table().find("timing.engine_seq_seconds"),
            std::string::npos);
  EXPECT_NE(result.render_table().find("REGRESSED"), std::string::npos);
  const std::string json = result.to_json().dump(-1);
  EXPECT_NE(json.find("\"regressed\":true"), std::string::npos);
}

TEST(PerfCompare, ImprovementIsNotARegression) {
  const perf::CompareResult result =
      perf::compare_records(certify_record(0.042), certify_record(0.021));
  EXPECT_FALSE(result.regressed());
  bool improved = false;
  for (const auto& verdict : result.metrics) {
    improved = improved || (verdict.name == "timing.engine_seq_seconds" &&
                            verdict.status == "improved");
  }
  EXPECT_TRUE(improved);
}

TEST(PerfCompare, SmallJitterWithinToleranceIsOk) {
  const perf::CompareResult result =
      perf::compare_records(certify_record(0.021), certify_record(0.0220));
  EXPECT_FALSE(result.regressed()) << "~5% < 20% timing tolerance";
}

TEST(PerfCompare, MadWidensTheThreshold) {
  // A baseline whose repeats are noisy (MAD 0.004) tolerates a current
  // value that a tight single-run threshold would flag.
  const perf::BenchRecord noisy_baseline = perf::merge_repeats(
      {certify_record(0.030), certify_record(0.021), certify_record(0.025)});
  // 0.021 -> 0.036: +71% over the min, but within 4 * MAD = 0.016.
  const perf::CompareResult result =
      perf::compare_records(noisy_baseline, certify_record(0.036));
  EXPECT_FALSE(result.regressed());
}

TEST(PerfCompare, ParamsDriftRegressesUnlessIgnored) {
  perf::BenchRecord other = certify_record();
  other.set_params(certify_params(64));

  const perf::CompareResult strict = perf::compare_records(certify_record(), other);
  EXPECT_FALSE(strict.params_match);
  EXPECT_TRUE(strict.regressed());
  EXPECT_TRUE(strict.schema_broken());

  perf::CompareOptions options;
  options.ignore_params = true;
  const perf::CompareResult loose =
      perf::compare_records(certify_record(), other, options);
  EXPECT_FALSE(loose.regressed());
  EXPECT_FALSE(loose.schema_broken());
}

TEST(PerfCompare, VanishedMetricIsARegression) {
  const perf::BenchRecord baseline = certify_record();
  perf::BenchRecord current = baseline;
  current.metrics.erase("timing.engine_seq_seconds");
  const perf::CompareResult result = perf::compare_records(baseline, current);
  EXPECT_TRUE(result.regressed());
  // A timing metric that vanished still fails `--warn-only --enforce-exact`.
  EXPECT_TRUE(result.schema_broken());
  EXPECT_TRUE(result.exact_regressed());
  bool missing = false;
  for (const auto& verdict : result.metrics) {
    missing = missing || (verdict.name == "timing.engine_seq_seconds" &&
                          verdict.status == "missing");
  }
  EXPECT_TRUE(missing);
}

TEST(PerfCompare, NewMetricIsInformational) {
  const perf::BenchRecord baseline = certify_record();
  perf::BenchRecord current = baseline;
  perf::BenchMetric extra;
  extra.name = "timing.new_path_seconds";
  extra.value = 1.0;
  extra.repeats = {1.0};
  current.metrics.emplace(extra.name, extra);
  const perf::CompareResult result = perf::compare_records(baseline, current);
  EXPECT_FALSE(result.regressed());
  bool found_new = false;
  for (const auto& verdict : result.metrics) {
    found_new = found_new ||
                (verdict.name == "timing.new_path_seconds" && verdict.status == "new");
  }
  EXPECT_TRUE(found_new);
}

TEST(PerfCompare, AbsSlackProtectsNearZeroBaselines) {
  const auto overhead = [](double off_ns) {
    perf::BenchRecord record;
    record.name = "check_overhead";
    record.add("off_overhead_ns_per_dispatch", off_ns, Direction::kLower,
               Noise::kTiming, /*abs_slack=*/50.0);
    return record;
  };
  // Off-overhead jumps 2.5ns -> 40ns: a 16x relative change that is still
  // scheduler noise in absolute terms -- inside the 50ns slack.
  const perf::CompareResult result =
      perf::compare_records(overhead(2.5), overhead(40.0));
  EXPECT_FALSE(result.regressed());
}

TEST(PerfCompare, ExactMetricsAreTight) {
  // Cache effectiveness collapsed; also a 0.80 -> 0.79 drop, which the
  // 20% timing tolerance would wave through.
  for (const double hit_rate : {0.5, 0.79}) {
    const perf::CompareResult result =
        perf::compare_records(certify_record(), certify_record(0.021, hit_rate));
    EXPECT_TRUE(result.regressed()) << hit_rate;
    EXPECT_TRUE(result.exact_regressed()) << hit_rate;
    bool named = false;
    for (const auto& verdict : result.metrics) {
      named = named || (verdict.name == "cache.hit_rate" &&
                        verdict.status == "regressed");
    }
    EXPECT_TRUE(named) << hit_rate;
  }
}

TEST(PerfCompare, HigherIsBetterRegressesOnADrop) {
  const auto speedup = [](double value) {
    perf::BenchRecord record = certify_record();
    record.add("timing.speedup_seq", value, Direction::kHigher, Noise::kTiming);
    return record;
  };
  const auto status_of = [](const perf::CompareResult& result) {
    for (const auto& verdict : result.metrics) {
      if (verdict.name == "timing.speedup_seq") return verdict.status;
    }
    return std::string("absent");
  };
  const perf::CompareResult dropped = perf::compare_records(speedup(5.2), speedup(2.0));
  EXPECT_TRUE(dropped.regressed());
  EXPECT_EQ(status_of(dropped), "regressed");
  const perf::CompareResult doubled = perf::compare_records(speedup(5.2), speedup(10.4));
  EXPECT_FALSE(doubled.regressed());
  EXPECT_EQ(status_of(doubled), "improved");
}

TEST(PerfCompare, DirectionNoneIsReportedButNeverGates) {
  const auto with_info = [](double value) {
    perf::BenchRecord record = certify_record();
    record.add("info.trials", value, Direction::kNone, Noise::kExact);
    return record;
  };
  const perf::CompareResult result =
      perf::compare_records(with_info(1.0), with_info(10.0));
  EXPECT_FALSE(result.regressed());
  EXPECT_FALSE(result.exact_regressed());
  bool reported = false;
  for (const auto& verdict : result.metrics) {
    reported = reported ||
               (verdict.name == "info.trials" && verdict.status == "info");
  }
  EXPECT_TRUE(reported);
  // An informational metric may also vanish without breaking the schema.
  const perf::CompareResult vanished =
      perf::compare_records(with_info(1.0), certify_record());
  EXPECT_FALSE(vanished.regressed());
  EXPECT_FALSE(vanished.schema_broken());
}

TEST(PerfCompare, HostMismatchIsNotedButDoesNotGate) {
  perf::BenchRecord baseline = certify_record();
  baseline.host = "Linux/x86_64/ncpu=8";
  perf::BenchRecord current = certify_record();
  current.host = "Darwin/arm64/ncpu=10";
  const perf::CompareResult result = perf::compare_records(baseline, current);
  EXPECT_FALSE(result.host_match);
  EXPECT_FALSE(result.regressed());
  ASSERT_FALSE(result.notes.empty());
}

}  // namespace
}  // namespace rdp
