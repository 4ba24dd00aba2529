#include "perf/bench_record.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "io/json.hpp"
#include "repro/manifest.hpp"

namespace rdp::perf {

namespace {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double median_abs_deviation(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0;
  const double med = median(xs);
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) dev.push_back(std::fabs(x - med));
  return median(std::move(dev));
}

/// Recomputes `value` (best repeat in direction) and `mad` from repeats.
void finalize_metric(BenchMetric& m) {
  if (m.repeats.empty()) m.repeats.push_back(m.value);
  if (m.direction == Direction::kHigher) {
    m.value = *std::max_element(m.repeats.begin(), m.repeats.end());
  } else {
    m.value = *std::min_element(m.repeats.begin(), m.repeats.end());
  }
  m.mad = median_abs_deviation(m.repeats);
}

bool seconds_like(const std::string& name) {
  return name.find("seconds") != std::string::npos ||
         name.find("_time") != std::string::npos;
}

/// --metrics-out snapshot shape: {counters, gauges, histograms}. Counters
/// and gauges are workload-dependent tallies -> informational. Histogram
/// mean/percentiles of *_seconds series are latencies -> gated
/// lower-is-better timing metrics.
BenchRecord normalize_snapshot(const JsonValue& doc, const std::string& source) {
  BenchRecord record;
  record.name = "metrics_snapshot";
  record.source = source;
  if (const JsonValue* counters = doc.find("counters")) {
    for (const auto& [key, value] : counters->as_object()) {
      record.add("counters." + key, value.as_number(), Direction::kNone,
                 Noise::kExact);
    }
  }
  if (const JsonValue* gauges = doc.find("gauges")) {
    for (const auto& [key, value] : gauges->as_object()) {
      record.add("gauges." + key, value.as_number(), Direction::kNone,
                 Noise::kTiming);
    }
  }
  if (const JsonValue* histograms = doc.find("histograms")) {
    for (const auto& [key, value] : histograms->as_object()) {
      const Direction direction =
          seconds_like(key) ? Direction::kLower : Direction::kNone;
      for (const char* field : {"mean", "p50", "p90", "p99"}) {
        record.add("histograms." + key + "." + field, value.get_number(field),
                   direction, Noise::kTiming);
      }
      record.add("histograms." + key + ".count", value.get_number("count"),
                 Direction::kNone, Noise::kExact);
    }
  }
  return record;
}

[[noreturn]] void bad_metric(const std::string& source, const std::string& key,
                             const std::string& what) {
  throw std::runtime_error("perf: " + source + ": metric '" + key + "': " +
                           what);
}

/// A required finite number; `field` names it in the error.
double finite_number(const JsonValue* v, const std::string& source,
                     const std::string& key, const std::string& field) {
  if (v == nullptr || !v->is_number() || !std::isfinite(v->as_number())) {
    bad_metric(source, key, field + " is not a finite number");
  }
  return v->as_number();
}

Direction parse_direction(const std::string& label, const std::string& source,
                          const std::string& key) {
  for (const Direction d : {Direction::kLower, Direction::kHigher, Direction::kNone}) {
    if (label == to_string(d)) return d;
  }
  bad_metric(source, key, "unknown direction '" + label + "'");
}

Noise parse_noise(const std::string& label, const std::string& source,
                  const std::string& key) {
  for (const Noise n : {Noise::kTiming, Noise::kExact}) {
    if (label == to_string(n)) return n;
  }
  bad_metric(source, key, "unknown noise class '" + label + "'");
}

/// A saved BenchRecord (round-trip of to_json()).
BenchRecord parse_record(const JsonValue& doc, const std::string& source) {
  BenchRecord record;
  record.schema_version = static_cast<int>(doc.get_number("schema_version", 0));
  if (record.schema_version != BenchRecord{}.schema_version) {
    throw std::runtime_error("perf: " + source + ": unsupported schema_version " +
                             std::to_string(record.schema_version));
  }
  record.name = doc.get_string("name");
  // A bench leaves `source` empty; the file it was loaded from names it.
  record.source = doc.get_string("source");
  if (record.source.empty()) record.source = source;
  record.params_hash = doc.get_string("params_hash");
  record.params_json = doc.get_string("params_json");
  record.git_sha = doc.get_string("git_sha");
  record.host = doc.get_string("host");
  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    throw std::runtime_error("perf: " + source + ": record has no metrics object");
  }
  for (const auto& [key, value] : metrics->as_object()) {
    BenchMetric m;
    m.name = key;
    m.value = finite_number(value.find("value"), source, key, "value");
    m.direction = parse_direction(value.get_string("direction"), source, key);
    m.noise = parse_noise(value.get_string("noise"), source, key);
    if (const JsonValue* slack = value.find("abs_slack")) {
      m.abs_slack = finite_number(slack, source, key, "abs_slack");
    }
    if (const JsonValue* repeats = value.find("repeats")) {
      if (!repeats->is_array()) bad_metric(source, key, "repeats is not an array");
      for (const JsonValue& r : repeats->as_array()) {
        m.repeats.push_back(finite_number(&r, source, key, "a repeats entry"));
      }
    }
    record.metrics.emplace(key, std::move(m));
  }
  return record;
}

}  // namespace

std::string_view to_string(Direction direction) {
  switch (direction) {
    case Direction::kLower: return "lower";
    case Direction::kHigher: return "higher";
    case Direction::kNone: return "none";
  }
  return "?";
}

std::string_view to_string(Noise noise) {
  switch (noise) {
    case Noise::kTiming: return "timing";
    case Noise::kExact: return "exact";
  }
  return "?";
}

void BenchRecord::add(std::string metric, double value, Direction direction,
                      Noise noise, double abs_slack) {
  BenchMetric m;
  m.name = metric;
  m.value = value;
  m.direction = direction;
  m.noise = noise;
  m.abs_slack = abs_slack;
  m.repeats.push_back(value);
  metrics.insert_or_assign(std::move(metric), std::move(m));
}

void BenchRecord::set_params(const JsonValue& params) {
  params_json = params.dump(-1);
  params_hash = fnv1a_hex(params_json);
}

const BenchMetric* BenchRecord::find(const std::string& metric) const {
  const auto it = metrics.find(metric);
  return it == metrics.end() ? nullptr : &it->second;
}

std::string BenchRecord::to_json(int indent) const {
  JsonObject metric_objects;
  for (const auto& [key, m] : metrics) {
    JsonObject obj;
    obj["value"] = m.value;
    obj["direction"] = std::string(to_string(m.direction));
    obj["noise"] = std::string(to_string(m.noise));
    obj["abs_slack"] = m.abs_slack;
    obj["mad"] = m.mad;
    JsonArray repeats;
    for (double r : m.repeats) repeats.emplace_back(r);
    obj["repeats"] = std::move(repeats);
    metric_objects[key] = std::move(obj);
  }
  JsonObject root;
  root["schema_version"] = schema_version;
  root["name"] = name;
  root["source"] = source;
  root["params_hash"] = params_hash;
  root["params_json"] = params_json;
  root["git_sha"] = git_sha;
  root["host"] = host;
  root["metrics"] = std::move(metric_objects);
  return JsonValue(std::move(root)).dump(indent);
}

void BenchRecord::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perf: cannot open " + path);
  out << to_json() << "\n";
  if (!out) throw std::runtime_error("perf: write failed for " + path);
}

BenchRecord normalize_bench_json(const JsonValue& doc, const std::string& source) {
  if (!doc.is_object()) {
    throw std::runtime_error("perf: " + source + ": not a JSON object");
  }
  BenchRecord record;
  if (doc.find("schema_version") != nullptr && doc.find("metrics") != nullptr) {
    record = parse_record(doc, source);
  } else if (doc.find("counters") != nullptr &&
             doc.find("histograms") != nullptr) {
    record = normalize_snapshot(doc, source);
  } else {
    throw std::runtime_error(
        "perf: " + source +
        ": unrecognized benchmark JSON shape (expected a BenchRecord or a "
        "--metrics-out snapshot)");
  }
  for (auto& [key, m] : record.metrics) finalize_metric(m);
  return record;
}

BenchRecord load_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perf: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue doc;
  try {
    doc = parse_json(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error("perf: " + path + ": " + e.what());
  }
  // Strip the directory so `source` matches regardless of where the raw
  // file was when it was recorded.
  std::string source = path;
  const std::size_t slash = source.find_last_of("/\\");
  if (slash != std::string::npos) source = source.substr(slash + 1);
  return normalize_bench_json(doc, source);
}

BenchRecord merge_repeats(const std::vector<BenchRecord>& runs) {
  if (runs.empty()) throw std::runtime_error("perf: merge_repeats of nothing");
  BenchRecord merged = runs.front();
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const BenchRecord& run = runs[i];
    if (run.name != merged.name) {
      throw std::runtime_error("perf: cannot merge '" + run.name + "' into '" +
                               merged.name + "' -- different benchmarks");
    }
    if (run.params_hash != merged.params_hash) {
      throw std::runtime_error("perf: repeats of '" + merged.name +
                               "' ran with different params (hash " +
                               run.params_hash + " vs " + merged.params_hash +
                               ")");
    }
    for (const auto& [key, m] : run.metrics) {
      auto it = merged.metrics.find(key);
      if (it == merged.metrics.end()) {
        merged.metrics.emplace(key, m);
      } else {
        it->second.repeats.insert(it->second.repeats.end(), m.repeats.begin(),
                                  m.repeats.end());
      }
    }
  }
  for (auto& [key, m] : merged.metrics) finalize_metric(m);
  return merged;
}

std::string host_fingerprint() {
  std::string sysname = "unknown";
  std::string machine = "unknown";
#if defined(__unix__) || defined(__APPLE__)
  utsname info{};
  if (uname(&info) == 0) {
    sysname = info.sysname;
    machine = info.machine;
  }
#endif
  return sysname + "/" + machine +
         "/ncpu=" + std::to_string(std::thread::hardware_concurrency());
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return repro::hash_to_hex(hash);
}

}  // namespace rdp::perf
