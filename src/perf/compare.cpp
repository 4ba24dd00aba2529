#include "perf/compare.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "io/json.hpp"
#include "io/table.hpp"

namespace rdp::perf {

namespace {

double threshold_for(const BenchMetric& baseline, const CompareOptions& options) {
  double rel = 0;
  switch (baseline.noise) {
    case Noise::kTiming: rel = options.timing_rel_tolerance; break;
    case Noise::kExact: rel = options.exact_rel_tolerance; break;
  }
  return std::max({rel * std::fabs(baseline.value),
                   options.mad_multiplier * baseline.mad, baseline.abs_slack});
}

}  // namespace

bool CompareResult::regressed() const {
  if (!params_match) return true;
  return std::any_of(metrics.begin(), metrics.end(),
                     [](const MetricVerdict& v) { return v.regressed(); });
}

bool CompareResult::schema_broken() const {
  if (!params_match) return true;
  return std::any_of(metrics.begin(), metrics.end(),
                     [](const MetricVerdict& v) { return v.status == "missing"; });
}

bool CompareResult::exact_regressed() const {
  if (schema_broken()) return true;
  return std::any_of(metrics.begin(), metrics.end(), [](const MetricVerdict& v) {
    return v.noise == Noise::kExact && v.regressed();
  });
}

std::string CompareResult::render_table() const {
  std::ostringstream out;
  out << "perf compare: " << bench << "  (baseline " << baseline_source
      << " vs current " << current_source << ")\n";
  TextTable table({"metric", "dir", "baseline", "current", "delta",
                   "threshold", "status"});
  for (const MetricVerdict& v : metrics) {
    table.add_row({v.name, std::string(to_string(v.direction)), fmt(v.baseline),
                   fmt(v.current), fmt(v.delta), fmt(v.threshold), v.status});
  }
  out << table.render();
  for (const std::string& note : notes) out << "note: " << note << "\n";
  out << (regressed() ? "verdict: REGRESSED\n" : "verdict: OK\n");
  return out.str();
}

JsonValue CompareResult::to_json() const {
  JsonArray metric_array;
  for (const MetricVerdict& v : metrics) {
    JsonObject obj;
    obj["name"] = v.name;
    obj["baseline"] = v.baseline;
    obj["current"] = v.current;
    obj["delta"] = v.delta;
    obj["threshold"] = v.threshold;
    obj["direction"] = std::string(to_string(v.direction));
    obj["noise"] = std::string(to_string(v.noise));
    obj["status"] = v.status;
    metric_array.emplace_back(std::move(obj));
  }
  JsonArray note_array;
  for (const std::string& note : notes) note_array.emplace_back(note);
  JsonObject root;
  root["bench"] = bench;
  root["baseline_source"] = baseline_source;
  root["current_source"] = current_source;
  root["params_match"] = params_match;
  root["host_match"] = host_match;
  root["regressed"] = regressed();
  root["exact_regressed"] = exact_regressed();
  root["metrics"] = std::move(metric_array);
  root["notes"] = std::move(note_array);
  return JsonValue(std::move(root));
}

CompareResult compare_records(const BenchRecord& baseline,
                              const BenchRecord& current,
                              const CompareOptions& options) {
  CompareResult result;
  result.bench = baseline.name;
  result.baseline_source = baseline.source;
  result.current_source = current.source;

  // Differing names alone are only a note (`perf record --name=...`
  // renames records); params_hash is what identifies the workload, and a
  // genuinely different benchmark fails anyway through missing metrics.
  if (baseline.name != current.name) {
    result.notes.push_back("record names differ: baseline '" + baseline.name +
                           "' vs current '" + current.name + "'");
  }
  if (!baseline.params_hash.empty() && !current.params_hash.empty() &&
      baseline.params_hash != current.params_hash) {
    result.params_match = false;
    result.notes.push_back(
        "params hash mismatch (" + baseline.params_hash + " vs " +
        current.params_hash + "): the runs measured different workloads" +
        (options.ignore_params ? " [ignored by --ignore-params]" : ""));
  }
  if (options.ignore_params) result.params_match = true;
  if (!baseline.host.empty() && !current.host.empty() &&
      baseline.host != current.host) {
    result.host_match = false;
    result.notes.push_back("host fingerprint differs (" + baseline.host +
                           " vs " + current.host +
                           "): absolute timings are not comparable across "
                           "machines, expect noise");
  }

  for (const auto& [name, base] : baseline.metrics) {
    MetricVerdict v;
    v.name = name;
    v.baseline = base.value;
    v.direction = base.direction;
    v.noise = base.noise;
    v.threshold = threshold_for(base, options);
    const BenchMetric* cur = current.find(name);
    if (cur == nullptr) {
      if (base.direction == Direction::kNone) continue;  // may come and go
      v.status = "missing";
      result.metrics.push_back(std::move(v));
      continue;
    }
    v.current = cur->value;
    v.delta = cur->value - base.value;
    if (base.direction == Direction::kNone) {
      v.status = "info";
    } else if (std::fabs(v.delta) <= v.threshold) {
      v.status = "ok";
    } else {
      const bool worse =
          base.direction == Direction::kLower ? v.delta > 0 : v.delta < 0;
      v.status = worse ? "regressed" : "improved";
    }
    result.metrics.push_back(std::move(v));
  }
  for (const auto& [name, cur] : current.metrics) {
    if (baseline.find(name) != nullptr) continue;
    MetricVerdict v;
    v.name = name;
    v.current = cur.value;
    v.direction = cur.direction;
    v.noise = cur.noise;
    v.status = "new";
    result.metrics.push_back(std::move(v));
  }
  return result;
}

}  // namespace rdp::perf
