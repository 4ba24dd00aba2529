#include "exp/report.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/csv.hpp"
#include "io/json.hpp"
#include "io/table.hpp"

namespace rdp {

Series::Series(std::vector<std::string> columns) : columns_(std::move(columns)) {
  if (columns_.empty()) {
    throw std::invalid_argument("Series: need at least one column");
  }
}

void Series::add_row(std::vector<double> values) {
  if (values.size() != columns_.size()) {
    throw std::invalid_argument("Series: row width mismatch");
  }
  rows_.push_back(std::move(values));
}

ExperimentReport::ExperimentReport(std::string experiment_id, std::string description)
    : id_(std::move(experiment_id)), description_(std::move(description)) {
  if (id_.empty()) {
    throw std::invalid_argument("ExperimentReport: id must be non-empty");
  }
}

void ExperimentReport::set_param(const std::string& key, const std::string& value) {
  params_[key] = value;
}

void ExperimentReport::set_param(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(12);
  os << value;
  params_[key] = os.str();
}

void ExperimentReport::attach_metrics(obs::MetricsSnapshot snapshot) {
  metrics_ = std::move(snapshot);
}

Series& ExperimentReport::series(const std::string& name,
                                 std::vector<std::string> columns) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, Series(std::move(columns))).first;
  } else if (it->second.columns() != columns) {
    throw std::invalid_argument("ExperimentReport: series '" + name +
                                "' re-opened with different columns");
  }
  return it->second;
}

std::string ExperimentReport::to_json(int indent) const {
  JsonObject root;
  root["id"] = id_;
  root["description"] = description_;
  JsonObject params;
  for (const auto& [k, v] : params_) params[k] = v;
  root["params"] = params;

  JsonObject series_obj;
  for (const auto& [name, s] : series_) {
    JsonObject entry;
    JsonArray columns;
    for (const std::string& c : s.columns()) columns.push_back(c);
    entry["columns"] = columns;
    JsonArray rows;
    for (const auto& row : s.rows()) {
      JsonArray json_row;
      for (double v : row) json_row.push_back(v);
      rows.push_back(std::move(json_row));
    }
    entry["rows"] = rows;
    series_obj[name] = entry;
  }
  root["series"] = series_obj;
  if (metrics_) root["metrics"] = obs::metrics_snapshot_json(*metrics_);
  return JsonValue(root).dump(indent);
}

void ExperimentReport::write_csv(std::ostream& out) const {
  out << "# experiment: " << id_ << "\n";
  for (const auto& [k, v] : params_) out << "# " << k << " = " << v << "\n";
  CsvWriter csv(out);
  for (const auto& [name, s] : series_) {
    out << "# series: " << name << "\n";
    csv.row(s.columns());
    for (const auto& row : s.rows()) {
      std::vector<std::string> cells;
      cells.reserve(row.size());
      for (double v : row) {
        std::ostringstream os;
        os.precision(12);
        os << v;
        cells.push_back(os.str());
      }
      csv.row(cells);
    }
  }
  if (metrics_ && !metrics_->empty()) {
    out << "# metrics\n";
    for (const auto& [name, v] : metrics_->counters) {
      out << "# counter " << name << " = " << v << "\n";
    }
    for (const auto& [name, v] : metrics_->gauges) {
      out << "# gauge " << name << " = " << v << "\n";
    }
    out << "# series: metrics.histograms\n";
    csv.row({"name", "count", "mean", "stddev", "min", "max", "sum", "p50",
             "p90", "p99"});
    for (const auto& [name, s] : metrics_->histograms) {
      csv.typed_row(name, s.count, s.mean, s.stddev, s.min, s.max, s.sum,
                    s.p50, s.p90, s.p99);
    }
  }
}

std::string ExperimentReport::to_markdown(int precision) const {
  std::ostringstream out;
  if (!params_.empty()) {
    TextTable params({"parameter", "value"});
    for (const auto& [k, v] : params_) params.add_row({k, v});
    out << params.render_markdown() << "\n";
  }
  for (const auto& [name, s] : series_) {
    out << "### series `" << name << "`\n\n";
    TextTable table(s.columns());
    for (const auto& row : s.rows()) table.add_numeric_row(row, precision);
    out << table.render_markdown() << "\n";
  }
  return out.str();
}

void ExperimentReport::save_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_json: cannot open " + path);
  out << to_json() << "\n";
  if (!out) throw std::runtime_error("save_json: write failed for " + path);
}

}  // namespace rdp
