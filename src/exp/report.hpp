// Machine-readable experiment reports: benches accumulate named series
// of (x, y...) rows and emit them as CSV or JSON next to their
// human-readable tables, so the paper figures can be re-plotted without
// scraping stdout.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace rdp {

/// One named data series: a header plus numeric rows of equal width.
class Series {
 public:
  Series() = default;
  explicit Series(std::vector<std::string> columns);

  void add_row(std::vector<double> values);

  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] const std::vector<std::vector<double>>& rows() const noexcept {
    return rows_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
};

/// A report: experiment metadata + named series.
class ExperimentReport {
 public:
  ExperimentReport(std::string experiment_id, std::string description);

  /// Adds a free-form parameter recorded with the results.
  void set_param(const std::string& key, const std::string& value);
  void set_param(const std::string& key, double value);

  /// Creates (or fetches) a series by name; the column set must match on
  /// re-access.
  Series& series(const std::string& name, std::vector<std::string> columns);

  /// Attaches a metrics snapshot (from obs::MetricsRegistry::snapshot())
  /// recorded alongside the results. Optional: reports without one
  /// serialize exactly as before.
  void attach_metrics(obs::MetricsSnapshot snapshot);
  [[nodiscard]] const std::optional<obs::MetricsSnapshot>& metrics() const noexcept {
    return metrics_;
  }

  /// Serializes everything as a JSON object.
  [[nodiscard]] std::string to_json(int indent = 2) const;

  /// Writes one CSV block per series ("# series: <name>" headers).
  void write_csv(std::ostream& out) const;

  /// Renders params and every series as GitHub-flavored-markdown tables
  /// (one "### series" heading per series) -- the repro pipeline embeds
  /// this into the generated docs/RESULTS.md. Numeric cells use fixed
  /// `precision` digits.
  [[nodiscard]] std::string to_markdown(int precision = 4) const;

  /// Convenience file writer (throws std::runtime_error on I/O failure).
  void save_json(const std::string& path) const;

  [[nodiscard]] const std::string& id() const noexcept { return id_; }

 private:
  std::string id_;
  std::string description_;
  std::map<std::string, std::string> params_;
  std::map<std::string, Series> series_;
  std::optional<obs::MetricsSnapshot> metrics_;
};

}  // namespace rdp
