// Fixed-width plain-text tables: what the bench binaries print to
// regenerate the paper's tables/figure series on stdout.
#pragma once

#include <string>
#include <vector>

namespace rdp {

class TextTable {
 public:
  /// Sets the header row (also fixes the column count).
  explicit TextTable(std::vector<std::string> header);

  /// Appends a row; must match the header's column count.
  void add_row(std::vector<std::string> cells);

  /// Convenience for numeric rows; formats doubles with `precision`.
  void add_numeric_row(const std::vector<double>& values, int precision = 4);

  /// Renders with column-aligned padding and a separator under the header.
  [[nodiscard]] std::string render() const;

  /// Renders as a GitHub-flavored-markdown pipe table (used by the repro
  /// pipeline when assembling docs/RESULTS.md). Pipe characters inside
  /// cells are escaped as "\|".
  [[nodiscard]] std::string render_markdown() const;
  [[nodiscard]] const std::vector<std::string>& header() const noexcept {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared by benches).
[[nodiscard]] std::string fmt(double value, int precision = 4);

}  // namespace rdp
