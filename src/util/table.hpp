// raysched: plain-text and CSV table emission for bench harnesses.
//
// Every bench binary prints the series a paper figure plots as an aligned
// text table (for humans) and can optionally mirror it to CSV (for plotting).
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace raysched::util {

/// A table cell: string, integer, or double. A NaN double is a missing
/// value and renders as "NA" in both text and CSV output.
using Cell = std::variant<std::string, long long, double>;

/// Accumulates rows and renders them either as an aligned text table or CSV.
/// Column count is fixed by the header; add_row enforces it.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; throws raysched::error if the width mismatches.
  void add_row(std::vector<Cell> row);

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_cols() const { return header_.size(); }

  /// Renders an aligned, human-readable table.
  void print_text(std::ostream& os) const;

  /// Renders RFC-4180-ish CSV (no quoting of embedded commas is needed for
  /// our numeric tables; strings containing commas are quoted).
  void print_csv(std::ostream& os) const;

  /// Writes CSV to `path`; throws raysched::error on I/O failure.
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

/// Builds a row by constructing each cell in place from its value. A
/// braced `add_row({...})` instead copies every cell out of an
/// initializer list, and on rows of numbers only GCC 12 can misreport that
/// copy as reading an uninitialized std::string (-Wmaybe-uninitialized);
/// use make_row where it does. Unlike a braced list, the values are
/// evaluated in unspecified order, so pass no two that draw from one RNG.
template <typename... Values>
[[nodiscard]] std::vector<Cell> make_row(Values&&... values) {
  std::vector<Cell> row;
  row.reserve(sizeof...(Values));
  (row.emplace_back(std::forward<Values>(values)), ...);
  return row;
}

/// Formats a double with fixed precision, trimming to a compact width.
[[nodiscard]] std::string format_double(double v, int precision = 4);

}  // namespace raysched::util
