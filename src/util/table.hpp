// lumen_util: CSV and aligned console table emitters.
//
// Every bench binary prints (a) a human-readable aligned table to stdout —
// the "figure/table" of the reproduced experiment — and (b) optionally the
// same rows as CSV for downstream plotting. Both are driven through the same
// row API so they can never disagree.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace lumen::util {

/// Formats a double compactly: fixed for moderate magnitudes, scientific
/// otherwise, trimming trailing zeros.
[[nodiscard]] std::string format_number(double v, int precision = 3);

/// Accumulates rows of string cells and renders them.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent cell() calls append to it.
  Table& row();
  Table& cell(std::string_view text);
  Table& cell(double value, int precision = 3);
  Table& cell(std::size_t value);

  /// Renders with padded columns, a header rule, and a title line.
  void print(std::ostream& os, std::string_view title = {}) const;

  /// Renders as RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace lumen::util
