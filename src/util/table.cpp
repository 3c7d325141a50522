#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace lumen::util {

std::string format_number(double v, int precision) {
  if (!std::isfinite(v)) return std::signbit(v) ? "-inf" : (std::isnan(v) ? "nan" : "inf");
  char buf[64];
  const double mag = std::fabs(v);
  if (v == std::floor(v) && mag < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  if (mag >= 1e-4 && mag < 1e9) {
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    std::string s{buf};
    // Trim trailing zeros but keep at least one decimal digit.
    const auto dot = s.find('.');
    if (dot != std::string::npos) {
      auto last = s.find_last_not_of('0');
      if (last == dot) ++last;
      s.erase(last + 1);
    }
    return s;
  }
  std::snprintf(buf, sizeof buf, "%.*e", precision, v);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::cell(std::string_view text) {
  if (rows_.empty()) row();
  rows_.back().emplace_back(text);
  return *this;
}

Table& Table::cell(double value, int precision) {
  return cell(format_number(value, precision));
}

Table& Table::cell(std::size_t value) {
  return cell(std::to_string(value));
}

void Table::print(std::ostream& os, std::string_view title) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string{};
      os << "  " << text;
      for (std::size_t pad = text.size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  if (!title.empty()) os << title << '\n';
  emit_row(headers_);
  std::size_t total = 0;
  for (const auto w : widths) total += w + 2;
  os << "  " << std::string(total > 2 ? total - 2 : 0, '-') << '\n';
  for (const auto& r : rows_) emit_row(r);
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::write_csv(std::ostream& os) const {
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) os << ',';
    os << csv_escape(headers_[c]);
  }
  os << '\n';
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(r[c]);
    }
    os << '\n';
  }
}

}  // namespace lumen::util
