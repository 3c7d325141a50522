#include "analysis/reporter.hpp"

#include "util/table.hpp"

#include <cctype>
#include <ostream>
#include <string>

namespace lumen::analysis {

namespace {

util::Table to_table(const ExperimentResult& result) {
  util::Table table(result.columns);
  for (const auto& row : result.rows) {
    table.row();
    for (const auto& c : row) table.cell(c.text);
  }
  return table;
}

}  // namespace

void write_report(const ExperimentResult& result, ReportFormat format, std::ostream& os) {
  switch (format) {
    case ReportFormat::kPretty:
      to_table(result).print(os, result.title);
      if (!result.notes.empty()) os << "\n";
      for (const auto& note : result.notes) os << note << "\n";
      if (result.partial) {
        os << "  [PARTIAL] result is incomplete (cells failed or were skipped); "
              "claim checks are not meaningful\n";
      }
      for (const auto& check : result.checks) {
        std::string tag(to_string(check.verdict));
        for (char& c : tag) c = static_cast<char>(std::toupper(c));
        os << "  [" << tag << "] " << check.label << "\n";
      }
      return;
    case ReportFormat::kCsv:
      to_table(result).write_csv(os);
      return;
    case ReportFormat::kJson:
      os << util::json_write(result_to_json(result)) << "\n";
      return;
  }
}

util::JsonValue result_to_json(const ExperimentResult& result) {
  util::JsonValue obj = util::JsonValue::object();
  obj.set("experiment", util::JsonValue::string(result.experiment));
  obj.set("title", util::JsonValue::string(result.title));

  util::JsonValue columns = util::JsonValue::array();
  for (const auto& c : result.columns) {
    columns.push_back(util::JsonValue::string(c));
  }
  obj.set("columns", std::move(columns));

  util::JsonValue rows = util::JsonValue::array();
  for (const auto& row : result.rows) {
    util::JsonValue cells = util::JsonValue::array();
    for (const auto& c : row) {
      cells.push_back(c.value ? util::JsonValue::number(*c.value)
                              : util::JsonValue::string(c.text));
    }
    rows.push_back(std::move(cells));
  }
  obj.set("rows", std::move(rows));

  util::JsonValue notes = util::JsonValue::array();
  for (const auto& n : result.notes) notes.push_back(util::JsonValue::string(n));
  obj.set("notes", std::move(notes));

  util::JsonValue checks = util::JsonValue::array();
  for (const auto& check : result.checks) {
    util::JsonValue entry = util::JsonValue::object();
    entry.set("label", util::JsonValue::string(check.label));
    entry.set("verdict", util::JsonValue::string(std::string(to_string(check.verdict))));
    checks.push_back(std::move(entry));
  }
  obj.set("checks", std::move(checks));
  // Only emitted when set, so complete-result documents keep their
  // historical byte-exact form.
  if (result.partial) obj.set("partial", util::JsonValue::boolean(true));
  obj.set("passed", util::JsonValue::boolean(result.passed()));
  return obj;
}

}  // namespace lumen::analysis
