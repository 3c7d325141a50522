// lumen_analysis: ExperimentResult renderers.
//
// Every output format the lumen-bench driver supports renders the same
// structured ExperimentResult, so the aligned console table, the CSV export
// and the JSON artifact can never disagree about the values — they differ
// only in framing.
#pragma once

#include "analysis/experiments.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

#include <iosfwd>
#include <optional>
#include <string_view>

namespace lumen::analysis {

/// "pretty" (aligned table + notes + check verdicts), "csv" (data rows
/// only), or "json" (full structure, machine-readable).
enum class ReportFormat { kPretty, kCsv, kJson };

inline constexpr auto kReportFormatNames = std::to_array<util::Named<ReportFormat>>({
    {ReportFormat::kPretty, "pretty"},
    {ReportFormat::kCsv, "csv"},
    {ReportFormat::kJson, "json"},
});

[[nodiscard]] constexpr std::string_view to_string(ReportFormat f) noexcept {
  return util::name_of(kReportFormatNames, f);
}

[[nodiscard]] constexpr std::optional<ReportFormat> report_format_from_string(
    std::string_view name) noexcept {
  return util::parse_name(kReportFormatNames, name);
}

/// Writes `result` to `os` in `format`.
void write_report(const ExperimentResult& result, ReportFormat format, std::ostream& os);

/// JSON form of one result (what kJson writes): columns, rows (numeric
/// cells as numbers, text cells as strings), notes, checks.
[[nodiscard]] util::JsonValue result_to_json(const ExperimentResult& result);

}  // namespace lumen::analysis
