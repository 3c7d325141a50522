#include "analysis/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace lumen::analysis {

std::string validate_scenario(const ScenarioSpec& spec) {
  if (spec.ns.empty()) return "ns must not be empty";
  const auto positive = [](const std::vector<std::size_t>& sizes) {
    return std::find(sizes.begin(), sizes.end(), 0u) == sizes.end();
  };
  if (!positive(spec.ns)) return "ns entries must be >= 1";
  if (!positive(spec.baseline_ns)) return "baseline_ns entries must be >= 1";
  return validate_campaign_spec(spec.campaign(spec.ns.front()));
}

std::string scenario_to_json(const ScenarioSpec& spec) {
  return util::json_write(util::write_fields(spec)) + "\n";
}

ScenarioParse scenario_from_json(std::string_view text) {
  ScenarioParse out;
  ScenarioSpec spec;
  out.error = util::read_document(text, spec);
  // Range rules live in validate_scenario: an out-of-range value must fail
  // HERE with the field named, not later as a campaign full of
  // kSpecInvalid cells.
  if (out.error.empty()) out.error = validate_scenario(spec);
  if (out.error.empty()) out.spec = std::move(spec);
  return out;
}

bool save_scenario(const ScenarioSpec& spec, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << scenario_to_json(spec);
  return static_cast<bool>(f);
}

ScenarioParse load_scenario(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    ScenarioParse out;
    out.error = "cannot open " + path;
    return out;
  }
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return scenario_from_json(buffer.str());
}

}  // namespace lumen::analysis
