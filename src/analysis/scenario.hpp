// lumen_analysis: serializable scenario specifications.
//
// A ScenarioSpec is the declarative description of an experiment's
// workload: a CampaignSpec template plus the sweep dimension (ns) and the
// comparator sweep some experiments run (baseline_ns). Specs serialize to
// JSON with a ROUND-TRIP GUARANTEE: serialize -> parse -> serialize is
// byte-identical, so a spec file is a faithful, diffable record of exactly
// what ran. The schema is documented in DESIGN.md §9.
#pragma once

#include "analysis/campaign.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lumen::analysis {

/// Every CampaignSpec field is the template for each cell of the sweep;
/// the inherited `n` is a placeholder that is never serialized, because
/// campaign(n) overwrites it with the sweep size.
struct ScenarioSpec : CampaignSpec {
  /// Sweep sizes. Fixed-N experiments use the first entry; sweep
  /// experiments iterate over all of them.
  std::vector<std::size_t> ns = {32};
  /// Comparator sweep (used by experiments that also run a baseline
  /// series, e.g. E1's seq-baseline); empty means "same as ns".
  std::vector<std::size_t> baseline_ns;

  /// The template at one sweep size.
  [[nodiscard]] CampaignSpec campaign(std::size_t size) const {
    CampaignSpec spec = *this;
    spec.n = size;
    return spec;
  }
  /// baseline_ns, defaulting to ns when empty.
  [[nodiscard]] const std::vector<std::size_t>& baseline_sizes() const noexcept {
    return baseline_ns.empty() ? ns : baseline_ns;
  }
};

/// The scenario's domain rules: ns must be non-empty, and the template at
/// the first sweep size must pass validate_campaign_spec. Returns the first
/// problem as a field-naming message, or an empty string when valid.
[[nodiscard]] std::string validate_scenario(const ScenarioSpec& spec);

/// Deterministic JSON form (fixed key order, exact integers, trailing
/// newline). The round-trip guarantee is over this function:
/// scenario_to_json(*scenario_from_json(s).spec) == s for any s it emitted.
[[nodiscard]] std::string scenario_to_json(const ScenarioSpec& spec);

struct ScenarioParse {
  std::optional<ScenarioSpec> spec;
  std::string error;  ///< Human-readable reason when spec is nullopt.
};

/// Parses a spec document. Missing keys keep their defaults; unknown keys,
/// type mismatches, unknown enum names, negative integers and specs
/// validate_scenario rejects are errors.
[[nodiscard]] ScenarioParse scenario_from_json(std::string_view text);

/// File convenience wrappers.
bool save_scenario(const ScenarioSpec& spec, const std::string& path);
[[nodiscard]] ScenarioParse load_scenario(const std::string& path);

}  // namespace lumen::analysis
