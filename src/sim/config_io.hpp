// lumen_sim: RunConfig <-> JSON.
//
// The declarative experiment layer (analysis::ScenarioSpec) embeds a full
// RunConfig; serializing it here, next to the type, keeps the field list in
// one compilation unit so a new RunConfig knob cannot silently miss the
// spec format. The encoding is deterministic (fixed key order, exact
// integers) — the ScenarioSpec byte-identity round-trip rests on it.
#pragma once

#include "sim/run.hpp"
#include "util/json.hpp"

#include <optional>
#include <string>

namespace lumen::sim {

/// Serializes every RunConfig field under stable keys, enums as their
/// to_string names.
[[nodiscard]] util::JsonValue run_config_to_json(const RunConfig& config);

/// Parses an object written by run_config_to_json. Missing keys keep their
/// defaults (terse hand-written specs stay legal); unknown keys, type
/// mismatches, unknown enum names and negative integers are errors (a typoed
/// knob must not silently run the default). Range rules are
/// analysis::validate_campaign_spec's. On failure returns nullopt and fills
/// `error` when non-null.
[[nodiscard]] std::optional<RunConfig> run_config_from_json(
    const util::JsonValue& json, std::string* error = nullptr);

}  // namespace lumen::sim
