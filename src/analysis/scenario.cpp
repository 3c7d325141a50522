#include "analysis/scenario.hpp"

#include "sim/config_io.hpp"
#include "util/json.hpp"

#include <fstream>
#include <sstream>

namespace lumen::analysis {

namespace {

constexpr std::string_view kDocType = "lumen-scenario";
constexpr std::int64_t kDocVersion = 1;

util::JsonValue size_array(const std::vector<std::size_t>& xs) {
  util::JsonValue arr = util::JsonValue::array();
  for (const std::size_t x : xs) {
    arr.push_back(util::JsonValue::integer(static_cast<std::int64_t>(x)));
  }
  return arr;
}

bool read_size_array(const util::JsonValue& v, std::vector<std::size_t>& out,
                     std::string_view key, std::string& error) {
  if (!v.is_array()) {
    error = std::string(key) + " must be an array of positive integers";
    return false;
  }
  out.clear();
  for (const auto& item : v.items()) {
    if (!item.is_integer() || item.as_int() <= 0) {
      error = std::string(key) + " must contain only positive integers";
      return false;
    }
    out.push_back(static_cast<std::size_t>(item.as_int()));
  }
  return true;
}

}  // namespace

std::string validate_scenario(const ScenarioSpec& spec) {
  if (spec.ns.empty()) return "ns must not be empty";
  return validate_campaign_spec(spec.campaign(spec.ns.front()));
}

std::string scenario_to_json(const ScenarioSpec& spec) {
  util::JsonValue obj = util::JsonValue::object();
  obj.set("type", util::JsonValue::string(std::string(kDocType)));
  obj.set("version", util::JsonValue::integer(kDocVersion));
  obj.set("algorithm", util::JsonValue::string(spec.algorithm));
  obj.set("family",
          util::JsonValue::string(std::string(gen::to_string(spec.family))));
  obj.set("ns", size_array(spec.ns));
  obj.set("baseline_ns", size_array(spec.baseline_ns));
  obj.set("runs", util::JsonValue::integer(static_cast<std::int64_t>(spec.runs)));
  obj.set("seed_base",
          util::JsonValue::integer(static_cast<std::int64_t>(spec.seed_base)));
  obj.set("min_separation", util::JsonValue::number(spec.min_separation));
  obj.set("audit_collisions", util::JsonValue::boolean(spec.audit_collisions));
  obj.set("collision_tolerance",
          util::JsonValue::number(spec.collision_tolerance));
  obj.set("shard_index",
          util::JsonValue::integer(static_cast<std::int64_t>(spec.shard_index)));
  obj.set("shard_count",
          util::JsonValue::integer(static_cast<std::int64_t>(spec.shard_count)));
  obj.set("max_attempts",
          util::JsonValue::integer(static_cast<std::int64_t>(spec.max_attempts)));
  obj.set("retry_backoff_ms",
          util::JsonValue::integer(
              static_cast<std::int64_t>(spec.retry_backoff_ms)));
  obj.set("abort_on_collision",
          util::JsonValue::boolean(spec.abort_on_collision));
  obj.set("run", sim::run_config_to_json(spec.run));
  return util::json_write(obj) + "\n";
}

ScenarioParse scenario_from_json(std::string_view text) {
  ScenarioParse out;
  std::string error;
  const auto doc = util::json_parse(text, &error);
  if (!doc) {
    out.error = "invalid JSON: " + error;
    return out;
  }
  if (!doc->is_object()) {
    out.error = "scenario must be a JSON object";
    return out;
  }
  ScenarioSpec spec;
  for (const auto& [key, value] : doc->members()) {
    if (key == "type") {
      if (!value.is_string() || value.as_string() != kDocType) {
        out.error = "type must be \"" + std::string(kDocType) + "\"";
        return out;
      }
    } else if (key == "version") {
      if (!value.is_integer() || value.as_int() != kDocVersion) {
        out.error = "unsupported scenario version";
        return out;
      }
    } else if (key == "algorithm") {
      if (!value.is_string()) {
        out.error = "algorithm must be a string";
        return out;
      }
      spec.algorithm = value.as_string();
    } else if (key == "family") {
      const auto family = value.is_string()
                              ? gen::family_from_string(value.as_string())
                              : std::nullopt;
      if (!family) {
        out.error = "family: unknown configuration family";
        return out;
      }
      spec.family = *family;
    } else if (key == "ns") {
      if (!read_size_array(value, spec.ns, "ns", out.error)) return out;
    } else if (key == "baseline_ns") {
      if (!read_size_array(value, spec.baseline_ns, "baseline_ns", out.error)) {
        return out;
      }
    } else if (key == "runs") {
      if (!value.is_integer() || value.as_int() < 0) {
        out.error = "runs must be a non-negative integer";
        return out;
      }
      spec.runs = static_cast<std::size_t>(value.as_int());
    } else if (key == "seed_base") {
      if (!value.is_integer() || value.as_int() < 0) {
        out.error = "seed_base must be a non-negative integer";
        return out;
      }
      spec.seed_base = static_cast<std::uint64_t>(value.as_int());
    } else if (key == "min_separation") {
      if (!value.is_number()) {
        out.error = "min_separation must be a number";
        return out;
      }
      spec.min_separation = value.as_double();
    } else if (key == "audit_collisions") {
      if (!value.is_bool()) {
        out.error = "audit_collisions must be a boolean";
        return out;
      }
      spec.audit_collisions = value.as_bool();
    } else if (key == "collision_tolerance") {
      if (!value.is_number()) {
        out.error = "collision_tolerance must be a number";
        return out;
      }
      spec.collision_tolerance = value.as_double();
    } else if (key == "shard_index") {
      if (!value.is_integer() || value.as_int() < 0) {
        out.error = "shard_index must be a non-negative integer";
        return out;
      }
      spec.shard_index = static_cast<std::size_t>(value.as_int());
    } else if (key == "shard_count") {
      if (!value.is_integer() || value.as_int() < 0) {
        out.error = "shard_count must be a non-negative integer";
        return out;
      }
      spec.shard_count = static_cast<std::size_t>(value.as_int());
    } else if (key == "max_attempts") {
      if (!value.is_integer() || value.as_int() < 0) {
        out.error = "max_attempts must be a non-negative integer";
        return out;
      }
      spec.max_attempts = static_cast<std::size_t>(value.as_int());
    } else if (key == "retry_backoff_ms") {
      if (!value.is_integer() || value.as_int() < 0) {
        out.error = "retry_backoff_ms must be a non-negative integer";
        return out;
      }
      spec.retry_backoff_ms = static_cast<std::uint64_t>(value.as_int());
    } else if (key == "abort_on_collision") {
      if (!value.is_bool()) {
        out.error = "abort_on_collision must be a boolean";
        return out;
      }
      spec.abort_on_collision = value.as_bool();
    } else if (key == "run") {
      std::string run_error;
      const auto config = sim::run_config_from_json(value, &run_error);
      if (!config) {
        out.error = run_error;
        return out;
      }
      spec.run = *config;
    } else {
      out.error = "unknown key \"" + key + "\"";
      return out;
    }
  }
  // Range rules live in validate_campaign_spec: an out-of-range value must
  // fail HERE with the field named, not later as a campaign full of
  // kSpecInvalid cells.
  out.error = validate_scenario(spec);
  if (!out.error.empty()) return out;
  out.spec = std::move(spec);
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
