#include "sim/config_io.hpp"

#include "fault/plan.hpp"
#include "sched/activation.hpp"
#include "sched/adversary.hpp"

#include <string_view>

namespace lumen::sim {

namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr && error->empty()) *error = std::move(message);
}

}  // namespace

util::JsonValue run_config_to_json(const RunConfig& config) {
  util::JsonValue obj = util::JsonValue::object();
  obj.set("scheduler", util::JsonValue::string(std::string(to_string(config.scheduler))));
  obj.set("adversary",
          util::JsonValue::string(std::string(sched::to_string(config.adversary))));
  obj.set("activation",
          util::JsonValue::string(std::string(sched::to_string(config.activation))));
  obj.set("seed", util::JsonValue::integer(static_cast<std::int64_t>(config.seed)));
  obj.set("max_cycles_per_robot",
          util::JsonValue::integer(static_cast<std::int64_t>(config.max_cycles_per_robot)));
  obj.set("refresh_frames_each_look",
          util::JsonValue::boolean(config.refresh_frames_each_look));
  obj.set("record_hull_history", util::JsonValue::boolean(config.record_hull_history));
  obj.set("record_moves", util::JsonValue::boolean(config.record_moves));
  obj.set("rigid_moves", util::JsonValue::boolean(config.rigid_moves));
  obj.set("nonrigid_min_progress", util::JsonValue::number(config.nonrigid_min_progress));
  // deadline_ms and fault are emitted only when non-default, so documents
  // predating each feature stay byte-identical (the round-trip guarantee is
  // over emitted strings).
  if (config.deadline_ms > 0) {
    obj.set("deadline_ms",
            util::JsonValue::integer(static_cast<std::int64_t>(config.deadline_ms)));
  }
  if (config.fault != fault::FaultPlan{}) {
    obj.set("fault", fault::fault_plan_to_json(config.fault));
  }
  return obj;
}

std::optional<RunConfig> run_config_from_json(const util::JsonValue& json,
                                              std::string* error) {
  if (!json.is_object()) {
    set_error(error, "run config must be a JSON object");
    return std::nullopt;
  }
  RunConfig config;
  bool ok = true;
  const auto want_bool = [&](std::string_view key, bool& out,
                             const util::JsonValue& v) {
    if (!v.is_bool()) {
      set_error(error, "run." + std::string(key) + " must be a boolean");
      ok = false;
      return;
    }
    out = v.as_bool();
  };
  for (const auto& [key, value] : json.members()) {
    if (key == "scheduler") {
      if (const auto k = value.is_string()
                             ? scheduler_from_string(value.as_string())
                             : std::nullopt) {
        config.scheduler = *k;
      } else {
        set_error(error, "run.scheduler: unknown scheduler");
        ok = false;
      }
    } else if (key == "adversary") {
      if (const auto k = value.is_string()
                             ? sched::adversary_from_string(value.as_string())
                             : std::nullopt) {
        config.adversary = *k;
      } else {
        set_error(error, "run.adversary: unknown adversary");
        ok = false;
      }
    } else if (key == "activation") {
      if (const auto k = value.is_string()
                             ? sched::activation_from_string(value.as_string())
                             : std::nullopt) {
        config.activation = *k;
      } else {
        set_error(error, "run.activation: unknown activation policy");
        ok = false;
      }
    } else if (key == "seed") {
      if (!value.is_integer() || value.as_int() < 0) {
        set_error(error, "run.seed must be a non-negative integer");
        ok = false;
      } else {
        config.seed = static_cast<std::uint64_t>(value.as_int());
      }
    } else if (key == "max_cycles_per_robot") {
      if (!value.is_integer() || value.as_int() < 0) {
        set_error(error,
                  "run.max_cycles_per_robot must be a non-negative integer");
        ok = false;
      } else {
        config.max_cycles_per_robot = static_cast<std::size_t>(value.as_int());
      }
    } else if (key == "refresh_frames_each_look") {
      want_bool(key, config.refresh_frames_each_look, value);
    } else if (key == "record_hull_history") {
      want_bool(key, config.record_hull_history, value);
    } else if (key == "record_moves") {
      want_bool(key, config.record_moves, value);
    } else if (key == "rigid_moves") {
      want_bool(key, config.rigid_moves, value);
    } else if (key == "nonrigid_min_progress") {
      if (!value.is_number()) {
        set_error(error, "run.nonrigid_min_progress must be a number");
        ok = false;
      } else {
        config.nonrigid_min_progress = value.as_double();
      }
    } else if (key == "deadline_ms") {
      if (!value.is_integer() || value.as_int() < 0) {
        set_error(error, "run.deadline_ms must be a non-negative integer");
        ok = false;
      } else {
        config.deadline_ms = static_cast<std::uint64_t>(value.as_int());
      }
    } else if (key == "fault") {
      std::string fault_error;
      if (const auto plan = fault::fault_plan_from_json(value, &fault_error)) {
        config.fault = *plan;
      } else {
        set_error(error, "run.fault: " + fault_error);
        ok = false;
      }
    } else {
      set_error(error, "run config: unknown key \"" + key + "\"");
      ok = false;
    }
  }
  if (!ok) return std::nullopt;
  return config;
}

}  // namespace lumen::sim
