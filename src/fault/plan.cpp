#include "fault/plan.hpp"

#include "util/strings.hpp"

#include <cmath>

namespace lumen::fault {

std::string_view to_string(CrashScheduleKind k) noexcept {
  switch (k) {
    case CrashScheduleKind::kRate: return "rate";
    case CrashScheduleKind::kTimes: return "times";
  }
  return "?";
}

std::optional<CrashScheduleKind> crash_schedule_from_string(
    std::string_view name) noexcept {
  for (const auto k : {CrashScheduleKind::kRate, CrashScheduleKind::kTimes}) {
    if (util::iequals(to_string(k), name)) return k;
  }
  return std::nullopt;
}

std::string_view to_string(CorruptionMode m) noexcept {
  switch (m) {
    case CorruptionMode::kStuck: return "stuck";
    case CorruptionMode::kFlip: return "flip";
    case CorruptionMode::kRandom: return "random";
  }
  return "?";
}

std::optional<CorruptionMode> corruption_mode_from_string(
    std::string_view name) noexcept {
  for (const auto m : {CorruptionMode::kStuck, CorruptionMode::kFlip,
                       CorruptionMode::kRandom}) {
    if (util::iequals(to_string(m), name)) return m;
  }
  return std::nullopt;
}

namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr && error->empty()) *error = std::move(message);
}

bool read_number(const util::JsonValue& v, double& out, std::string_view key,
                 std::string* error) {
  if (!v.is_number()) {
    set_error(error, "fault." + std::string(key) + " must be a number");
    return false;
  }
  out = v.as_double();
  return true;
}

bool in_unit_interval(double x) noexcept { return x >= 0.0 && x <= 1.0; }

bool finite_non_negative(double x) noexcept {
  return x >= 0.0 && std::isfinite(x);
}

}  // namespace

std::string validate_fault_plan(const FaultPlan& plan) {
  if (!in_unit_interval(plan.crash.rate)) return "crash.rate must be in [0, 1]";
  for (const double t : plan.crash.times) {
    if (!finite_non_negative(t)) {
      return "crash.times must be finite and non-negative";
    }
  }
  if (!in_unit_interval(plan.light.probability)) {
    return "light.probability must be in [0, 1]";
  }
  if (!finite_non_negative(plan.noise.sigma)) {
    return "noise.sigma must be a finite number >= 0";
  }
  if (!in_unit_interval(plan.noise.dropout)) {
    return "noise.dropout must be in [0, 1]";
  }
  return "";
}

util::JsonValue fault_plan_to_json(const FaultPlan& plan) {
  util::JsonValue crash = util::JsonValue::object();
  crash.set("count",
            util::JsonValue::integer(static_cast<std::int64_t>(plan.crash.count)));
  crash.set("schedule", util::JsonValue::string(
                            std::string(to_string(plan.crash.schedule))));
  crash.set("rate", util::JsonValue::number(plan.crash.rate));
  util::JsonValue times = util::JsonValue::array();
  for (const double t : plan.crash.times) {
    times.push_back(util::JsonValue::number(t));
  }
  crash.set("times", std::move(times));

  util::JsonValue light = util::JsonValue::object();
  light.set("probability", util::JsonValue::number(plan.light.probability));
  light.set("mode",
            util::JsonValue::string(std::string(to_string(plan.light.mode))));

  util::JsonValue noise = util::JsonValue::object();
  noise.set("sigma", util::JsonValue::number(plan.noise.sigma));
  noise.set("dropout", util::JsonValue::number(plan.noise.dropout));

  util::JsonValue obj = util::JsonValue::object();
  obj.set("crash", std::move(crash));
  obj.set("light", std::move(light));
  obj.set("noise", std::move(noise));
  return obj;
}

std::optional<FaultPlan> fault_plan_from_json(const util::JsonValue& json,
                                              std::string* error) {
  if (!json.is_object()) {
    set_error(error, "fault plan must be a JSON object");
    return std::nullopt;
  }
  FaultPlan plan;
  bool ok = true;
  for (const auto& [key, value] : json.members()) {
    if (key == "crash") {
      if (!value.is_object()) {
        set_error(error, "fault.crash must be a JSON object");
        ok = false;
        continue;
      }
      for (const auto& [ckey, cvalue] : value.members()) {
        if (ckey == "count") {
          if (!cvalue.is_integer() || cvalue.as_int() < 0) {
            set_error(error, "fault.crash.count must be a non-negative integer");
            ok = false;
          } else {
            plan.crash.count = static_cast<std::size_t>(cvalue.as_int());
          }
        } else if (ckey == "schedule") {
          if (const auto k = cvalue.is_string()
                                 ? crash_schedule_from_string(cvalue.as_string())
                                 : std::nullopt) {
            plan.crash.schedule = *k;
          } else {
            set_error(error, "fault.crash.schedule: unknown schedule kind");
            ok = false;
          }
        } else if (ckey == "rate") {
          ok = read_number(cvalue, plan.crash.rate, "crash.rate", error) && ok;
        } else if (ckey == "times") {
          if (!cvalue.is_array()) {
            set_error(error, "fault.crash.times must be an array of numbers");
            ok = false;
            continue;
          }
          plan.crash.times.clear();
          for (const auto& item : cvalue.items()) {
            if (!item.is_number()) {
              set_error(error, "fault.crash.times must contain only numbers");
              ok = false;
              break;
            }
            plan.crash.times.push_back(item.as_double());
          }
        } else {
          set_error(error, "fault.crash: unknown key \"" + ckey + "\"");
          ok = false;
        }
      }
    } else if (key == "light") {
      if (!value.is_object()) {
        set_error(error, "fault.light must be a JSON object");
        ok = false;
        continue;
      }
      for (const auto& [lkey, lvalue] : value.members()) {
        if (lkey == "probability") {
          ok = read_number(lvalue, plan.light.probability, "light.probability",
                           error) &&
               ok;
        } else if (lkey == "mode") {
          if (const auto m = lvalue.is_string()
                                 ? corruption_mode_from_string(lvalue.as_string())
                                 : std::nullopt) {
            plan.light.mode = *m;
          } else {
            set_error(error, "fault.light.mode: unknown corruption mode");
            ok = false;
          }
        } else {
          set_error(error, "fault.light: unknown key \"" + lkey + "\"");
          ok = false;
        }
      }
    } else if (key == "noise") {
      if (!value.is_object()) {
        set_error(error, "fault.noise must be a JSON object");
        ok = false;
        continue;
      }
      for (const auto& [nkey, nvalue] : value.members()) {
        if (nkey == "sigma") {
          ok = read_number(nvalue, plan.noise.sigma, "noise.sigma", error) && ok;
        } else if (nkey == "dropout") {
          ok = read_number(nvalue, plan.noise.dropout, "noise.dropout", error) &&
               ok;
        } else {
          set_error(error, "fault.noise: unknown key \"" + nkey + "\"");
          ok = false;
        }
      }
    } else {
      set_error(error, "fault plan: unknown key \"" + key + "\"");
      ok = false;
    }
  }
  if (!ok) return std::nullopt;
  if (const std::string problem = validate_fault_plan(plan); !problem.empty()) {
    set_error(error, "fault." + problem);
    return std::nullopt;
  }
  return plan;
}

}  // namespace lumen::fault
