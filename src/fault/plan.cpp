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

}  // namespace lumen::fault
