#include "fault/plan.hpp"

#include <cmath>

namespace lumen::fault {

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
