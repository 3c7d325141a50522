// lumen_fault: declarative fault plans.
//
// A FaultPlan composes three independent fault channels — crash-stop
// robots, corrupted light reads, and noisy snapshots — each driven by its
// own PRNG stream derived from the run seed, so enabling one channel never
// perturbs another and the all-default plan is bit-identical to a fault-free
// run (pinned by tests/sim_fault_test.cpp). Plans are plain data: they
// embed in sim::RunConfig, serialize through util::JsonValue inside
// analysis::ScenarioSpec with the same byte-exact round-trip guarantee, and
// compare with ==. Semantics of each channel are documented in DESIGN.md
// §11.
#pragma once

#include "util/json.hpp"

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lumen::fault {

/// How crash instants are chosen: a per-cycle-start Bernoulli rate, or an
/// explicit schedule of times ("the first robot to start a cycle at or
/// after times[k] dies").
enum class CrashScheduleKind { kRate, kTimes };

[[nodiscard]] std::string_view to_string(CrashScheduleKind k) noexcept;
/// Case-insensitive inverse ("rate" == "RATE"); nullopt for unknown names.
[[nodiscard]] std::optional<CrashScheduleKind> crash_schedule_from_string(
    std::string_view name) noexcept;

/// What a corrupted light read becomes: stuck at kOff, deterministically
/// flipped to the next palette color, or a uniformly random DIFFERENT color.
enum class CorruptionMode { kStuck, kFlip, kRandom };

[[nodiscard]] std::string_view to_string(CorruptionMode m) noexcept;
[[nodiscard]] std::optional<CorruptionMode> corruption_mode_from_string(
    std::string_view name) noexcept;

/// Crash-stop channel: kills up to `count` robots. A crashed robot stops
/// executing cycles forever; its body keeps obstructing visibility and its
/// last light stays visible to everyone else.
struct CrashPlan {
  std::size_t count = 0;  ///< f — the crash budget; 0 disables the channel.
  CrashScheduleKind schedule = CrashScheduleKind::kRate;
  double rate = 0.0;          ///< kRate: P(crash) at each cycle start.
  std::vector<double> times;  ///< kTimes: crash instants (sorted on use).

  [[nodiscard]] bool active() const noexcept {
    return count > 0 && (schedule == CrashScheduleKind::kRate ? rate > 0.0
                                                              : !times.empty());
  }

  friend bool operator==(const CrashPlan&, const CrashPlan&) = default;
};

/// Byzantine-lite lights: each OBSERVED color (never the observer's own
/// light, which is internal state) is independently misread with
/// `probability` per Look.
struct LightCorruptionPlan {
  double probability = 0.0;
  CorruptionMode mode = CorruptionMode::kRandom;

  [[nodiscard]] bool active() const noexcept { return probability > 0.0; }

  friend bool operator==(const LightCorruptionPlan&,
                         const LightCorruptionPlan&) = default;
};

/// Sensor noise: per-Look Gaussian perturbation (std dev `sigma` per axis)
/// of every OTHER robot's observed position, plus per-robot `dropout`
/// probability of vanishing from the snapshot entirely. The observer's view
/// only — ground truth is untouched.
struct SensorNoisePlan {
  double sigma = 0.0;
  double dropout = 0.0;

  [[nodiscard]] bool active() const noexcept {
    return sigma > 0.0 || dropout > 0.0;
  }

  friend bool operator==(const SensorNoisePlan&,
                         const SensorNoisePlan&) = default;
};

struct FaultPlan {
  CrashPlan crash;
  LightCorruptionPlan light;
  SensorNoisePlan noise;

  [[nodiscard]] bool any() const noexcept {
    return crash.active() || light.active() || noise.active();
  }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Deterministic JSON form (fixed key order; sub-objects always present).
/// Round-trips byte-identically through fault_plan_from_json for any string
/// it emitted, matching the ScenarioSpec guarantee.
[[nodiscard]] util::JsonValue fault_plan_to_json(const FaultPlan& plan);

/// The plan's range rules: rate, probability and dropout in [0, 1], sigma
/// and crash times finite and non-negative. Returns the first problem as a
/// message naming the field relative to the plan ("crash.rate must be in
/// [0, 1]"), or an empty string when the plan is in range.
[[nodiscard]] std::string validate_fault_plan(const FaultPlan& plan);

/// Parses a plan document. Missing keys keep their defaults; unknown keys,
/// type mismatches, a negative crash count and plans validate_fault_plan
/// rejects are errors.
[[nodiscard]] std::optional<FaultPlan> fault_plan_from_json(
    const util::JsonValue& json, std::string* error = nullptr);

}  // namespace lumen::fault
