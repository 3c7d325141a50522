// lumen_fault: declarative fault plans.
//
// A FaultPlan composes three independent fault channels — crash-stop
// robots, corrupted light reads, and noisy snapshots — each driven by its
// own PRNG stream derived from the run seed, so enabling one channel never
// perturbs another and the all-default plan is bit-identical to a fault-free
// run (pinned by tests/sim_fault_test.cpp). Plans are plain data: they
// embed in sim::RunConfig, serialize through their field lists inside
// analysis::ScenarioSpec with the same byte-exact round-trip guarantee, and
// compare with ==. Semantics of each channel are documented in DESIGN.md
// §11.
#pragma once

#include "util/fields.hpp"
#include "util/strings.hpp"

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

inline constexpr auto kCrashScheduleNames =
    std::to_array<util::Named<CrashScheduleKind>>({
        {CrashScheduleKind::kRate, "rate"},
        {CrashScheduleKind::kTimes, "times"},
    });

[[nodiscard]] constexpr std::string_view to_string(CrashScheduleKind k) noexcept {
  return util::name_of(kCrashScheduleNames, k);
}

[[nodiscard]] constexpr std::optional<CrashScheduleKind> crash_schedule_from_string(
    std::string_view name) noexcept {
  return util::parse_name(kCrashScheduleNames, name);
}

/// What a corrupted light read becomes: stuck at kOff, deterministically
/// flipped to the next palette color, or a uniformly random DIFFERENT color.
enum class CorruptionMode { kStuck, kFlip, kRandom };

inline constexpr auto kCorruptionModeNames = std::to_array<util::Named<CorruptionMode>>({
    {CorruptionMode::kStuck, "stuck"},
    {CorruptionMode::kFlip, "flip"},
    {CorruptionMode::kRandom, "random"},
});

[[nodiscard]] constexpr std::string_view to_string(CorruptionMode m) noexcept {
  return util::name_of(kCorruptionModeNames, m);
}

[[nodiscard]] constexpr std::optional<CorruptionMode> corruption_mode_from_string(
    std::string_view name) noexcept {
  return util::parse_name(kCorruptionModeNames, name);
}

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

/// The plan's range rules: rate, probability and dropout in [0, 1], sigma
/// and crash times finite and non-negative. Returns the first problem as a
/// message naming the field relative to the plan ("crash.rate must be in
/// [0, 1]"), or an empty string when the plan is in range.
[[nodiscard]] std::string validate_fault_plan(const FaultPlan& plan);

// JSON field lists (util/fields.hpp); every sub-object is always written.
// A plan read from JSON still has to pass validate_fault_plan.

template <typename Io, util::FieldsOf<CrashPlan> C>
void fields(Io& io, C& crash) {
  io("count", crash.count);
  io("schedule", crash.schedule, crash_schedule_from_string);
  io("rate", crash.rate);
  io("times", crash.times);
}

template <typename Io, util::FieldsOf<LightCorruptionPlan> C>
void fields(Io& io, C& light) {
  io("probability", light.probability);
  io("mode", light.mode, corruption_mode_from_string);
}

template <typename Io, util::FieldsOf<SensorNoisePlan> C>
void fields(Io& io, C& noise) {
  io("sigma", noise.sigma);
  io("dropout", noise.dropout);
}

template <typename Io, util::FieldsOf<FaultPlan> C>
void fields(Io& io, C& plan) {
  io("crash", plan.crash);
  io("light", plan.light);
  io("noise", plan.noise);
}

}  // namespace lumen::fault
