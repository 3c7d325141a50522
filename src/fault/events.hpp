// lumen_fault: fault events and counters — the vocabulary shared between
// the injection machinery (state.hpp), the engine observers (sim) and the
// degradation experiments (analysis).
//
// Kept free of any sim dependency so sim/observer.hpp can expose an
// on_fault hook without a header cycle.
#pragma once

#include "geom/vec2.hpp"
#include "util/fields.hpp"
#include "util/strings.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace lumen::fault {

/// Which injection channel produced an event (kNone is the "no fault"
/// attribution value used by the safety monitor).
enum class FaultChannel { kNone, kCrash, kLight, kNoise };

inline constexpr auto kFaultChannelNames = std::to_array<util::Named<FaultChannel>>({
    {FaultChannel::kNone, "none"},
    {FaultChannel::kCrash, "crash"},
    {FaultChannel::kLight, "light"},
    {FaultChannel::kNoise, "noise"},
});

[[nodiscard]] constexpr std::string_view to_string(FaultChannel c) noexcept {
  return util::name_of(kFaultChannelNames, c);
}

/// Used by the campaign journal's RunMetrics round-trip.
[[nodiscard]] constexpr std::optional<FaultChannel> channel_from_string(
    std::string_view name) noexcept {
  return util::parse_name(kFaultChannelNames, name);
}

/// One injected fault occurrence, as delivered to RunObserver::on_fault.
/// A crash event reports the robot's death; a light/noise event summarizes
/// everything that channel did to ONE robot's Look (so at most one event
/// per channel per Look reaches the observers).
struct FaultEvent {
  FaultChannel channel = FaultChannel::kNone;
  std::size_t robot = 0;
  double time = 0.0;
  /// The affected robot's true world position at the event time.
  geom::Vec2 position{};
  std::uint32_t corrupted_reads = 0;  ///< kLight: misread colors this Look.
  std::uint32_t dropped = 0;          ///< kNoise: robots dropped from view.
  std::uint32_t perturbed = 0;        ///< kNoise: positions perturbed.
};

/// Whole-run per-channel totals (RunResult::faults).
struct FaultCounters {
  std::uint64_t crashes = 0;
  std::uint64_t corrupted_reads = 0;
  std::uint64_t dropped_observations = 0;
  std::uint64_t perturbed_observations = 0;

  [[nodiscard]] bool any() const noexcept {
    return (crashes | corrupted_reads | dropped_observations |
            perturbed_observations) != 0;
  }

  friend bool operator==(const FaultCounters&, const FaultCounters&) = default;
};

/// JSON field list (util/fields.hpp); journaled inside RunMetrics.
template <typename Io, util::FieldsOf<FaultCounters> C>
void fields(Io& io, C& counters) {
  io("crashes", counters.crashes);
  io("corrupted_reads", counters.corrupted_reads);
  io("dropped_observations", counters.dropped_observations);
  io("perturbed_observations", counters.perturbed_observations);
}

}  // namespace lumen::fault
