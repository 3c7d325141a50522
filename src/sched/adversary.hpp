// lumen_sched: ASYNC adversaries.
//
// In the asynchronous model every robot's Wait, Compute and Move phases take
// arbitrary finite durations chosen by an adversary. We model the adversary
// as a seeded policy that samples per-cycle phase timings; different policy
// families stress different hazards (uniform jitter, heavy-tailed stalls, a
// single slow robot, bursty lockstep-then-chaos). Determinism: the same
// (policy, seed) reproduces the same schedule bit-for-bit.
#pragma once

#include "util/prng.hpp"
#include "util/strings.hpp"

#include <cstddef>
#include <optional>
#include <string_view>

namespace lumen::sched {

/// Durations of the non-instantaneous phases of one LCM cycle.
/// Look itself is instantaneous (a snapshot). Movement is rigid (the robot
/// always arrives); the adversary picks the DURATION of the move directly —
/// the robot's speed is whatever covers the distance in that time. Sampling
/// duration rather than speed keeps epochs comparable across world scales
/// (a move across the configuration and a local nudge are both "one move"
/// to the time measure, exactly as in the abstract model where the
/// adversary may pause and speed up robots arbitrarily mid-cycle).
struct PhaseTiming {
  double wait = 0.0;           ///< Idle time before Look.
  double compute = 0.0;        ///< Time between Look and the move/light commit.
  double move_duration = 1.0;  ///< Time a (non-null) Move takes (> 0).
};

/// Known adversary families.
enum class AdversaryKind {
  kUniform,   ///< All phases uniform in moderate ranges — generic jitter.
  kBursty,    ///< Exponential heavy-tail waits: long stalls amid fast cycles.
  kStallOne,  ///< Robot 0 runs an order of magnitude slower than the rest.
  kLockstep,  ///< Near-identical timings: adversary tries to synchronize
              ///< Looks so stale-snapshot races collide maximally.
};

inline constexpr auto kAdversaryNames = std::to_array<util::Named<AdversaryKind>>({
    {AdversaryKind::kUniform, "uniform"},
    {AdversaryKind::kBursty, "bursty"},
    {AdversaryKind::kStallOne, "stall-one"},
    {AdversaryKind::kLockstep, "lockstep"},
});

[[nodiscard]] constexpr std::string_view to_string(AdversaryKind k) noexcept {
  return util::name_of(kAdversaryNames, k);
}

[[nodiscard]] constexpr std::optional<AdversaryKind> adversary_from_string(
    std::string_view name) noexcept {
  return util::parse_name(kAdversaryNames, name);
}

/// Samples the phase timings of `robot`'s next cycle. `rng` is the engine's
/// schedule stream; every adversary draws all its randomness from it.
[[nodiscard]] PhaseTiming sample_timing(AdversaryKind kind, std::size_t robot,
                                        util::Prng& rng);

}  // namespace lumen::sched
