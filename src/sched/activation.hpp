// lumen_sched: round-based activation policies (FSYNC / SSYNC).
//
// In the (semi-)synchronous settings time is discrete rounds; in each round
// a scheduler activates a non-empty subset of robots which then Look,
// Compute and Move atomically. FSYNC activates everyone; SSYNC adversaries
// pick subsets. Fairness (every robot activated infinitely often) is
// guaranteed by construction in every policy here.
#pragma once

#include "util/prng.hpp"
#include "util/strings.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace lumen::sched {

enum class ActivationKind {
  kAll,          ///< FSYNC: every robot, every round.
  kRandomHalf,   ///< SSYNC: each robot independently with probability 1/2
                 ///< (re-drawn until non-empty).
  kSingleton,    ///< SSYNC worst case: exactly one robot per round,
                 ///< round-robin — the sequential adversary.
  kRandomSingle, ///< SSYNC: one uniformly random robot per round.
};

inline constexpr auto kActivationNames = std::to_array<util::Named<ActivationKind>>({
    {ActivationKind::kAll, "fsync-all"},
    {ActivationKind::kRandomHalf, "ssync-half"},
    {ActivationKind::kSingleton, "ssync-singleton"},
    {ActivationKind::kRandomSingle, "ssync-rand1"},
});

[[nodiscard]] constexpr std::string_view to_string(ActivationKind k) noexcept {
  return util::name_of(kActivationNames, k);
}

[[nodiscard]] constexpr std::optional<ActivationKind> activation_from_string(
    std::string_view name) noexcept {
  return util::parse_name(kActivationNames, name);
}

/// Fills `out` with the robots of `n` (> 0) activated in `round`:
/// non-empty, strictly increasing. `out` is overwritten, so a caller can
/// reuse one buffer for every round.
void activate(ActivationKind kind, std::size_t n, std::uint64_t round,
              util::Prng& rng, std::vector<std::size_t>& out);

}  // namespace lumen::sched
