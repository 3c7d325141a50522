// lumen_search: fitness functions over one evaluated run.
//
// A fitness maps the RunMetrics of a single campaign cell to a score where
// HIGHER IS WORSE for the algorithm — the hunt maximizes it. Three views of
// "bad" are searchable: how long convergence took (epochs), how close the
// swarm came to a collision (near-miss margin), and the categorical outcome
// class itself. Scores are pure functions of the metrics, so a hunt's
// trajectory is exactly as deterministic as the runs underneath it.
#pragma once

#include "analysis/campaign.hpp"
#include "util/strings.hpp"

#include <optional>
#include <span>
#include <string_view>

namespace lumen::search {

enum class FitnessKind {
  kEpochs,         ///< Epochs to quiescence; non-quiescent runs dominate.
  kMinSeparation,  ///< Negated closest approach; real collisions dominate.
  kOutcome,        ///< Outcome-class severity, epochs as the tiebreak.
};

inline constexpr auto kFitnessNames = std::to_array<util::Named<FitnessKind>>({
    {FitnessKind::kEpochs, "epochs"},
    {FitnessKind::kMinSeparation, "min-separation"},
    {FitnessKind::kOutcome, "outcome"},
});

[[nodiscard]] constexpr std::string_view to_string(FitnessKind k) noexcept {
  return util::name_of(kFitnessNames, k);
}

[[nodiscard]] constexpr std::optional<FitnessKind> fitness_from_string(
    std::string_view name) noexcept {
  return util::parse_name(kFitnessNames, name);
}

inline constexpr auto kAllFitnessKinds = util::values_of(kFitnessNames);

/// All kinds, in presentation order.
[[nodiscard]] constexpr std::span<const FitnessKind> all_fitness_kinds() noexcept {
  return kAllFitnessKinds;
}

/// Severity rank of an outcome for the kOutcome fitness (and the minimizer's
/// class-preservation check): converged < stalled < deadline-exceeded <
/// budget-exhausted < collision.
[[nodiscard]] int outcome_rank(sim::RunOutcome outcome) noexcept;

/// The score the hunt maximizes. Higher is worse for the algorithm:
///  * kEpochs — epochs, plus a 1e6 penalty band when the run never went
///    quiescent (and 2e6 when it collided): a non-converging plan always
///    outranks any converging one.
///  * kMinSeparation — minus the audited closest approach, plus 1e6 per
///    position collision: grazing passes score near zero from below, real
///    contact dominates everything.
///  * kOutcome — outcome_rank * 1e6 + epochs.
[[nodiscard]] double fitness_score(FitnessKind kind,
                                   const analysis::RunMetrics& m) noexcept;

/// Whether this fitness needs the campaign's streaming collision audit
/// (min-separation and outcome read the audit's verdicts).
[[nodiscard]] bool fitness_needs_audit(FitnessKind kind) noexcept;

}  // namespace lumen::search
