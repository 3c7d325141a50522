// lumen_search: committed adversarial regression scenarios.
//
// The end product of a hunt is a small JSON document under
// scenarios/adversarial/: the minimized ScenarioSpec (the exact projection
// the hunt evaluated — see hunt_scenario), the fitness it was hunted under,
// the score it achieved, and the recorded expectations (outcome class,
// epoch count, audited closest approach). ctest replays every committed
// document (tests/search_regression_test.cpp) and asserts the expectations
// exactly — runs are deterministic in their seed, so a replay that drifts
// means the engine's behavior changed, which is precisely what a
// regression scenario exists to catch.
//
// Documents carry type "lumen-adversarial-scenario" version 1 and
// round-trip byte-identically, like every other spec in the repo.
#pragma once

#include "search/hunt.hpp"

#include <optional>
#include <string>
#include <string_view>

namespace lumen::search {

struct AdversarialScenario {
  FitnessKind fitness = FitnessKind::kEpochs;
  /// The minimized plan's projection (runs=1, ns={n}, seed_base=seed).
  analysis::ScenarioSpec scenario;
  double score = 0.0;
  /// What a replay must reproduce exactly.
  struct Expectation {
    sim::RunOutcome outcome = sim::RunOutcome::kConverged;
    std::size_t epochs = 0;
    /// Audited closest approach; 0 when the fitness runs unaudited.
    double min_separation = 0.0;
  } expect;
  /// Free-text provenance (strategy, hunt seed, budget). Not asserted.
  std::string note;
};

/// Deterministic serialization with the byte-exact round-trip guarantee.
[[nodiscard]] std::string adversarial_scenario_to_json(
    const AdversarialScenario& scenario);

struct AdversarialScenarioParse {
  std::optional<AdversarialScenario> scenario;
  std::string error;
};

[[nodiscard]] AdversarialScenarioParse adversarial_scenario_from_json(
    std::string_view text);

/// File convenience wrappers.
bool save_adversarial_scenario(const AdversarialScenario& scenario,
                               const std::string& path);
[[nodiscard]] AdversarialScenarioParse load_adversarial_scenario(
    const std::string& path);

/// Wraps a hunt's minimized winner as a committable regression document.
[[nodiscard]] AdversarialScenario make_regression_scenario(
    const HuntSpec& spec, const Evaluation& minimized, std::string note = "");

struct ReplayVerdict {
  analysis::RunMetrics metrics;
  double score = 0.0;
  bool ran = false;              ///< The single cell produced metrics.
  bool outcome_matches = false;  ///< Outcome class equals the recorded one.
  bool epochs_match = false;
  bool min_separation_matches = false;
  std::string detail;  ///< Human-readable mismatch description.

  [[nodiscard]] bool passed() const noexcept {
    return ran && outcome_matches && epochs_match && min_separation_matches;
  }
};

/// Re-runs the recorded scenario (one deterministic cell) and checks every
/// expectation exactly — bit-identical doubles included, matching the
/// repo's golden-digest philosophy.
[[nodiscard]] ReplayVerdict replay_adversarial_scenario(
    const AdversarialScenario& scenario, util::ThreadPool* pool = nullptr);

}  // namespace lumen::search
