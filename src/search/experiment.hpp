// lumen_search: the E13 hunt experiment.
//
// E13 puts worst-case numbers next to the mean tables: for each fitness
// function it evaluates a uniform-sampling baseline (the E9-E11
// methodology — random plans from the same bounds) and then runs the
// (μ+λ) hunt with the same evaluation budget scale, reporting
// baseline-mean / baseline-worst / hunt-best / minimized side by side.
//
// The experiment lives in lumen_search but appears in the registry as E13:
// lumen_analysis cannot depend on this library (the hunt depends on the
// campaign layer), so hosts that want E13 — the lumen-bench driver, the
// search tests — call register_hunt_experiment() at startup, which feeds
// ExperimentRegistry::register_external. Analysis-only binaries keep the
// closed built-in registry.
#pragma once

#include "analysis/experiments.hpp"
#include "search/hunt.hpp"

namespace lumen::search {

/// Derives the hunt configuration E13 (and the CLI's defaults) uses for a
/// scenario: seed plan from the spec's run template, N pinned to
/// ns.front(), budgets scaled from spec.runs so --smoke stays tiny.
[[nodiscard]] HuntSpec hunt_spec_for_scenario(const analysis::ScenarioSpec& spec,
                                              FitnessKind fitness);

/// The E13 body (exposed for direct testing).
[[nodiscard]] analysis::ExperimentResult run_adversarial_hunt(
    const analysis::ScenarioSpec& spec, const analysis::ExperimentContext& ctx);

/// Registers E13 ("adversarial-hunt") with the experiment registry.
/// Idempotent; call from main() before querying the registry.
void register_hunt_experiment();

}  // namespace lumen::search
