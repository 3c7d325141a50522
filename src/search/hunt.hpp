// lumen_search: the hunt driver.
//
// A hunt is an optimization loop over AdversaryPlan space: a (μ+λ)
// evolutionary loop proposes batches of plans, the campaign layer
// evaluates each plan as one deterministic single-cell campaign (the
// fitness oracle), and the best plan found is handed to the shrinking
// minimizer (minimize.hpp). Plans are proposed on the driver thread only;
// evaluations fan out over the shared ThreadPool. Because every evaluation
// is a pure function of its plan and batches are assembled before any
// evaluation starts, the whole trajectory — every plan proposed, every
// score observed, the best and the minimized plan — is bit-identical for
// any pool size, pinned by a golden digest in tests/search_test.cpp. The
// same purity lets a process run each distinct cell once: a plan proposed
// again (a no-op mutation, a crossover of equal parents, a minimizer
// candidate retried after a sweep, or a cell another fitness's hunt already
// ran) takes the recorded metrics from an EvaluationMemo, re-scored for the
// hunt's fitness, instead of running its cell again.
//
// Evaluations reuse the campaign resilience hooks verbatim: pass a
// CampaignControl with a journal and resume snapshot and a killed hunt
// resumes exactly like a killed campaign (each plan is its own campaign
// key; journal files hold many keys).
#pragma once

#include "analysis/scenario.hpp"
#include "search/fitness.hpp"
#include "search/plan.hpp"
#include "util/strings.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lumen::search {

/// The search strategy. (μ+λ) is the only one; the enum stays so the hunt
/// summary and emitted scenario names keep their "mu-lambda" tag.
enum class StrategyKind {
  kMuPlusLambda,  ///< (μ+λ) evolutionary loop: mutate/cross the elite.
};

inline constexpr auto kStrategyNames = std::to_array<util::Named<StrategyKind>>({
    {StrategyKind::kMuPlusLambda, "mu-lambda"},
});

[[nodiscard]] constexpr std::string_view to_string(StrategyKind k) noexcept {
  return util::name_of(kStrategyNames, k);
}

struct HuntSpec {
  std::string algorithm = "async-log";
  gen::ConfigFamily family = gen::ConfigFamily::kUniformDisk;
  FitnessKind fitness = FitnessKind::kEpochs;
  StrategyKind strategy = StrategyKind::kMuPlusLambda;
  /// Template plan: fixes the scheduler (and seeds the initial population).
  AdversaryPlan seed_plan;
  PlanBounds bounds;
  std::uint64_t hunt_seed = 1;
  /// Total evaluation budget for the search loop (the minimizer draws from
  /// its own minimize_budget on top).
  std::size_t budget = 256;
  std::size_t population = 8;   ///< μ — survivors per generation.
  std::size_t offspring = 16;   ///< λ — children per generation.
  /// Evaluation-cell knobs (mirrors CampaignSpec).
  double min_separation = 1e-3;
  double collision_tolerance = 0.0;
  std::size_t max_cycles_per_robot = 256;
  /// Minimizer evaluation budget (see minimize.hpp).
  std::size_t minimize_budget = 96;
};

/// Everything the hunt validator checks beyond what the campaign validator
/// will re-check per evaluation. Empty string when valid.
[[nodiscard]] std::string validate_hunt_spec(const HuntSpec& spec);

/// One scored plan. `failed` marks evaluations whose cell errored (score is
/// the lowest double; metrics are default); they stay in the history (the
/// digest covers them) but never win.
struct Evaluation {
  AdversaryPlan plan;
  analysis::RunMetrics metrics;
  double score = 0.0;
  bool failed = false;
};

struct HuntResult {
  HuntSpec spec;
  /// Every evaluation in proposal order — the deterministic trajectory.
  std::vector<Evaluation> history;
  /// Best by (score, then earliest in history). Unset only when the hunt
  /// was stopped before any evaluation finished.
  std::optional<Evaluation> best;
  /// The minimizer's shrunken equivalent of `best` (== best when no shrink
  /// step preserved the score).
  std::optional<Evaluation> minimized;
  std::size_t evaluations = 0;      ///< Search-loop evaluations performed.
  std::size_t minimize_evals = 0;   ///< Minimizer evaluations performed.
  std::size_t minimize_accepted = 0;  ///< Accepted shrink steps.
  bool stopped = false;  ///< Cooperative stop fired; result is partial.
  /// Non-empty when the spec failed validation; nothing ran.
  std::string error;
};

/// Projects (hunt, plan) onto the declarative scenario layer: a runs=1,
/// ns={plan.n}, seed_base=plan.seed ScenarioSpec. Both the hunt's fitness
/// oracle and the committed regression scenarios are THIS projection run
/// through run_campaign, so a replayed scenario reproduces its hunt
/// evaluation bit-for-bit.
[[nodiscard]] analysis::ScenarioSpec hunt_scenario(const HuntSpec& spec,
                                                   const AdversaryPlan& plan);

/// The metrics of every cell that finished successfully in this process,
/// keyed by the cell a plan projects to: the campaign_key of
/// hunt_scenario(spec, plan) plus the plan's seed. A hit is re-scored for
/// the asking hunt's fitness, so hunts of different fitnesses whose specs
/// project a plan onto the same cell share it (min-separation and outcome
/// both audit collisions). Failed evaluations are never kept: a deadline,
/// an exception or a stop is not a pure function of the cell.
using EvaluationMemo = std::unordered_map<std::string, analysis::RunMetrics>;

/// Evaluates one plan: always runs its single-cell campaign on the caller
/// thread, with no memo (the pool only feeds the in-run SYNC fan-out when
/// called off the pool's own workers).
[[nodiscard]] Evaluation evaluate_plan(const HuntSpec& spec,
                                       const AdversaryPlan& plan,
                                       util::ThreadPool* pool,
                                       const analysis::CampaignControl& control);

/// Evaluates a pre-assembled batch, index-addressed. Each distinct cell
/// that `memo` does not hold runs once, over the pool; a repeat within the
/// batch or a memo hit is scored into its slot, with its own plan, and runs
/// no cell (so it writes no journal record and fires no on_cell).
/// Successful new cells join `memo`. The result is identical for any pool
/// size and memo content (E13's uniform-sampling baseline, the hunt loop and
/// the minimizer's windows all ride this). nullptr pool ->
/// util::global_pool(); nullptr memo -> a memo local to this call.
[[nodiscard]] std::vector<Evaluation> evaluate_plans(
    const HuntSpec& spec, const std::vector<AdversaryPlan>& plans,
    util::ThreadPool* pool = nullptr,
    const analysis::CampaignControl& control = {},
    EvaluationMemo* memo = nullptr);

/// Runs the full hunt: the (μ+λ) loop, then minimization of the winner,
/// both through one EvaluationMemo — `memo`, which the caller may share
/// across hunts, or one local to this hunt when nullptr. The result does not
/// depend on the memo's content. nullptr pool -> util::global_pool().
/// Control hooks work exactly as in run_campaign (journal / resume /
/// cooperative stop).
[[nodiscard]] HuntResult run_hunt(const HuntSpec& spec,
                                  util::ThreadPool* pool = nullptr,
                                  const analysis::CampaignControl& control = {},
                                  EvaluationMemo* memo = nullptr);

/// FNV-1a digest over the full trajectory (every plan fingerprint, score
/// and outcome, plus the minimized plan): the constant tests pin to assert
/// cross-pool-size and cross-platform hunt determinism.
[[nodiscard]] std::uint64_t hunt_digest(const HuntResult& result);

}  // namespace lumen::search
