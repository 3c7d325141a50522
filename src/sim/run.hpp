// lumen_sim: running one execution end-to-end.
//
// run_simulation() binds an Algorithm, an initial configuration and a
// scheduler into one execution and returns everything the monitors, benches
// and renderers need: the motion record, the cycle timeline (for epoch
// accounting), the lights audit and the convergence status.
#pragma once

#include "fault/events.hpp"
#include "fault/plan.hpp"
#include "geom/vec2.hpp"
#include "model/algorithm.hpp"
#include "model/light.hpp"
#include "sched/activation.hpp"
#include "sched/adversary.hpp"
#include "sched/epoch.hpp"
#include "sim/observer.hpp"
#include "sim/trajectory.hpp"
#include "util/strings.hpp"

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace lumen::util {
class ThreadPool;
}

namespace lumen::sim {

struct LookArena;

enum class SchedulerKind { kFsync, kSsync, kAsync };

inline constexpr auto kSchedulerNames = std::to_array<util::Named<SchedulerKind>>({
    {SchedulerKind::kFsync, "FSYNC"},
    {SchedulerKind::kSsync, "SSYNC"},
    {SchedulerKind::kAsync, "ASYNC"},
});

[[nodiscard]] constexpr std::string_view to_string(SchedulerKind k) noexcept {
  return util::name_of(kSchedulerNames, k);
}

[[nodiscard]] constexpr std::optional<SchedulerKind> scheduler_from_string(
    std::string_view name) noexcept {
  return util::parse_name(kSchedulerNames, name);
}

/// How a run ended, beyond the raw `converged` bit:
///  * kConverged — quiescent with no faults injected into the trajectory
///    (light/noise channels may have fired; the swarm still reached a
///    fixpoint).
///  * kStalled — quiescent, but robots crash-stopped along the way: the
///    survivors reached a fixpoint of the CRASHED world, which is not the
///    paper's Complete Visibility postcondition.
///  * kCollision — assigned post-hoc by the campaign layer when the audit
///    finds a position collision (the engine itself never stops on one).
///  * kBudgetExhausted — the cycle/round cap fired before quiescence.
///  * kDeadlineExceeded — the wall-clock watchdog (RunConfig::deadline_ms)
///    fired at a cycle boundary before quiescence. Unlike every other
///    outcome this one is timing-dependent, which is exactly its job: a run
///    hung under an adversarial schedule is classified and returned instead
///    of wedging a campaign worker forever. The campaign layer treats it as
///    retriable (see analysis::CampaignError).
enum class RunOutcome {
  kConverged,
  kStalled,
  kCollision,
  kBudgetExhausted,
  kDeadlineExceeded
};

inline constexpr auto kOutcomeNames = std::to_array<util::Named<RunOutcome>>({
    {RunOutcome::kConverged, "converged"},
    {RunOutcome::kStalled, "stalled"},
    {RunOutcome::kCollision, "collision"},
    {RunOutcome::kBudgetExhausted, "budget-exhausted"},
    {RunOutcome::kDeadlineExceeded, "deadline-exceeded"},
});

[[nodiscard]] constexpr std::string_view to_string(RunOutcome o) noexcept {
  return util::name_of(kOutcomeNames, o);
}

[[nodiscard]] constexpr std::optional<RunOutcome> outcome_from_string(
    std::string_view name) noexcept {
  return util::parse_name(kOutcomeNames, name);
}

struct RunConfig {
  SchedulerKind scheduler = SchedulerKind::kAsync;
  /// ASYNC only: the timing adversary.
  sched::AdversaryKind adversary = sched::AdversaryKind::kUniform;
  /// SSYNC only: the activation adversary (FSYNC forces kAll).
  sched::ActivationKind activation = sched::ActivationKind::kRandomHalf;
  std::uint64_t seed = 1;
  /// Abort threshold: a run exceeding this many cycles per robot (on
  /// average) is reported as not converged.
  std::size_t max_cycles_per_robot = 4096;
  /// Per-run wall-clock watchdog in milliseconds; 0 disables it. Enforced
  /// cooperatively at cycle/round boundaries by the drivers (never
  /// mid-phase), so a run under an adversarial scheduler that would
  /// otherwise hang a campaign worker ends with RunOutcome::
  /// kDeadlineExceeded instead. The cut-off instant is wall-clock and thus
  /// NOT deterministic — results of runs that finish within the budget are
  /// unaffected (the watchdog never draws from any PRNG stream).
  /// Serialized by config_io only when nonzero, so pre-watchdog documents
  /// stay byte-identical.
  std::uint64_t deadline_ms = 0;
  /// Draw a fresh random local frame at every Look (full disorientation).
  /// When false, each robot keeps one fixed random frame.
  bool refresh_frames_each_look = true;
  /// Retain the full move log in RunResult::moves. On by default for
  /// single-run workflows (traces, SVG, post-hoc audits); campaigns switch
  /// it off and audit with the streaming collision monitor instead, so a
  /// run's memory no longer grows with its length.
  bool record_moves = true;
  /// Rigid movement: a moving robot always reaches its target. When false
  /// (the NON-RIGID model variant), the adversary may stop the robot
  /// anywhere along its path as long as it travels at least
  /// min(delta, the full distance) for a fixed delta of 0.5 — the classic
  /// guarantee that keeps Zeno behaviours out.
  bool rigid_moves = true;
  /// Optional in-run worker pool (non-owning; nullptr = serial). The SYNC
  /// drivers fan each round's Look+Compute over it — every activated robot
  /// snapshots the same pre-round configuration and Compute is a pure
  /// function of the snapshot, so results are bit-identical for any pool
  /// size (pinned by tests/sim_pool_invariance_test.cpp). ASYNC ignores it:
  /// the event loop interleaves single-robot phases, so there is no
  /// intra-run batch to parallelize (DESIGN.md §10). Not serialized by
  /// config_io (a pool is a process-local resource, not configuration).
  util::ThreadPool* pool = nullptr;
  /// Optional cross-run Look workspace (non-owning; nullptr = the engine
  /// uses a private arena). Campaign workers pass one arena for all their
  /// cells so visibility scratch and cache capacity survive engine resets.
  /// Results are bit-identical with and without a shared arena. Not
  /// serialized by config_io (a process-local resource, like `pool`).
  LookArena* arena = nullptr;
  /// Byte budget for the incremental visibility cache (see
  /// geom::VisibilityCache): per-observer sorted angular orders are
  /// retained and repaired from the world's write log instead of rebuilt
  /// every Look. 0 disables caching. The cache is bit-identity-preserving
  /// by construction, so this knob trades memory for Look time only.
  /// Not serialized by config_io while it is a pure performance knob.
  std::size_t visibility_cache_budget = 256u << 20;
  /// Fault injection plan (crash-stop / light corruption / sensor noise;
  /// see fault/plan.hpp). The default (empty) plan is bit-identical to the
  /// pre-fault engine on every scheduler and pool size. Serialized by
  /// config_io only when non-default.
  fault::FaultPlan fault;
};

struct RunResult {
  bool converged = false;
  double final_time = 0.0;
  std::size_t epochs = 0;        ///< ASYNC epochs / sync epochs (see DESIGN §1).
  std::size_t rounds = 0;        ///< Sync rounds executed (0 for ASYNC).
  std::size_t total_cycles = 0;
  std::size_t total_moves = 0;
  double total_distance = 0.0;
  std::vector<geom::Vec2> initial_positions;
  std::vector<geom::Vec2> final_positions;
  std::vector<model::Light> final_lights;
  /// Full move log — populated only when RunConfig::record_moves is set
  /// (the default). total_moves / total_distance are always maintained.
  std::vector<MoveSegment> moves;
  /// lights_seen[i] is true iff color kAllLights[i] was ever displayed.
  std::array<bool, model::kLightCount> lights_seen{};
  /// Outcome classification (converged / stalled / budget-exhausted from
  /// the engine; the campaign layer upgrades to kCollision on audit hits).
  RunOutcome outcome = RunOutcome::kBudgetExhausted;
  /// Whole-run fault totals per channel; all zero for a fault-free run.
  fault::FaultCounters faults;
  /// crashed[i] != 0 iff robot i crash-stopped during the run (size N).
  std::vector<std::uint8_t> crashed;
  /// Injected fault events — populated only when RunConfig::record_moves is
  /// set AND the plan is active (single-run tracing; the SVG renderer's
  /// annotations feed on this).
  std::vector<fault::FaultEvent> fault_events;
  /// This run's geom::VisibilityCache hit mix (Looks served by replaying a
  /// retained angular order, by repairing one from the write log, and by
  /// full rebuilds). THIS run's counts even when the arena (and thus the
  /// cache) is shared across campaign cells: each run resets the cache's
  /// counters. All zero when caching is disabled — every Look then takes
  /// the one-shot kernel.
  std::uint64_t cache_replays = 0;
  std::uint64_t cache_repairs = 0;
  std::uint64_t cache_rebuilds = 0;

  [[nodiscard]] std::size_t distinct_lights_used() const noexcept {
    std::size_t c = 0;
    for (const bool b : lights_seen) {
      if (b) ++c;
    }
    return c;
  }
};

/// Executes the algorithm from `initial` until quiescence or the cycle cap.
/// Deterministic in (algorithm, initial, config).
[[nodiscard]] RunResult run_simulation(const model::Algorithm& algorithm,
                                       std::span<const geom::Vec2> initial,
                                       const RunConfig& config);

/// As above, with additional streaming observers attached for the duration
/// of the run (hull/move recorders implied by `config` are attached on top;
/// see observer.hpp for the hook contract). Observer callbacks never affect
/// the execution: results are bit-identical with and without observers.
[[nodiscard]] RunResult run_simulation(const model::Algorithm& algorithm,
                                       std::span<const geom::Vec2> initial,
                                       const RunConfig& config,
                                       std::span<RunObserver* const> observers);

}  // namespace lumen::sim
