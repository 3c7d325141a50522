// The execution drivers.
//
// ASYNC: a discrete-event loop over per-robot phase events. Each robot
// cycles Wait -> Look (instantaneous snapshot; other robots may be observed
// MID-MOVE at their interpolated positions) -> Compute (the action is
// derived from the stale snapshot and committed, with the light change,
// after the adversarial compute delay) -> Move (constant speed, rigid).
//
// SYNC (FSYNC/SSYNC): discrete rounds; all robots activated in a round Look
// at the same configuration, then apply their moves and light changes
// simultaneously. Moves are recorded as unit-interval segments so the
// collision monitor treats same-round movers as concurrent.
//
// All world state, quiescence accounting and instrumentation fan-out lives
// in ExecutionCore (execution_core.hpp). run_simulation builds the core and
// runs the prologue and epilogue every scheduler shares (initial positions,
// run-begin, the empty-swarm return, run-end, finalize); the drivers below
// own only their scheduling loop, which returns {quiescent, end time,
// rounds}. Both loops call the same core phases in the same order per
// robot — begin_cycle, look, commit, complete_move, record_cycle — and poll
// the same quiescent(). Observers delivered per the contract in
// observer.hpp; the SYNC driver delivers all of a round's commits before
// any of its move completions, mirroring their simultaneity.
//
// In-run parallelism: the SYNC drivers hand each round's activated set to
// one ExecutionCore::look call, which fans Look+Compute over
// RunConfig::pool (bit-identical for any pool size — see DESIGN.md §10).
// The ASYNC driver stays serial by construction: its event loop processes
// one robot phase at a time and every event both reads and advances the
// shared world clock, so there is no simultaneous batch to distribute.
#include "sim/run.hpp"

#include "sim/execution_core.hpp"
#include "util/strings.hpp"

#include <queue>

namespace lumen::sim {

std::string_view to_string(SchedulerKind k) noexcept {
  switch (k) {
    case SchedulerKind::kFsync: return "FSYNC";
    case SchedulerKind::kSsync: return "SSYNC";
    case SchedulerKind::kAsync: return "ASYNC";
  }
  return "?";
}

std::optional<SchedulerKind> scheduler_from_string(std::string_view name) noexcept {
  for (const auto k :
       {SchedulerKind::kFsync, SchedulerKind::kSsync, SchedulerKind::kAsync}) {
    if (util::iequals(to_string(k), name)) return k;
  }
  return std::nullopt;
}

std::string_view to_string(RunOutcome o) noexcept {
  switch (o) {
    case RunOutcome::kConverged: return "converged";
    case RunOutcome::kStalled: return "stalled";
    case RunOutcome::kCollision: return "collision";
    case RunOutcome::kBudgetExhausted: return "budget-exhausted";
    case RunOutcome::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

std::optional<RunOutcome> outcome_from_string(std::string_view name) noexcept {
  for (const auto o : {RunOutcome::kConverged, RunOutcome::kStalled,
                       RunOutcome::kCollision, RunOutcome::kBudgetExhausted,
                       RunOutcome::kDeadlineExceeded}) {
    if (util::iequals(to_string(o), name)) return o;
  }
  return std::nullopt;
}

namespace {

using geom::Vec2;

// ---------------------------------------------------------------------------
// ASYNC driver
// ---------------------------------------------------------------------------

enum class PhaseEvent { kLook, kCommit, kMoveDone };

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< FIFO tie-break for simultaneous events.
  std::size_t robot = 0;
  PhaseEvent type = PhaseEvent::kLook;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// What a driver's loop reports back to run_simulation.
struct LoopEnd {
  bool quiescent;
  double time;
  std::uint64_t rounds;  ///< Sync rounds executed (0 for ASYNC).
};

class AsyncDriver {
 public:
  AsyncDriver(ExecutionCore& core, const RunConfig& config)
      : config_(config),
        core_(core),
        schedule_rng_(core.split_stream("schedule")),
        adversary_(sched::make_adversary(config.adversary)),
        timing_(core.size()) {}

  LoopEnd run() {
    const std::size_t n = core_.size();
    // Boot every robot's first cycle.
    for (std::size_t i = 0; i < n; ++i) start_cycle(i, 0.0);

    const std::size_t cycle_cap = config_.max_cycles_per_robot * n;
    bool quiescent = false;
    // Every robot may have crash-stopped at boot (kTimes schedules with
    // t=0 entries), leaving the queue empty before the loop runs.
    if (events_.empty()) quiescent = core_.quiescent();
    while (!events_.empty()) {
      const Event ev = events_.top();
      events_.pop();
      now_ = ev.time;
      switch (ev.type) {
        case PhaseEvent::kLook: {
          core_.look(std::span<const std::size_t>(&ev.robot, 1), now_);
          push_event(now_ + timing_[ev.robot].compute, ev.robot,
                     PhaseEvent::kCommit);
          break;
        }
        case PhaseEvent::kCommit: {
          const double done = now_ + timing_[ev.robot].move_duration;
          if (core_.commit(ev.robot, now_, done, now_, schedule_rng_)) {
            push_event(done, ev.robot, PhaseEvent::kMoveDone);
          } else {
            finish_cycle(ev.robot);
          }
          break;
        }
        case PhaseEvent::kMoveDone: {
          core_.complete_move(ev.robot, now_);
          finish_cycle(ev.robot);
          break;
        }
      }
      if (ev.type != PhaseEvent::kLook && core_.quiescent()) {
        quiescent = true;
        break;
      }
      if (core_.total_cycles() >= cycle_cap) break;
      // Cooperative watchdog: checked between events, never mid-phase, so a
      // cut-short run still has a consistent world state to finalize.
      if (core_.deadline_exceeded()) break;
      // If the last live robot just crashed the queue drains without a
      // further non-Look event; the survivors' fixpoint still counts.
      if (events_.empty()) quiescent = core_.quiescent();
    }
    return LoopEnd{quiescent, now_, 0};
  }

 private:
  void push_event(double time, std::size_t robot, PhaseEvent type) {
    events_.push(Event{time, seq_++, robot, type});
  }

  void start_cycle(std::size_t robot, double time) {
    // Crash-stop fires at cycle boundaries: a dead robot schedules nothing
    // further, but its body and last light stay in the world.
    if (core_.crash_check(robot, time)) return;
    timing_[robot] = adversary_->sample(
        robot, static_cast<std::uint64_t>(core_.total_cycles()), schedule_rng_);
    core_.begin_cycle(robot, time);
    push_event(time + timing_[robot].wait, robot, PhaseEvent::kLook);
  }

  void finish_cycle(std::size_t robot) {
    core_.record_cycle(robot, now_);
    start_cycle(robot, now_);
  }

  const RunConfig& config_;
  ExecutionCore& core_;
  util::Prng schedule_rng_;
  std::unique_ptr<sched::Adversary> adversary_;
  std::vector<sched::PhaseTiming> timing_;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::uint64_t seq_ = 0;
  double now_ = 0.0;
};

// ---------------------------------------------------------------------------
// SYNC driver (FSYNC / SSYNC)
// ---------------------------------------------------------------------------

class SyncDriver {
 public:
  SyncDriver(ExecutionCore& core, const RunConfig& config)
      : config_(config),
        core_(core),
        activation_rng_(core.split_stream("activation")),
        motion_rng_(core.split_stream("motion")),
        policy_(sched::make_activation(config.scheduler == SchedulerKind::kFsync
                                           ? sched::ActivationKind::kAll
                                           : config.activation)) {}

  LoopEnd run() {
    const std::size_t n = core_.size();
    const std::size_t round_cap = config_.max_cycles_per_robot;
    std::uint64_t round = 0;
    bool quiescent = false;
    std::vector<std::uint8_t> started;
    while (round < round_cap) {
      const double t0 = static_cast<double>(round);
      const double t1 = t0 + 1.0;
      const auto activated = policy_->activate(n, round, activation_rng_);
      // Crash-stop filter: a robot dies (or is already dead) at its
      // activation instant and simply drops out of the round. Guarded so
      // the zero-fault path hands the policy's vector through untouched.
      std::span<const std::size_t> active = activated;
      if (core_.crash_faults_enabled()) {
        alive_.clear();
        for (const std::size_t r : activated) {
          if (core_.crashed(r) || core_.crash_check(r, t0)) continue;
          alive_.push_back(r);
        }
        active = alive_;
      }
      // All activated robots Look at the same pre-round configuration, so
      // the round's Look+Compute fan-out runs on config.pool when present
      // (bit-identical to the serial loop; commit order below is what the
      // downstream bits depend on and it never changes).
      for (const std::size_t r : active) core_.begin_cycle(r, t0);
      core_.look(active, t0);
      // Simultaneous application: all commits land before any position
      // write, so same-round movers see each other's pre-round positions.
      started.assign(active.size(), 0);
      for (std::size_t k = 0; k < active.size(); ++k) {
        started[k] = core_.commit(active[k], t0, t1, t1, motion_rng_) ? 1 : 0;
      }
      for (std::size_t k = 0; k < active.size(); ++k) {
        if (started[k] != 0) core_.complete_move(active[k], t1);
      }
      for (const std::size_t r : active) core_.record_cycle(r, t1);
      core_.notify_round(round, t1);
      ++round;
      if (core_.quiescent()) {
        quiescent = true;
        break;
      }
      // Cooperative watchdog at the round boundary (quiescence wins ties).
      if (core_.deadline_exceeded()) break;
    }
    return LoopEnd{quiescent, static_cast<double>(round), round};
  }

 private:
  const RunConfig& config_;
  ExecutionCore& core_;
  util::Prng activation_rng_;
  util::Prng motion_rng_;
  std::unique_ptr<sched::ActivationPolicy> policy_;
  std::vector<std::size_t> alive_;  ///< Crash-filtered activation scratch.
};

}  // namespace

RunResult run_simulation(const model::Algorithm& algorithm,
                         std::span<const Vec2> initial, const RunConfig& config,
                         std::span<RunObserver* const> observers) {
  MoveLogRecorder move_recorder;
  FaultLogRecorder fault_recorder;
  const bool record_faults = config.record_moves && config.fault.any();
  std::vector<RunObserver*> attached(observers.begin(), observers.end());
  if (config.record_moves) attached.push_back(&move_recorder);
  if (record_faults) attached.push_back(&fault_recorder);

  ExecutionCore core(algorithm, initial, config, attached);
  RunResult result;
  const WorldState& ws = core.world_state();
  result.initial_positions.resize(ws.size());
  for (std::size_t i = 0; i < ws.size(); ++i) {
    result.initial_positions[i] = ws.position(i);
  }
  core.notify_run_begin();
  // The empty swarm is trivially converged at time zero.
  LoopEnd end{/*quiescent=*/true, /*time=*/0.0, /*rounds=*/0};
  if (core.size() > 0) {
    end = config.scheduler == SchedulerKind::kAsync
              ? AsyncDriver(core, config).run()
              : SyncDriver(core, config).run();
  }
  core.notify_run_end(end.time);
  core.finalize(result, end.quiescent, end.time);
  result.rounds = end.rounds;
  if (config.record_moves) result.moves = std::move(move_recorder.moves());
  if (record_faults) result.fault_events = std::move(fault_recorder.events());
  return result;
}

RunResult run_simulation(const model::Algorithm& algorithm,
                         std::span<const Vec2> initial,
                         const RunConfig& config) {
  return run_simulation(algorithm, initial, config, {});
}

}  // namespace lumen::sim
