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

#include <queue>

namespace lumen::sim {

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
    timing_[robot] = sched::sample_timing(config_.adversary, robot, schedule_rng_);
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
        activation_(config.scheduler == SchedulerKind::kFsync
                        ? sched::ActivationKind::kAll
                        : config.activation) {}

  LoopEnd run() {
    const std::size_t n = core_.size();
    const std::size_t round_cap = config_.max_cycles_per_robot;
    std::uint64_t round = 0;
    bool quiescent = false;
    std::vector<std::uint8_t> started;
    while (round < round_cap) {
      const double t0 = static_cast<double>(round);
      const double t1 = t0 + 1.0;
      sched::activate(activation_, n, round, activation_rng_, active_);
      // Crash-stop filter: a robot dies (or is already dead) at its
      // activation instant and simply drops out of the round. The buffer is
      // compacted in place, in activation order (crash_check draws from the
      // crash stream).
      if (core_.crash_faults_enabled()) {
        std::size_t kept = 0;
        for (const std::size_t r : active_) {
          if (!core_.crashed(r) && !core_.crash_check(r, t0)) active_[kept++] = r;
        }
        active_.resize(kept);
      }
      // All activated robots Look at the same pre-round configuration, so
      // the round's Look+Compute fan-out runs on config.pool when present
      // (bit-identical to the serial loop; commit order below is what the
      // downstream bits depend on and it never changes).
      for (const std::size_t r : active_) core_.begin_cycle(r, t0);
      core_.look(active_, t0);
      // Simultaneous application: all commits land before any position
      // write, so same-round movers see each other's pre-round positions.
      started.assign(active_.size(), 0);
      for (std::size_t k = 0; k < active_.size(); ++k) {
        started[k] = core_.commit(active_[k], t0, t1, t1, motion_rng_) ? 1 : 0;
      }
      for (std::size_t k = 0; k < active_.size(); ++k) {
        if (started[k] != 0) core_.complete_move(active_[k], t1);
      }
      for (const std::size_t r : active_) core_.record_cycle(r, t1);
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
  sched::ActivationKind activation_;
  std::vector<std::size_t> active_;  ///< This round's activated robots.
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
