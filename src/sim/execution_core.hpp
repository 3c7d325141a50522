// lumen_sim: the shared execution core behind both engines.
//
// ExecutionCore owns everything the ASYNC event loop and the SYNC round loop
// used to duplicate: the world state (a structure-of-arrays WorldState:
// split x/y coordinate arrays, packed lights, the move-in-flight bitset and
// the committed-write log), the local-frame policy, the non-rigid motion
// adversary, streaming result accounting (cycles, epochs, move totals,
// lights audit) and the observer fan-out. The engines in
// engine.cpp reduce to thin drivers that own only their scheduling shape —
// an event queue with a timing adversary (ASYNC) or an activation policy
// over unit rounds (SYNC) — and call into the core for every Look / commit
// / move completion.
//
// The Look path streams the SoA arrays end to end: fill_look_world patches
// only the in-flight movers over the committed arrays (aliasing them
// outright when nobody moves, which is every SYNC Look), the visibility
// sweep reads split doubles, and the per-observer incremental cache
// (geom::VisibilityCache, budgeted via RunConfig) repairs cached angular
// orders from the write log instead of resorting. All Look scratch lives
// in a LookArena — private by default, shareable across runs through
// RunConfig::arena so campaign cells keep warmed capacity.
//
// The core is deliberately scheduling-agnostic: it keeps one path per LCM
// phase. look() takes the robots that Look at one instant (one robot under
// ASYNC, a round's activated set under SYNC); commit() takes the move
// segment [t0, t1] and the instant a change is stamped at (the commit
// instant under ASYNC, the round's end under SYNC); quiescent() is the one
// fixpoint test both drivers poll. run_simulation builds the core and owns
// the run's prologue and epilogue, so a driver's loop returns only whether
// it reached quiescence, when it ended and how many rounds it ran.
//
// Determinism: besides the "frames" and "look-frames" streams the core
// splits from the master seed itself (splits are pure, so their order does
// not matter), it draws randomness ONLY from streams the driver hands it
// (motion adversary draws come from the driver's rng so the historical
// stream interleavings are preserved bit-for-bit). run_simulation results
// are bit-identical to the pre-refactor engines; tests/sim_golden_test.cpp
// pins that.
#pragma once

#include "fault/state.hpp"
#include "model/frame.hpp"
#include "model/snapshot.hpp"
#include "sched/epoch.hpp"
#include "sim/look_arena.hpp"
#include "sim/run.hpp"
#include "sim/world_state.hpp"
#include "util/prng.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace lumen::sim {

class ExecutionCore {
 public:
  ExecutionCore(const model::Algorithm& algorithm,
                std::span<const geom::Vec2> initial, const RunConfig& config,
                std::span<RunObserver* const> observers);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t total_cycles() const noexcept { return total_cycles_; }
  [[nodiscard]] const WorldState& world_state() const noexcept { return world_; }

  /// Derives a named substream from the master seed (pure; the driver
  /// controls which scheduling streams exist and in what roles).
  [[nodiscard]] util::Prng split_stream(std::string_view tag) const noexcept;

  /// Marks the start of robot's next LCM cycle at `time` (Wait phase).
  void begin_cycle(std::size_t robot, double time);

  /// Crash-stop check at a cycle start (serial driver code only): decides
  /// via the fault plan whether `robot` dies at `time`, fires on_fault and
  /// returns true if it did. The driver must then never schedule the robot
  /// again — its body keeps obstructing and its last light stays visible.
  bool crash_check(std::size_t robot, double time);

  /// Cooperative wall-clock watchdog (RunConfig::deadline_ms): returns true
  /// once the budget armed at construction has elapsed. Drivers call this
  /// at cycle/round boundaries and stop scheduling when it fires; finalize
  /// then classifies the run as RunOutcome::kDeadlineExceeded. Sticky: once
  /// exceeded it stays exceeded. Free when no deadline is configured.
  [[nodiscard]] bool deadline_exceeded() noexcept;

  [[nodiscard]] bool crash_faults_enabled() const noexcept {
    return fault_.crash_enabled();
  }
  [[nodiscard]] bool crashed(std::size_t robot) const noexcept {
    return fault_.crashed(robot);
  }

  /// Look + Compute at `time` for every robot in `robots` (one robot under
  /// ASYNC, the round's activated set under SYNC): each snapshots the
  /// instantaneous world (movers interpolated), runs the algorithm and parks
  /// the world-frame action as pending. Frame draws and look sequence
  /// numbers are assigned serially in `robots` order; Compute is pure, so
  /// with config.pool and two or more robots the per-robot work fans out
  /// with per-slot scratch (a serial Look uses slot 0) and stays
  /// bit-identical to the serial order. Observers fire serially afterwards
  /// (their WorldView is untouched by Look). Allocation-free in steady
  /// state: the world fill, the visibility scratch and the Snapshots all
  /// live in the arena.
  void look(std::span<const std::size_t> robots, double time);

  /// Commit: applies the pending light, runs the non-rigid motion adversary
  /// (drawing from `motion_rng`; a stay never draws) and either starts a
  /// move along the segment [t0, t1] (returns true; the driver lands it via
  /// complete_move) or ends the cycle as a null commit (returns false). A
  /// light change or a move stamps the last world change at `changed_at`:
  /// the commit instant under ASYNC, the round's end under SYNC, where the
  /// position write waits for complete_move so every robot in the round
  /// commits against the pre-round world.
  bool commit(std::size_t robot, double t0, double t1, double changed_at,
              util::Prng& motion_rng);

  /// Lands the in-flight move of `robot` at time `t` (its segment's end).
  void complete_move(std::size_t robot, double t);

  /// Closes robot's cycle at `end` (started at the begin_cycle time): marks
  /// the robot as waiting, feeds the streaming epoch detector and fires
  /// on_epoch for any epoch this closes.
  void record_cycle(std::size_t robot, double end);

  /// Quiescence: nobody moving, no non-null action pending, and every
  /// surviving robot completed a null cycle observing the post-last-change
  /// world. At a SYNC round boundary nobody moves and every robot waits, so
  /// only the last condition can fail there.
  [[nodiscard]] bool quiescent() const noexcept;

  [[nodiscard]] WorldView world(double time) const noexcept;

  void notify_run_begin();
  void notify_round(std::uint64_t round, double time);
  void notify_run_end(double time);

  /// Fills every RunResult field the core accounts for (convergence, times,
  /// totals, epochs, final configuration, lights audit). The driver sets
  /// `rounds`; run_simulation moves recorder payloads in afterwards.
  void finalize(RunResult& result, bool converged, double final_time) const;

 private:
  /// Refreshes the arena's interpolated world fill for a Look at `t` and
  /// returns the coordinate spans to snapshot. O(#movers now + #movers at
  /// the previous fill): the arrays mirror the committed coordinates
  /// everywhere except the slots the previous fill interpolated (listed in
  /// arena.prev_movers, restored here) — complete_move writes through, so
  /// no other slot can go stale. When nobody is mid-move the committed
  /// arrays are returned directly and the fill is untouched.
  [[nodiscard]] std::pair<std::span<const double>, std::span<const double>>
  fill_look_world(double t);

  /// Non-rigid stopping: the robot always progresses by at least
  /// min(delta, the full distance); rigid moves pass through.
  [[nodiscard]] geom::Vec2 apply_motion_adversary(geom::Vec2 from, geom::Vec2 to,
                                                  util::Prng& rng) const;

  /// Grid mode (model::MotionModel::kGrid): the single rectilinear leg a
  /// commit travels toward the (lattice-snapped) goal — the full dominant
  /// axis first, then the other. Both endpoints are lattice points, so the
  /// committed-write-log and VisibilityCache contracts are untouched; the
  /// motion adversary never applies (grid moves are rigid by definition).
  [[nodiscard]] static geom::Vec2 grid_leg(geom::Vec2 from,
                                           geom::Vec2 goal) noexcept;

  [[nodiscard]] model::LocalFrame make_frame(std::size_t robot, geom::Vec2 origin);

  /// The pure per-robot slice of a Look: snapshot the xs/ys world arrays
  /// through `frame` (possibly through the fault plan's corrupted view,
  /// whose draws depend only on (robot, look_seq)), run Compute, park the
  /// world-frame action in robot's pending slot. Reads only shared
  /// immutable state + the given scratch (the visibility cache entry for
  /// `robot` is owned by this call), so look may run it concurrently for
  /// distinct robots.
  void compute_pending(std::size_t robot, const model::LocalFrame& frame,
                       std::uint64_t look_seq, std::span<const double> xs,
                       std::span<const double> ys,
                       model::SnapshotScratch& scratch, model::Snapshot& snap,
                       fault::ViewScratch& view, fault::LookFaultStats& stats);

  /// Fires the per-Look fault events (at most one per channel) for the
  /// stats gathered by compute_pending; serial, right before on_look.
  /// `position` is the observer's (possibly interpolated) Look position.
  void notify_look_faults(std::size_t robot, double time, geom::Vec2 position,
                          const fault::LookFaultStats& stats);

  /// Fires on_epoch, in index order, for the `closed` epochs the detector
  /// just closed: the last `closed` entries of its boundary list.
  void notify_epochs(std::size_t closed, double time);

  void notify_commit(const CommitEvent& event, double time);

  const model::Algorithm& algo_;
  const RunConfig& config_;
  /// True when algo_ declares MotionModel::kGrid; gates target snapping and
  /// the axis-leg commit path. Continuous algorithms take the exact
  /// historical code path (golden digests stay bit-identical).
  bool grid_ = false;
  std::size_t n_;
  util::Prng rng_;
  util::Prng look_frame_rng_{0};
  sched::StreamingEpochDetector epochs_;
  std::span<RunObserver* const> observers_;

  // Watchdog state: armed in the constructor when config.deadline_ms > 0.
  std::chrono::steady_clock::time_point deadline_{};
  bool deadline_armed_ = false;
  bool deadline_hit_ = false;

  double last_change_ = 0.0;
  std::size_t total_cycles_ = 0;
  std::size_t total_moves_ = 0;
  double total_distance_ = 0.0;

  // Hot per-robot state, structure-of-arrays (see world_state.hpp).
  WorldState world_;
  std::vector<MoveSegment> current_move_;
  std::vector<double> cycle_start_;
  std::vector<double> look_time_;
  std::vector<model::Action> pending_;
  std::vector<std::uint8_t> pending_null_;
  std::vector<double> last_null_look_;
  std::vector<std::uint8_t> in_wait_;

  struct FrameParams {
    double rotation = 0.0;
    double scale = 1.0;
    bool reflected = false;
  };
  std::vector<FrameParams> frame_params_;
  std::array<bool, model::kLightCount> lights_seen_{};

  // Fault injection state; inert (and stream-invisible) for empty plans.
  fault::FaultState fault_;
  // Serial Look sequence number: assigned in driver order, it keys each
  // Look's corruption stream so the parallel batch draws are independent of
  // thread interleaving.
  std::uint64_t look_seq_ = 0;

  // Look-path workspace: the shared arena when RunConfig::arena is set,
  // otherwise this run's private one.
  LookArena own_arena_;
  LookArena* arena_ = nullptr;
};

}  // namespace lumen::sim
