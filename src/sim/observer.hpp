// lumen_sim: streaming run observation.
//
// A RunObserver receives the execution as it happens — every Look, commit,
// move completion, round and epoch boundary — instead of mining an
// unbounded post-hoc move log. All engine instrumentation (move recording,
// hull census, collision auditing) is an observer; a run with no observers
// retains nothing per-event, which is what makes large-N campaigns
// memory-bound only by the world state itself.
//
// Contract (see DESIGN.md §"ExecutionCore and observers"):
//  * Hooks fire in simulated-time order; equal-time events fire in engine
//    processing order (ASYNC: event-queue FIFO; SYNC: activation order,
//    with all of a round's commits delivered before its move completions).
//  * on_commit fires AFTER the light is applied and the non-rigid adversary
//    has truncated the move; `move_started` is null for stay commits and
//    points at the in-flight segment otherwise.
//  * on_move_complete fires AFTER the robot's committed position updated.
//  * The WorldView passed to a hook is only valid during that call.
//  * Observers must not re-enter the engine (they see a consistent world
//    snapshot, not a mutation point) and must not assume they are the only
//    observer; the engine never reorders hooks across observers.
#pragma once

#include "fault/events.hpp"
#include "geom/vec2.hpp"
#include "model/algorithm.hpp"
#include "model/light.hpp"
#include "sim/trajectory.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lumen::sim {

/// One corner census of the doubling experiment (claim C6).
struct HullSample {
  /// 0 at run begin, k as epoch k closes, one past the last closed epoch at
  /// run end.
  std::size_t epoch = 0;
  std::size_t corners = 0;       ///< Strict hull vertices.
  std::size_t non_corners = 0;   ///< Robots not yet in convex position.
};

/// Read-only view of the live world state, valid for the duration of one
/// observer hook. Coordinates come as the engine's split SoA arrays —
/// `position(i)` re-pairs robot i's last COMMITTED position; `position_at`
/// interpolates robots that are mid-move (ASYNC). `moving_words` is the
/// packed in-flight bitset (64 robots per word, bit i of word i/64).
struct WorldView {
  std::span<const double> xs;
  std::span<const double> ys;
  std::span<const model::Light> lights;
  std::span<const std::uint64_t> moving_words;  ///< Packed mid-move bits.
  std::span<const MoveSegment> current_moves;   ///< Valid where is_moving(i).
  double time = 0.0;                            ///< Hook's simulated time.

  [[nodiscard]] std::size_t size() const noexcept { return xs.size(); }

  [[nodiscard]] geom::Vec2 position(std::size_t i) const noexcept {
    return geom::Vec2{xs[i], ys[i]};
  }

  [[nodiscard]] bool is_moving(std::size_t i) const noexcept {
    return ((moving_words[i >> 6] >> (i & 63)) & 1u) != 0;
  }

  [[nodiscard]] geom::Vec2 position_at(std::size_t i, double t) const noexcept {
    return is_moving(i) ? current_moves[i].at(t) : position(i);
  }
};

/// One committed Compute result, as delivered to observers.
struct CommitEvent {
  std::size_t robot = 0;
  double time = 0.0;
  model::Action action;       ///< World-frame action (target in world coords).
  bool light_changed = false;
  /// The move this commit started (non-rigid truncation already applied),
  /// or nullptr for a stay commit. Points into engine state; copy to keep.
  const MoveSegment* move_started = nullptr;
};

/// Streaming hook interface. Default implementations ignore everything, so
/// observers override only the events they care about.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  /// Initial configuration, before any event. `world.time` is 0.
  virtual void on_run_begin(const WorldView& world) { (void)world; }

  /// A robot took its instantaneous snapshot at `time`.
  virtual void on_look(std::size_t robot, double time, const WorldView& world) {
    (void)robot, (void)time, (void)world;
  }

  /// A robot committed its pending action (light applied; move started or
  /// cycle ended as null).
  virtual void on_commit(const CommitEvent& event, const WorldView& world) {
    (void)event, (void)world;
  }

  /// A robot finished its move; `world` already holds the new position.
  virtual void on_move_complete(const MoveSegment& move, const WorldView& world) {
    (void)move, (void)world;
  }

  /// A fault was injected: a crash-stop (fires before the robot's cycle
  /// would have started), or one Look's light/noise corruption summary
  /// (fires after Compute, before that robot's on_look). Never fires on a
  /// fault-free run.
  virtual void on_fault(const fault::FaultEvent& event, const WorldView& world) {
    (void)event, (void)world;
  }

  /// SYNC only: a round was fully applied. `time` is the round's end.
  virtual void on_round(std::uint64_t round, double time, const WorldView& world) {
    (void)round, (void)time, (void)world;
  }

  /// An epoch closed (streaming detection; identical boundaries to the
  /// post-hoc EpochTimeline reconstruction). Fires for every scheduler.
  virtual void on_epoch(std::size_t epoch_index, double end_time,
                        const WorldView& world) {
    (void)epoch_index, (void)end_time, (void)world;
  }

  /// The run is over (quiescent or cycle-capped); final configuration.
  virtual void on_run_end(const WorldView& world) { (void)world; }
};

// ---------------------------------------------------------------------------
// Built-in observers
// ---------------------------------------------------------------------------

/// Retains the full move log — the opt-in replacement for the historical
/// always-on RunResult::moves field. The SVG renderer feeds on this; big
/// campaigns simply do not attach it.
class MoveLogRecorder final : public RunObserver {
 public:
  void on_move_complete(const MoveSegment& move, const WorldView&) override {
    moves_.push_back(move);
  }

  [[nodiscard]] std::vector<MoveSegment>& moves() noexcept { return moves_; }

 private:
  std::vector<MoveSegment> moves_;
};

/// Retains every injected fault event — attached by run_simulation when the
/// run both records moves (single-run tracing) and has an active fault
/// plan, mirroring MoveLogRecorder's opt-in shape.
class FaultLogRecorder final : public RunObserver {
 public:
  void on_fault(const fault::FaultEvent& event, const WorldView&) override {
    events_.push_back(event);
  }

  [[nodiscard]] std::vector<fault::FaultEvent>& events() noexcept {
    return events_;
  }

 private:
  std::vector<fault::FaultEvent> events_;
};

/// Corner census in epochs (claim C6's doubling experiment), on one rule
/// for every scheduler: a sample at run begin (epoch 0), one as each epoch
/// closes (its 1-based index), and one at run end, labelled one past the
/// last closed epoch. Costs O(N log N) per sample.
class HullHistoryRecorder final : public RunObserver {
 public:
  void on_run_begin(const WorldView& world) override;
  void on_epoch(std::size_t epoch_index, double end_time,
                const WorldView& world) override;
  void on_run_end(const WorldView& world) override;

  [[nodiscard]] std::vector<HullSample>& samples() noexcept { return samples_; }

 private:
  void sample(std::size_t epoch, const WorldView& world);

  std::vector<HullSample> samples_;
  std::vector<geom::Vec2> world_scratch_;
};

}  // namespace lumen::sim
