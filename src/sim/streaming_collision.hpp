// lumen_sim: streaming collision auditing.
//
// StreamingCollisionMonitor folds the continuous collision audit of
// monitors.hpp's check_collisions over the live event stream instead of a
// retained move log, so campaigns can audit arbitrarily long runs with
// memory bounded by the number of concurrently-relevant motion pieces.
//
// Algorithm: each robot's trajectory is the same piecewise-linear Piece
// decomposition check_collisions reconstructs post-hoc (idle stretches and
// move segments). A piece CLOSES when its end becomes known — an idle piece
// when the robot's next move commits, a move piece when it completes, tails
// at run end. Every overlapping piece pair is evaluated exactly once, when
// its LATER-closing piece closes (the earlier one is in the closed history;
// open pieces are skipped and pick the pair up at their own closure). Since
// both auditors call min_distance_linear_motion / segments_cross on
// bit-identical Piece windows, a CONVERGED run yields a bit-identical
// min_separation and identical collision/crossing counts.
//
// Fault attribution: every incident is blamed on the fault channel most
// recently seen via on_fault (kNone before any fault fires). Incidents are
// only noted while a piece closes, inside on_commit, on_move_complete and
// on_run_end, so the blame is the channel active at that event. This is a
// heuristic diagnosis — the injected fault that most plausibly destabilized
// the run — not a causal proof; it never changes the report.
//
// Known divergences from the post-hoc audit, by design:
//  * first_incident uses closure order (earliest evaluation wins), not the
//    post-hoc robot-pair-major order; counts and min_separation agree.
//  * A run aborted at the cycle cap with a move still in flight: post-hoc
//    never sees the unfinished move (it is not in the log) and models the
//    robot as one idle piece to the horizon, while the monitor has already
//    closed the pre-move idle piece. The windows split differently, which
//    can shift min_separation by ulps and merge/split incident counts.
#pragma once

#include "sim/monitors.hpp"
#include "sim/observer.hpp"

#include <array>
#include <cstddef>
#include <deque>
#include <vector>

namespace lumen::sim {

class StreamingCollisionMonitor final : public RunObserver {
 public:
  /// `collision_tolerance`: separations at or below it count as collisions,
  /// exactly as in check_collisions.
  explicit StreamingCollisionMonitor(double collision_tolerance = 0.0)
      : tolerance_(collision_tolerance) {}

  void on_run_begin(const WorldView& world) override;
  void on_fault(const fault::FaultEvent& event, const WorldView& world) override;
  void on_commit(const CommitEvent& event, const WorldView& world) override;
  void on_move_complete(const MoveSegment& move, const WorldView& world) override;
  /// Closes every tail piece at the run horizon (`world.time`) and seals
  /// the report.
  void on_run_end(const WorldView& world) override;

  /// The audit verdict; complete once on_run_end has fired.
  [[nodiscard]] const CollisionReport& report() const noexcept { return report_; }

  /// The channel with the most attributed incidents (ties broken toward the
  /// earlier enum value); kNone when the run is incident-free.
  [[nodiscard]] fault::FaultChannel dominant_channel() const noexcept;

  /// Closed pieces currently buffered across all robots (test/introspection
  /// hook: stays bounded on long runs, unlike a move log).
  [[nodiscard]] std::size_t retained_pieces() const noexcept;

 private:
  struct ClosedPiece {
    detail::Piece piece;
    bool is_move = false;
  };

  struct RobotState {
    std::deque<ClosedPiece> closed;
    double open_start = 0.0;   ///< Start of the current open (idle/move) piece.
    geom::Vec2 idle_pos{};     ///< Committed position while idle.
    bool in_flight = false;
    MoveSegment flight{};      ///< Valid while in_flight.
  };

  /// Evaluates `piece` (robot `r`, just closed) against every other robot's
  /// closed pieces, then appends it to r's history.
  void close_piece(std::size_t r, const detail::Piece& piece, bool is_move);

  /// Drops closed pieces that can no longer overlap any future window.
  void prune();

  void note_incident(std::size_t a, std::size_t b, double time,
                     double separation, const char* kind, bool is_position);

  double tolerance_ = 0.0;
  bool sealed_ = false;
  std::vector<RobotState> robots_;
  CollisionReport report_;
  fault::FaultChannel last_channel_ = fault::FaultChannel::kNone;
  std::array<std::size_t, 4> attributed_{};  ///< Indexed by FaultChannel.
};

/// Kept only because perfbench/trace.cpp still spells this name; the
/// streaming monitor attributes faults itself.
using SafetyMonitor = StreamingCollisionMonitor;

}  // namespace lumen::sim
