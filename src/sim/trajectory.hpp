// lumen_sim: recorded motion and piecewise-linear trajectories.
//
// The engine records every Move as a timed segment; a Trajectory glues a
// robot's segments together with the implicit idle intervals between them,
// giving position-at-time queries for the collision monitor, the epoch
// renderer, and the SVG output.
#pragma once

#include "geom/vec2.hpp"

#include <cstddef>
#include <span>
#include <vector>

namespace lumen::sim {

/// One recorded Move: robot `robot` travels from `from` (at t0) to `to`
/// (at t1) in a straight line at constant speed. t1 == t0 encodes an
/// instantaneous jump (synchronous rounds).
struct MoveSegment {
  std::size_t robot = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  geom::Vec2 from{};
  geom::Vec2 to{};

  [[nodiscard]] geom::Vec2 at(double t) const noexcept {
    if (t1 <= t0) return t >= t1 ? to : from;  // Instantaneous jump.
    if (t <= t0) return from;
    if (t >= t1) return to;
    return geom::lerp(from, to, (t - t0) / (t1 - t0));
  }
  [[nodiscard]] double length() const noexcept { return geom::distance(from, to); }
};

/// A single robot's complete motion history.
class Trajectory {
 public:
  Trajectory() = default;
  Trajectory(geom::Vec2 initial, std::vector<MoveSegment> moves);

  /// Position at absolute time t (clamped to [0, inf); after the last move
  /// the robot rests at its final position).
  [[nodiscard]] geom::Vec2 at(double t) const noexcept;

  [[nodiscard]] geom::Vec2 initial() const noexcept { return initial_; }
  [[nodiscard]] std::span<const MoveSegment> moves() const noexcept { return moves_; }

 private:
  geom::Vec2 initial_{};
  std::vector<MoveSegment> moves_;  ///< Chronological, non-overlapping.
};

/// Splits a flat recorded move list into per-robot trajectories.
[[nodiscard]] std::vector<Trajectory> build_trajectories(
    std::span<const geom::Vec2> initial_positions,
    std::span<const MoveSegment> moves);

}  // namespace lumen::sim
