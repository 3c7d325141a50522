#include "sim/trajectory.hpp"

#include <algorithm>
#include <stdexcept>

namespace lumen::sim {

Trajectory::Trajectory(geom::Vec2 initial, std::vector<MoveSegment> moves)
    : initial_(initial), moves_(std::move(moves)) {
  std::stable_sort(moves_.begin(), moves_.end(),
                   [](const MoveSegment& a, const MoveSegment& b) { return a.t0 < b.t0; });
  // Contract: segments of one robot must not overlap in time and must chain
  // spatially (each starts where the previous ended).
  for (std::size_t i = 1; i < moves_.size(); ++i) {
    if (moves_[i].t0 < moves_[i - 1].t1) {
      throw std::invalid_argument("Trajectory: overlapping move segments");
    }
  }
}

geom::Vec2 Trajectory::at(double t) const noexcept {
  geom::Vec2 pos = initial_;
  for (const auto& m : moves_) {
    if (t < m.t0) return pos;
    if (t <= m.t1) return m.at(t);
    pos = m.to;
  }
  return pos;
}

std::vector<Trajectory> build_trajectories(std::span<const geom::Vec2> initial_positions,
                                           std::span<const MoveSegment> moves) {
  std::vector<std::vector<MoveSegment>> per_robot(initial_positions.size());
  for (const auto& m : moves) {
    if (m.robot >= per_robot.size()) {
      throw std::out_of_range("build_trajectories: robot index out of range");
    }
    per_robot[m.robot].push_back(m);
  }
  std::vector<Trajectory> out;
  out.reserve(initial_positions.size());
  for (std::size_t i = 0; i < initial_positions.size(); ++i) {
    out.emplace_back(initial_positions[i], std::move(per_robot[i]));
  }
  return out;
}

}  // namespace lumen::sim
