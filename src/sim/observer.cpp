#include "sim/observer.hpp"

#include "geom/hull.hpp"

#include <algorithm>

namespace lumen::sim {

void HullHistoryRecorder::on_run_begin(const WorldView& world) {
  sample(0, world);
}

void HullHistoryRecorder::on_epoch(std::size_t epoch_index, double,
                                   const WorldView& world) {
  sample(epoch_index + 1, world);
}

void HullHistoryRecorder::on_run_end(const WorldView& world) {
  // The last sample so far is the run-begin census or the last closed
  // epoch's.
  sample(samples_.back().epoch + 1, world);
}

void HullHistoryRecorder::sample(std::size_t epoch, const WorldView& world) {
  // Robots may be mid-move when an epoch closes; census their interpolated
  // positions at the hook's instant.
  world_scratch_.resize(world.size());
  for (std::size_t j = 0; j < world.size(); ++j) {
    world_scratch_[j] = world.position_at(j, world.time);
  }
  const auto hull = geom::convex_hull_indices(world_scratch_);
  // A degenerate (collinear) hull reports its two extremes as "corners".
  samples_.push_back(HullSample{
      epoch, hull.size(),
      world_scratch_.size() - std::min(hull.size(), world_scratch_.size())});
}

}  // namespace lumen::sim
