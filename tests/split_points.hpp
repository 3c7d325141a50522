// Test helper: the visibility kernel and the Look snapshot take the world
// as split x/y coordinate arrays (sim::WorldState's layout); tests that
// describe a world as Vec2 points split it here.
#pragma once

#include "geom/vec2.hpp"
#include "model/snapshot.hpp"

#include <span>
#include <vector>

namespace lumen::testutil {

struct SplitPoints {
  std::vector<double> xs;
  std::vector<double> ys;
};

inline SplitPoints split_points(std::span<const geom::Vec2> pts) {
  SplitPoints s;
  s.xs.reserve(pts.size());
  s.ys.reserve(pts.size());
  for (const geom::Vec2 p : pts) {
    s.xs.push_back(p.x);
    s.ys.push_back(p.y);
  }
  return s;
}

/// The observer's Look snapshot of a Vec2 world.
inline model::Snapshot snapshot_of(std::span<const geom::Vec2> world,
                                   std::span<const model::Light> lights,
                                   std::size_t observer,
                                   const model::LocalFrame& frame) {
  const SplitPoints s = split_points(world);
  model::SnapshotScratch scratch;
  model::Snapshot snap;
  model::build_snapshot(s.xs, s.ys, lights, observer, frame, scratch, snap);
  return snap;
}

}  // namespace lumen::testutil
