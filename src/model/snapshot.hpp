// lumen_model: Look-phase snapshots.
//
// A snapshot is everything a robot may base a decision on: the positions (in
// its own local frame) and light colors of the robots it can currently see,
// plus its own light. Algorithms receive ONLY a Snapshot — there is no other
// channel — which structurally enforces obliviousness: no identities, no
// history, no global coordinates.
//
// Storage is two parallel arrays with the observer at index 0 (always the
// local-frame origin) and the visible robots at 1.. in visibility-sweep
// order. core::build_view aliases these arrays directly (LocalView's point
// and light spans borrow them), so the whole Look -> Compute pipeline does
// not copy the view again; the historical allocating all_positions() /
// other_positions() accessors are span-returning and free.
#pragma once

#include "geom/vec2.hpp"
#include "geom/visibility.hpp"
#include "model/frame.hpp"
#include "model/light.hpp"

#include <cstddef>
#include <span>
#include <vector>

namespace lumen::model {

/// The observer's view of the world at one Look instant.
struct Snapshot {
  Light self_light = Light::kOff;  ///< Observer's own current color.
  /// Local-frame positions: [0] is the observer (the origin), [1..] the
  /// visible robots. Parallel to `lights`. Empty only when default-
  /// constructed; build_snapshot always emplaces the self entry.
  std::vector<geom::Vec2> positions;
  /// lights[0] repeats self_light so the arrays stay index-parallel.
  std::vector<Light> lights;

  /// Observer's own local position — always the local-frame origin by
  /// construction (frames are robot-centered).
  [[nodiscard]] static constexpr geom::Vec2 self_position() noexcept { return {}; }

  /// Number of visible robots (self excluded).
  [[nodiscard]] std::size_t visible_count() const noexcept {
    return positions.empty() ? 0 : positions.size() - 1;
  }

  /// All positions including self (self first). Borrows; no allocation.
  [[nodiscard]] std::span<const geom::Vec2> all_positions() const noexcept {
    return positions;
  }

  /// Positions of visible robots only (self excluded). Borrows.
  [[nodiscard]] std::span<const geom::Vec2> other_positions() const noexcept {
    return positions.empty() ? std::span<const geom::Vec2>{}
                             : std::span<const geom::Vec2>{positions}.subspan(1);
  }

  /// Resets to an observer-only snapshot with the given self light.
  void reset(Light self) {
    self_light = self;
    positions.clear();
    lights.clear();
    positions.push_back(self_position());
    lights.push_back(self);
  }

  /// Appends one visible robot.
  void push_visible(geom::Vec2 local_position, Light light) {
    positions.push_back(local_position);
    lights.push_back(light);
  }

  /// Number of visible robots whose light is `l`.
  [[nodiscard]] std::size_t count_light(Light l) const noexcept;

  /// True iff any visible robot shows `l`.
  [[nodiscard]] bool any_light(Light l) const noexcept {
    return count_light(l) > 0;
  }
};

/// Reusable workspace for build_snapshot. One instance per engine (or per
/// thread) makes the steady-state Look path allocation-free: the visibility
/// sweep buffers and the id list keep their capacity across Looks.
struct SnapshotScratch {
  geom::VisibilityScratch visibility;
  std::vector<std::size_t> visible_ids;
};

/// Builds the snapshot of `observer` against world-state arrays, refilling
/// `out` in place. {xs[i], ys[i]} / `lights[i]` are the CURRENT world
/// position (possibly mid-move under ASYNC) and light of robot i
/// (sim::WorldState's split layout). Visibility is obstructed; entries are
/// mapped through `frame` into the observer's local coordinates. Performs
/// no heap allocation once `scratch` and `out` have warmed to the swarm
/// size.
void build_snapshot(std::span<const double> xs, std::span<const double> ys,
                    std::span<const Light> lights, std::size_t observer,
                    const LocalFrame& frame, SnapshotScratch& scratch,
                    Snapshot& out);

/// The mapping tail of build_snapshot, split out so callers that already
/// hold the visible id list (the incremental visibility cache) skip the
/// sweep: fills `out` with the observer's self entry plus `visible_ids`
/// mapped through `frame`, in id order.
void fill_snapshot(std::span<const double> xs, std::span<const double> ys,
                   std::span<const Light> lights, std::size_t observer,
                   std::span<const std::size_t> visible_ids,
                   const LocalFrame& frame, Snapshot& out);

}  // namespace lumen::model
