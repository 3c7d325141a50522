// lumen_core: classification of a snapshot into the algorithm's vocabulary.
//
// Every rule of the reconstructed algorithm starts from the same geometric
// digest of the snapshot: the local convex hull, the observer's role against
// it, and — for non-corners — the candidate gate edge. A key soundness
// property (tested in tests/core_view_test.cpp) is that the LOCAL
// classification equals the GLOBAL role despite obstructed visibility:
//   - a robot is a strict vertex of its visible set's hull  iff  it is a
//     strict vertex of the global hull;
//   - it lies on a local hull edge  iff  it lies on a global hull edge;
//   - local line configurations are exactly the global collinear ones
//     restricted to what obstruction lets a robot see.
// (Sketch: if r is strictly inside the global hull, every open half-plane
// through r contains a robot of the set, and the nearest robot toward it on
// that ray is visible — so r's visible set surrounds it.)
#pragma once

#include "geom/vec2.hpp"
#include "model/light.hpp"
#include "model/snapshot.hpp"
#include "util/strings.hpp"

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace lumen::core {

enum class Role {
  kAlone,     ///< Sees nobody.
  kCorner,    ///< Strict vertex of the local hull.
  kSide,      ///< Relative interior of a local hull edge.
  kInterior,  ///< Strictly inside the local hull.
  kLine,      ///< Entire snapshot collinear, observer not extreme.
  kLineEnd,   ///< Entire snapshot collinear, observer extreme.
};

inline constexpr auto kRoleNames = std::to_array<util::Named<Role>>({
    {Role::kAlone, "alone"},
    {Role::kCorner, "corner"},
    {Role::kSide, "side"},
    {Role::kInterior, "interior"},
    {Role::kLine, "line"},
    {Role::kLineEnd, "line-end"},
});

[[nodiscard]] constexpr std::string_view to_string(Role r) noexcept {
  return util::name_of(kRoleNames, r);
}

/// The digest all Compute rules share. Index 0 is always the observer
/// (at the local origin); indices 1.. are the visible robots in snapshot
/// order. The point and light spans BORROW the snapshot's parallel arrays
/// (build_view copies nothing), so a view must not outlive the Snapshot it
/// was built from — the hull index list is the only owned state.
struct LocalView {
  std::span<const geom::Vec2> pts;     ///< Observer first, then visible robots.
  std::span<const model::Light> lights;  ///< Parallel to pts.
  /// CCW strict-vertex indices into pts. Empty for kCorner and kAlone: the
  /// corner certificate decides kCorner without building the hull, and no
  /// rule reads the hull of a Corner or Alone view.
  std::vector<std::size_t> hull;
  Role role = Role::kAlone;

  [[nodiscard]] std::size_t count() const noexcept { return pts.size(); }
  [[nodiscard]] geom::Vec2 self() const noexcept { return pts.empty() ? geom::Vec2{} : pts[0]; }

  /// Hull vertex positions, CCW.
  [[nodiscard]] std::vector<geom::Vec2> hull_points() const;
};

/// Builds the digest from a snapshot. The returned view aliases `snap`'s
/// position and light storage; keep the snapshot alive while using it.
[[nodiscard]] LocalView build_view(const model::Snapshot& snap);

/// GateEdge::k of an edge that is not a hull edge of the view it is used with.
inline constexpr std::size_t kNoHullPosition = static_cast<std::size_t>(-1);

/// A gate: a hull edge through which an interior/side robot exits.
struct GateEdge {
  std::size_t i1 = 0;  ///< Index (into LocalView::pts) of the first endpoint.
  std::size_t i2 = 0;  ///< Second endpoint; (i1, i2) is CCW on the hull.
  geom::Vec2 c1{};
  geom::Vec2 c2{};
  double distance = 0.0;  ///< Observer's distance to the closed edge.
  /// Hull position of the edge: hull[k] == i1 and hull[(k + 1) % h] == i2.
  /// kNoHullPosition drops the adjacent-edge wedge bounds of the targets.
  std::size_t k = kNoHullPosition;
};

/// The hull edge whose open relative interior contains the observer — the
/// Side robot's own edge. Empty when the observer is not a Side robot.
[[nodiscard]] std::optional<GateEdge> containing_hull_edge(const LocalView& view);

/// True iff any visible robot lies strictly inside triangle
/// (observer, gate.c1, gate.c2) — someone is closer to the gate, observer
/// must defer.
[[nodiscard]] bool gate_blocked_by_closer_robot(const LocalView& view,
                                                const GateEdge& gate);

}  // namespace lumen::core
