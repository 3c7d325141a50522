// lumen_geom: convex hulls and convex-position tests.
//
// Every robot's Compute step begins by classifying itself against the convex
// hull of its snapshot, and the global termination condition of Complete
// Visibility is "all N robots in strictly convex position". Hulls are
// computed with Andrew's monotone chain over exact orientation predicates
// and returned as INDEX lists into the caller's point span, so callers can
// map hull vertices back to robots without position lookups.
#pragma once

#include "geom/vec2.hpp"

#include <cstddef>
#include <span>
#include <vector>

namespace lumen::geom {

/// Convex hull of `points` (duplicates allowed), counter-clockwise, starting
/// from the lexicographically smallest point. STRICT vertices only: points on
/// the relative interior of hull edges are excluded. Returns indices into
/// `points`.
///   - 0 points -> {}
///   - 1 point  -> {0}
///   - all collinear -> the two extreme indices (degenerate "hull").
[[nodiscard]] std::vector<std::size_t> convex_hull_indices(
    std::span<const Vec2> points);

/// Position of a query point relative to the hull of a point set.
enum class HullPosition {
  kVertex,    ///< A strict corner of the hull.
  kEdge,      ///< On the boundary but not a corner (relative interior of an edge).
  kInterior,  ///< Strictly inside.
  kOutside,   ///< Strictly outside (possible only for points not in the set).
};

/// Classifies `query` against the convex hull given by CCW `hull` positions.
/// `hull` must be a valid CCW convex polygon (or a degenerate 1-2 point
/// hull, for which everything on the segment is kVertex/kEdge).
[[nodiscard]] HullPosition classify_against_hull(std::span<const Vec2> hull,
                                                 Vec2 query);

/// True iff EVERY point of the set is a strict vertex of the set's convex
/// hull — the paper's target configuration. A true verdict implies the
/// points are distinct (duplicates share one hull vertex; two coincident
/// points are not in convex position) and that every pair sees each other
/// (a strict vertex never lies on the segment between two other points).
[[nodiscard]] bool points_in_strictly_convex_position(std::span<const Vec2> points);

/// True iff all points lie on one straight line (trivially true for n <= 2).
[[nodiscard]] bool all_collinear(std::span<const Vec2> points);

/// True iff every point lies within rel_tol * L of one line, where L is the
/// anchor span of the set. Exact collinearity is destroyed by local-frame
/// similarity transforms (each coordinate rounds independently), so the
/// LINE-configuration classification of the algorithms uses this tolerant
/// test; rel_tol must sit above the transform noise (~1e-13) and below any
/// genuine 2-D extent the generators produce (>= 1e-6 relative).
[[nodiscard]] bool nearly_collinear(std::span<const Vec2> points,
                                    double rel_tol = 1e-9);

}  // namespace lumen::geom
