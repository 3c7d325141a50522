// lumen_geom: segments, point-segment kernels, and exact intersection
// classification.
//
// Path-crossing detection (one half of the paper's collision-freedom claim)
// is decided here: two robot trajectories cross iff their path segments
// intersect. Classification is exact (built on orient2d); distances are
// floating approximations used only for metric decisions with slack.
#pragma once

#include "geom/predicates.hpp"
#include "geom/vec2.hpp"

namespace lumen::geom {

struct Segment {
  Vec2 a;
  Vec2 b;

  [[nodiscard]] bool degenerate() const noexcept { return a == b; }
};

/// How two segments meet, from "not at all" to "share a sub-segment".
enum class SegmentRelation {
  kDisjoint,        ///< No common point.
  kTouching,        ///< Exactly one common point, at an endpoint of at least one segment.
  kProperCrossing,  ///< One common point strictly interior to both segments.
  kOverlapping,     ///< Collinear with a shared sub-segment of positive length.
};

/// Exact classification of how s and t intersect.
[[nodiscard]] SegmentRelation classify_intersection(const Segment& s,
                                                    const Segment& t) noexcept;

/// True iff the segments share at least one point (any relation but
/// kDisjoint).
[[nodiscard]] bool segments_intersect(const Segment& s, const Segment& t) noexcept;

/// True iff the segments share a point that is interior to at least one of
/// them, or overlap — the "paths cross" relation of the paper (two movers may
/// share an endpoint only if it is a common rendezvous, which the collision
/// monitor flags separately).
[[nodiscard]] bool segments_cross(const Segment& s, const Segment& t) noexcept;

/// Closest point on the CLOSED segment to p.
[[nodiscard]] Vec2 closest_point_on_segment(const Segment& s, Vec2 p) noexcept;

/// Euclidean distance from p to the closed segment.
[[nodiscard]] double point_segment_distance(const Segment& s, Vec2 p) noexcept;

/// Parameter t in [0,1] of the closest point on s to p (0 at s.a, 1 at s.b).
[[nodiscard]] double project_onto_segment(const Segment& s, Vec2 p) noexcept;

/// Minimum distance between two closed segments.
[[nodiscard]] double segment_segment_distance(const Segment& s,
                                              const Segment& t) noexcept;

}  // namespace lumen::geom
