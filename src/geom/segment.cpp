#include "geom/segment.hpp"

#include <algorithm>
#include <cmath>

namespace lumen::geom {

namespace {

/// For collinear segments: do their projections on the dominant axis share
/// more than a point?
bool collinear_overlap_positive(const Segment& s, const Segment& t) noexcept {
  const bool use_x = std::fabs(s.b.x - s.a.x) + std::fabs(t.b.x - t.a.x) >=
                     std::fabs(s.b.y - s.a.y) + std::fabs(t.b.y - t.a.y);
  const auto coord = [use_x](Vec2 p) { return use_x ? p.x : p.y; };
  const double s_lo = std::fmin(coord(s.a), coord(s.b));
  const double s_hi = std::fmax(coord(s.a), coord(s.b));
  const double t_lo = std::fmin(coord(t.a), coord(t.b));
  const double t_hi = std::fmax(coord(t.a), coord(t.b));
  return std::fmin(s_hi, t_hi) > std::fmax(s_lo, t_lo);
}

bool collinear_touching(const Segment& s, const Segment& t) noexcept {
  return on_segment_closed(s.a, s.b, t.a) || on_segment_closed(s.a, s.b, t.b) ||
         on_segment_closed(t.a, t.b, s.a) || on_segment_closed(t.a, t.b, s.b);
}

}  // namespace

SegmentRelation classify_intersection(const Segment& s, const Segment& t) noexcept {
  // Degenerate segments behave as points.
  if (s.degenerate() && t.degenerate()) {
    return s.a == t.a ? SegmentRelation::kTouching : SegmentRelation::kDisjoint;
  }
  if (s.degenerate()) {
    return on_segment_closed(t.a, t.b, s.a) ? SegmentRelation::kTouching
                                            : SegmentRelation::kDisjoint;
  }
  if (t.degenerate()) {
    return on_segment_closed(s.a, s.b, t.a) ? SegmentRelation::kTouching
                                            : SegmentRelation::kDisjoint;
  }

  const int o1 = orient2d(s.a, s.b, t.a);
  const int o2 = orient2d(s.a, s.b, t.b);
  const int o3 = orient2d(t.a, t.b, s.a);
  const int o4 = orient2d(t.a, t.b, s.b);

  if (o1 == 0 && o2 == 0) {  // All four points collinear.
    if (collinear_overlap_positive(s, t)) return SegmentRelation::kOverlapping;
    return collinear_touching(s, t) ? SegmentRelation::kTouching
                                    : SegmentRelation::kDisjoint;
  }

  const bool straddle_s = (o1 > 0 && o2 < 0) || (o1 < 0 && o2 > 0);
  const bool straddle_t = (o3 > 0 && o4 < 0) || (o3 < 0 && o4 > 0);
  if (straddle_s && straddle_t) return SegmentRelation::kProperCrossing;

  // An endpoint lying exactly on the other segment is a touch; a proper
  // T-junction (endpoint strictly inside the other segment) also counts as
  // touching at exactly one point.
  if ((o1 == 0 && on_segment_closed(s.a, s.b, t.a)) ||
      (o2 == 0 && on_segment_closed(s.a, s.b, t.b)) ||
      (o3 == 0 && on_segment_closed(t.a, t.b, s.a)) ||
      (o4 == 0 && on_segment_closed(t.a, t.b, s.b))) {
    return SegmentRelation::kTouching;
  }
  return SegmentRelation::kDisjoint;
}

bool segments_intersect(const Segment& s, const Segment& t) noexcept {
  return classify_intersection(s, t) != SegmentRelation::kDisjoint;
}

bool segments_cross(const Segment& s, const Segment& t) noexcept {
  switch (classify_intersection(s, t)) {
    case SegmentRelation::kProperCrossing:
    case SegmentRelation::kOverlapping:
      return true;
    case SegmentRelation::kTouching: {
      // Sharing a mere endpoint-to-endpoint contact is not a crossing; an
      // endpoint landing strictly inside the other segment is.
      const bool endpoint_contact = s.a == t.a || s.a == t.b || s.b == t.a || s.b == t.b;
      if (!endpoint_contact) return true;
      // Endpoint contact could still hide an interior touch of the OTHER
      // endpoints; check all four open-interior memberships.
      return on_segment_open(s.a, s.b, t.a) || on_segment_open(s.a, s.b, t.b) ||
             on_segment_open(t.a, t.b, s.a) || on_segment_open(t.a, t.b, s.b);
    }
    case SegmentRelation::kDisjoint:
      return false;
  }
  return false;
}

double project_onto_segment(const Segment& s, Vec2 p) noexcept {
  const Vec2 d = s.b - s.a;
  const double len_sq = norm_sq(d);
  if (len_sq == 0.0) return 0.0;
  return std::clamp(dot(p - s.a, d) / len_sq, 0.0, 1.0);
}

Vec2 closest_point_on_segment(const Segment& s, Vec2 p) noexcept {
  return lerp(s.a, s.b, project_onto_segment(s, p));
}

double point_segment_distance(const Segment& s, Vec2 p) noexcept {
  return distance(p, closest_point_on_segment(s, p));
}

double segment_segment_distance(const Segment& s, const Segment& t) noexcept {
  if (segments_intersect(s, t)) return 0.0;
  double d = point_segment_distance(s, t.a);
  d = std::fmin(d, point_segment_distance(s, t.b));
  d = std::fmin(d, point_segment_distance(t, s.a));
  d = std::fmin(d, point_segment_distance(t, s.b));
  return d;
}

}  // namespace lumen::geom
