#include "core/view.hpp"

#include "geom/hull.hpp"
#include "geom/predicates.hpp"
#include "geom/simd.hpp"

#include <algorithm>
#include <numeric>

namespace lumen::core {

using geom::Vec2;

std::vector<Vec2> LocalView::hull_points() const {
  std::vector<Vec2> out;
  out.reserve(hull.size());
  for (const std::size_t i : hull) out.push_back(pts[i]);
  return out;
}

namespace {

/// Role for a fully collinear view: extreme along the line -> kLineEnd.
Role line_role(std::span<const Vec2> pts) {
  // Observer is pts[0] at the origin. Find any distinct point to fix the
  // line direction, then check whether all points lie on one side.
  Vec2 dir{};
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (pts[i] != pts[0]) {
      dir = pts[i] - pts[0];
      break;
    }
  }
  if (dir == Vec2{}) return Role::kAlone;
  bool has_positive = false, has_negative = false;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double t = geom::dot(pts[i] - pts[0], dir);
    if (t > 0.0) has_positive = true;
    if (t < 0.0) has_negative = true;
  }
  return (has_positive && has_negative) ? Role::kLine : Role::kLineEnd;
}

/// For p and q collinear with o and distinct from it: true iff they lie on
/// the same ray from o, i.e. p - o and q - o agree in the sign of each
/// coordinate. Exact: the signs are read by comparing coordinates.
bool same_ray(Vec2 o, Vec2 p, Vec2 q) noexcept {
  const auto sign = [](double v, double origin) { return (v > origin) - (v < origin); };
  return sign(p.x, o.x) == sign(q.x, o.x) && sign(p.y, o.y) == sign(q.y, o.y);
}

/// The cone around o spanned by the points added so far: from ray o->a
/// counter-clockwise to ray o->b, opening below pi. Every step is an exact
/// orientation sign, or (while the cone is a single ray) an exact
/// coordinate-sign comparison telling the same ray from the opposite one.
/// Whether the points fit depends only on the set added, so neither the
/// order nor repeats change the answer.
class HalfPlaneCone {
 public:
  explicit HalfPlaneCone(Vec2 o) noexcept : o_(o) {}

  /// True once the cone has two rays, i.e. orient(o, a, b) > 0.
  bool proper() const noexcept { return !single_ray_; }
  Vec2 da() const noexcept { return a_ - o_; }
  Vec2 db() const noexcept { return b_ - o_; }

  /// Adds p; false once the points added no longer fit in one open
  /// half-plane bounded by a line through o (points equal to o are ignored).
  /// A point strictly inside the cone leaves it unchanged.
  bool add(Vec2 p) noexcept {
    if (p == o_) return true;
    if (empty_) {
      a_ = b_ = p;
      empty_ = false;
      return true;
    }
    if (single_ray_) {
      const int s = geom::orient2d(o_, a_, p);
      if (s > 0) {
        b_ = p;
      } else if (s < 0) {
        a_ = p;  // b_ still holds the old ray.
      } else {
        return same_ray(o_, a_, p);  // Opposite rays: o lies between two points.
      }
      single_ray_ = false;
      return true;
    }
    const int sa = geom::orient2d(o_, a_, p);
    const int sb = geom::orient2d(o_, p, b_);
    if (sa >= 0 && sb >= 0) return true;  // Inside the closed cone.
    if (sa < 0 && sb > 0) {
      a_ = p;  // Clockwise of a by less than the remaining opening.
    } else if (sa > 0 && sb < 0) {
      b_ = p;  // Counter-clockwise of b, likewise.
    } else {
      return false;  // The cone would reach pi.
    }
    return true;
  }

 private:
  Vec2 o_;
  Vec2 a_{};
  Vec2 b_{};
  bool empty_ = true;
  bool single_ray_ = true;
};

/// Golden-stride steps the corner walk takes before its in-order sweep: an
/// interior view's cone fails after ~50 of them on average.
constexpr std::size_t kWalkPrefix = 64;

/// The corner walk: true iff pts[0] is a strict vertex of the convex hull
/// of pts, i.e. iff every point not coincident with it lies in one open
/// half-plane bounded by a line through it. The monotone-chain hull keeps
/// exactly the strict vertices (and index 0 among coincident points), so
/// this equals "convex_hull_indices(pts) contains 0", in O(n) instead of
/// O(n log n). The walk first takes golden-ratio strides through the
/// snapshot: the Look emits robots in angular order, and an interior
/// observer's cone only fails once it holds a robot from the observer's
/// sparsest side, which a walk in snapshot order would often reach last.
/// That bounded prefix rejects most interior views. A view that survives it
/// is most likely a corner, and the walk then sweeps every robot in
/// snapshot order, letting geom::simd::cone_skip pass over the robots the
/// stage-A filter certifies strictly inside the current cone. Adding such a
/// robot would leave the cone unchanged, and the answer depends only on the
/// set of robots added, so the skip never changes it.
bool observer_is_strict_vertex(std::span<const Vec2> pts) noexcept {
  const std::size_t m = pts.size() - 1;  // Robots besides the observer.
  std::size_t stride =
      std::max<std::size_t>(1, static_cast<std::size_t>(0.618 * static_cast<double>(m)));
  while (std::gcd(stride, m) != 1) ++stride;  // Coprime: each robot once.
  HalfPlaneCone cone(pts[0]);
  const std::size_t prefix = std::min(m, kWalkPrefix);
  for (std::size_t step = 0, j = 0; step < prefix; ++step) {
    if (!cone.add(pts[1 + j])) return false;
    j += stride;
    if (j >= m) j -= m;
  }
  if (prefix == m) return true;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (cone.proper()) {
      i = geom::simd::cone_skip(pts.data(), i, pts.size(), pts[0], cone.da(), cone.db());
      if (i == pts.size()) break;
    }
    if (!cone.add(pts[i])) return false;
  }
  return true;
}

}  // namespace

LocalView build_view(const model::Snapshot& snap) {
  LocalView view;
  // Zero-copy: the snapshot already stores [self, visible...] in parallel
  // arrays with self at the origin — exactly the view's index convention.
  view.pts = snap.all_positions();
  view.lights = snap.lights;
  if (view.pts.size() <= 1) {
    view.role = Role::kAlone;
    return view;
  }
  // Tolerant line test: local-frame transforms perturb exactly collinear
  // world configurations by rounding noise, so the LINE role must be decided
  // within a relative tolerance (DESIGN.md §3, real-RAM substitution).
  if (geom::nearly_collinear(view.pts)) {
    view.role = line_role(view.pts);
    view.hull = geom::convex_hull_indices(view.pts);
    return view;
  }
  if (observer_is_strict_vertex(view.pts)) {
    view.role = Role::kCorner;
    return view;
  }
  view.hull = geom::convex_hull_indices(view.pts);
  const auto hull_pts = view.hull_points();
  const auto pos = geom::classify_against_hull(hull_pts, view.self());
  view.role = pos == geom::HullPosition::kEdge ? Role::kSide : Role::kInterior;
  return view;
}

std::optional<GateEdge> containing_hull_edge(const LocalView& view) {
  const std::size_t h = view.hull.size();
  if (h < 2) return std::nullopt;
  // A degenerate 2-point hull bounds exactly one edge; a proper polygon has
  // one edge per vertex (the wrap-around closes it).
  const std::size_t edge_count = h == 2 ? 1 : h;
  const Vec2 self = view.self();
  for (std::size_t k = 0; k < edge_count; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    if (geom::on_segment_open(view.pts[i1], view.pts[i2], self)) {
      return GateEdge{i1, i2, view.pts[i1], view.pts[i2], 0.0, k};
    }
  }
  return std::nullopt;
}

bool gate_blocked_by_closer_robot(const LocalView& view, const GateEdge& gate) {
  const Vec2 a = view.self();
  for (std::size_t i = 1; i < view.pts.size(); ++i) {
    if (i == gate.i1 || i == gate.i2) continue;
    const Vec2 p = view.pts[i];
    // Strictly inside triangle (a, c1, c2)? The triangle is oriented
    // (a, c1, c2) or (a, c2, c1); all three signs must agree and be
    // nonzero, so each test short-circuits the next — most robots fail on
    // the first edge, which keeps this O(n) scan out of the profile.
    const int o1 = geom::orient2d(a, gate.c1, p);
    if (o1 == 0) continue;
    const int o2 = geom::orient2d(gate.c1, gate.c2, p);
    if (o2 != o1) continue;
    const int o3 = geom::orient2d(gate.c2, a, p);
    if (o3 == o1) return true;
  }
  return false;
}

}  // namespace lumen::core
