#include "core/beacon.hpp"

#include "geom/predicates.hpp"
#include "geom/segment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <utility>

namespace lumen::core {

using geom::Vec2;

namespace {

/// Signed-area value of triangle (a, b, c) as a plain double — used only for
/// metric bounds (never for sign decisions, which use orient2d).
double tri(Vec2 a, Vec2 b, Vec2 c) noexcept {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

/// Largest h such that orient(u, v, base + h*n) stays > 0 (the wedge bound
/// contributed by the hull edge u->v); +inf when unconstrained.
double wedge_bound(Vec2 u, Vec2 v, Vec2 base, Vec2 n) noexcept {
  const double a0 = tri(u, v, base);
  const double slope = tri(u, v, base + n) - a0;
  if (slope >= 0.0) return std::numeric_limits<double>::infinity();
  if (a0 <= 0.0) return 0.0;
  return a0 / -slope;
}

/// Height bound from the hull edges adjacent to the gate: the edge into c1
/// and the edge out of c2 (+inf when the gate carries no hull position).
double adjacent_wedge_bound(const LocalView& view, const GateEdge& gate, Vec2 base,
                            Vec2 n) noexcept {
  double h_wedge = std::numeric_limits<double>::infinity();
  const std::size_t h = view.hull.size();
  if (gate.k == kNoHullPosition || h < 3) return h_wedge;
  const Vec2 c0 = view.pts[view.hull[(gate.k + h - 1) % h]];
  h_wedge = std::min(h_wedge, wedge_bound(c0, gate.c1, base, n));
  const Vec2 c3 = view.pts[view.hull[(gate.k + 2) % h]];
  // Constraint at c2: orient(p, c2, c3) > 0 == orient(c2, c3, p) > 0.
  return std::min(h_wedge, wedge_bound(gate.c2, c3, base, n));
}

}  // namespace

std::optional<Vec2> interior_insertion_target(const LocalView& view,
                                              const GateEdge& gate) {
  const Vec2 d = gate.c2 - gate.c1;
  const double len = geom::norm(d);
  if (len <= 0.0) return std::nullopt;
  const Vec2 u = d / len;
  // CCW hull: interior (and thus the observer) is LEFT of c1->c2; outward is
  // right. Double-check against the observer and bail out on degeneracy.
  Vec2 n{u.y, -u.x};
  const Vec2 self = view.self();
  if (geom::dot(n, self - gate.c1) > 0.0) n = -n;

  // Strictly monotone squash of the (unclamped) projection into (0, 1):
  // distinct movers at this edge ALWAYS get distinct columns, even when
  // their feet fall beyond the edge ends (a hard clamp would collapse them
  // onto the same target — the identical-target collision). The [0.15,
  // 0.85] column band keeps targets away from the gate's corners, where the
  // approach regions of adjacent edges meet.
  const double t_raw = geom::dot(self - gate.c1, u) / len;
  const double t = 0.5 + std::atan(2.0 * (t_raw - 0.5)) / std::numbers::pi;
  const double lambda = 0.15 + 0.7 * t;
  const Vec2 base = gate.c1 + u * (lambda * len);

  // Wedge constraints from the hull edges adjacent to the gate.
  const double h_wedge = adjacent_wedge_bound(view, gate, base, n);
  double h_cap = 0.25 * len;
  if (std::isfinite(h_wedge)) h_cap = std::min(h_cap, 0.45 * h_wedge);
  if (h_cap <= len * 1e-12) {
    // Degenerate wedge (numerically flat corner): conservative nudge; the
    // next cycle re-classifies and continues.
    h_cap = 0.05 * len;
  }
  const double height = h_cap * (0.4 + 0.5 * lambda);
  return base + n * height;
}

namespace {

/// Perpendicular-approach target of the plans through gate g: the point
/// straight out from `from`'s own projection onto the gate, at a
/// wedge-bounded height. nullopt when the projection falls outside the
/// central [0.08, 0.92] band (approach slabs must stay clear of the gate's
/// corners) or the gate is degenerate.
std::optional<Vec2> perpendicular_target(const LocalView& view, const TableGate& g,
                                         Vec2 from) {
  if (g.len <= 0.0) return std::nullopt;
  const double t_raw = geom::dot(from - g.gate.c1, g.u) / g.len;
  if (t_raw < 0.08 || t_raw > 0.92) return std::nullopt;
  const Vec2 base = g.gate.c1 + g.u * (t_raw * g.len);

  const double h_wedge = adjacent_wedge_bound(view, g.gate, base, g.n);
  double h_cap = 0.25 * g.len;
  if (std::isfinite(h_wedge)) h_cap = std::min(h_cap, 0.45 * h_wedge);
  if (h_cap <= g.len * 1e-12) h_cap = 0.05 * g.len;
  const double height = h_cap * (0.4 + 0.5 * t_raw);
  return base + g.n * height;
}

}  // namespace

GateTable::GateTable(const LocalView& view) : view_(&view) {
  const std::size_t h = view.hull.size();
  if (h < 3) return;
  // Interior witness for outward orientation: the hull vertex mean is
  // strictly inside any convex polygon, and stays valid even when the
  // planning robot itself is outside the hull (a mid-flight rival being
  // modelled).
  Vec2 witness{};
  for (const std::size_t k : view.hull) witness += view.pts[k];
  witness = witness / static_cast<double>(h);
  gates_.reserve(h);
  edges_.reserve(h);
  units_.reserve(h);
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    const geom::Segment e{view.pts[i1], view.pts[i2]};
    const double len = geom::norm(e.b - e.a);
    const Vec2 u = (e.b - e.a) / len;
    edges_.push_back(e);
    units_.push_back(u);
    longest_edge_ = std::max(longest_edge_, len);
    max_coord_ = std::max({max_coord_, std::fabs(e.a.x), std::fabs(e.a.y)});
    if (i1 == 0 || i2 == 0) continue;  // Own vertex cannot anchor a gate.
    if (view.lights[i1] != model::Light::kCorner ||
        view.lights[i2] != model::Light::kCorner) {
      continue;
    }
    // CCW hull: the interior is LEFT of c1->c2, so outward is right; the
    // witness settles it without trusting the orientation.
    Vec2 n{u.y, -u.x};
    if (geom::dot(n, witness - e.a) > 0.0) n = -n;
    gates_.push_back(TableGate{GateEdge{i1, i2, e.a, e.b, 0.0, k}, len, u, n});
  }
}

double GateTable::bound_slack(Vec2 p, double extent) const noexcept {
  const double m = std::max({max_coord_, std::fabs(p.x), std::fabs(p.y)});
  return 0x1p-40 * (m + extent) + std::numeric_limits<double>::min();
}

namespace {

/// Position in [0, count) of the edge nearest to p among edge(k_of(0)),
/// ..., edge(k_of(count - 1)), scanned in that order (count when none is
/// finitely near), and its distance. A later edge wins only when strictly
/// nearer, and an edge whose certified bound is not below the best so far
/// cannot be, so it is skipped without the exact distance.
template <typename EdgeOf>
std::pair<std::size_t, double> nearest_of(const GateTable& table, Vec2 p,
                                          std::size_t count, EdgeOf k_of) noexcept {
  const double slack = table.bound_slack(p, 0.0);
  std::size_t best = count;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = k_of(i);
    if (table.distance_bound(k, p, slack) >= best_dist) continue;
    const double d = geom::point_segment_distance(table.edge(k), p);
    if (d < best_dist) {
      best = i;
      best_dist = d;
    }
  }
  return {best, best_dist};
}

}  // namespace

std::optional<GateEdge> GateTable::nearest_edge(Vec2 p) const noexcept {
  const auto [k, d] = nearest_of(*this, p, edges_.size(), [](std::size_t e) { return e; });
  if (k == edges_.size()) return std::nullopt;
  const std::vector<std::size_t>& hull = view_->hull;
  return GateEdge{hull[k], hull[(k + 1) % hull.size()], edges_[k].a, edges_[k].b, d, k};
}

std::optional<GateEdge> GateTable::nearest_gate(Vec2 p) const noexcept {
  const auto [i, d] = nearest_of(*this, p, gates_.size(),
                                 [this](std::size_t g) { return gates_[g].gate.k; });
  if (i == gates_.size()) return std::nullopt;
  GateEdge gate = gates_[i].gate;
  gate.distance = d;
  return gate;
}

double GateTable::nearest_edge_distance(Vec2 p) const noexcept {
  const auto edge = nearest_edge(p);
  return edge ? edge->distance : std::numeric_limits<double>::infinity();
}

void GateTable::plan_exits(Vec2 from, std::vector<ExitPlan>& plans) const {
  plans.clear();
  for (const TableGate& g : gates_) {
    const auto target = perpendicular_target(*view_, g, from);
    if (!target) continue;
    // Ranked only for gates that pass the band test, so only those pay it.
    GateEdge gate = g.gate;
    gate.distance = geom::point_segment_distance(geom::Segment{gate.c1, gate.c2}, from);
    plans.push_back(ExitPlan{gate, *target, geom::distance(from, *target)});
  }
  std::sort(plans.begin(), plans.end(), [](const ExitPlan& a, const ExitPlan& b) {
    return a.gate.distance < b.gate.distance;
  });
}

std::optional<ExitPlan> insertion_plan(const LocalView& view,
                                       const std::optional<GateEdge>& gate) {
  if (!gate || gate_blocked_by_closer_robot(view, *gate)) return std::nullopt;
  const auto target = interior_insertion_target(view, *gate);
  if (!target) return std::nullopt;
  return ExitPlan{*gate, *target, geom::distance(view.self(), *target)};
}

std::optional<Vec2> side_popout_target(const LocalView& view, const GateEdge& gate) {
  const Vec2 d = gate.c2 - gate.c1;
  const double len = geom::norm(d);
  if (len <= 0.0) return std::nullopt;
  const Vec2 u = d / len;
  // Outward = the side of the edge line holding NO visible robot. The view
  // being 2-D guarantees a strict witness exists.
  Vec2 n{u.y, -u.x};
  bool oriented = false;
  for (std::size_t i = 1; i < view.pts.size() && !oriented; ++i) {
    const int o = geom::orient2d(gate.c1, gate.c2, view.pts[i]);
    if (o != 0) {
      // The witness robot is on the interior side; make n point away from it.
      if (geom::dot(n, view.pts[i] - gate.c1) > 0.0) n = -n;
      oriented = true;
    }
  }
  if (!oriented) return std::nullopt;  // Fully collinear view: not a Side role.

  const Vec2 self = view.self();
  const double d1 = geom::distance(self, gate.c1);
  const double d2 = geom::distance(self, gate.c2);
  const double t = std::clamp(d1 / len, 0.0, 1.0);
  const double height =
      std::min(0.2 * std::min(d1, d2), 0.1 * len) * (0.6 + 0.3 * t);
  if (height <= 0.0) return std::nullopt;
  return self + n * height;
}

Vec2 line_escape_target(const LocalView& view) {
  const Vec2 self = view.self();
  double best_sq = std::numeric_limits<double>::infinity();
  Vec2 nearest{};
  for (std::size_t i = 1; i < view.pts.size(); ++i) {
    const double ds = geom::distance_sq(self, view.pts[i]);
    if (ds > 0.0 && ds < best_sq) {
      best_sq = ds;
      nearest = view.pts[i];
    }
  }
  if (!std::isfinite(best_sq)) return self;
  const Vec2 dir = geom::normalized(nearest - self);
  const double dist = std::sqrt(best_sq);
  return self + geom::perp(dir) * (0.25 * dist);
}

}  // namespace lumen::core
