// lumen_core: Beacon-directed insertion targets.
//
// The geometric core of the O(log N) algorithm: given a gate edge (c1, c2)
// of the observer's local hull, compute a point p strictly OUTSIDE the edge
// that (i) becomes a strict hull corner, (ii) keeps c1, c2 (and every other
// hull vertex) strict corners, and (iii) gives concurrent movers at the same
// edge distinct, non-crossing straight paths.
//
// Construction (DESIGN.md §4.1): p = base + h * n with
//   base = c1 + lambda * (c2 - c1),  lambda = 0.15 + 0.7 * t,
//   t    = observer's normalized projection onto the edge (a bijection, so
//          distinct movers get distinct columns — no clamping plateaus),
//   n    = outward unit normal,
//   h    = min(0.25 * |edge|, 0.45 * h_wedge) * (0.4 + 0.5 * lambda),
// where h_wedge is the height at which p would leave the pocket bounded by
// the extensions of the hull edges adjacent to c1 and c2 (keeping those
// vertices convex). The lambda-dependent factor makes same-edge insertions
// from successive stages non-collinear.
#pragma once

#include "core/view.hpp"
#include "geom/segment.hpp"
#include "geom/vec2.hpp"

#include <cmath>
#include <optional>
#include <vector>

namespace lumen::core {

/// Insertion point for an INTERIOR observer exiting through `gate`.
/// Local coordinates. nullopt when the gate is degenerate.
[[nodiscard]] std::optional<geom::Vec2> interior_insertion_target(
    const LocalView& view, const GateEdge& gate);

/// A fully resolved exit: which gate and where to land.
struct ExitPlan {
  GateEdge gate;
  geom::Vec2 target;
  double exit_distance = 0.0;  ///< |from -> target|, the handshake priority.
};

/// One eligible gate of a GateTable with the quantities every plan through
/// it shares: the edge length, the unit direction and the outward unit
/// normal, each computed by the expression a per-call planner would use.
struct TableGate {
  GateEdge gate;       ///< distance is 0: a gate's distance depends on `from`.
  double len = 0.0;    ///< |c2 - c1|.
  geom::Vec2 u{};      ///< (c2 - c1) / len.
  geom::Vec2 n{};      ///< Outward normal: points away from the hull-vertex mean.
};

/// The one home of gate geometry, derived once per Compute (DESIGN §4.1.1):
/// the eligible gates — hull edges with both endpoints Corner-lit, neither
/// the observer — in hull order; the line of every hull edge, for certified
/// distance lower bounds; and the longest edge. async-log's planner,
/// arbitration and fallback and both baselines' gate picks read it. The
/// table borrows the view, which must outlive it.
class GateTable {
 public:
  explicit GateTable(const LocalView& view);

  [[nodiscard]] const LocalView& view() const noexcept { return *view_; }
  /// Number of hull edges; 0 when the hull has fewer than three vertices.
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }
  /// Hull edge k: from hull[k] to hull[(k + 1) % h].
  [[nodiscard]] const geom::Segment& edge(std::size_t k) const noexcept { return edges_[k]; }
  [[nodiscard]] double longest_edge() const noexcept { return longest_edge_; }

  /// The slack that turns line distances into certified lower bounds for p:
  /// 2^-40 * (M + extent) + DBL_MIN, where M is the largest coordinate
  /// magnitude of p and of every hull vertex, and extent >= 0.
  [[nodiscard]] double bound_slack(geom::Vec2 p, double extent) const noexcept;

  /// A lower bound on point_segment_distance(edge(k), p), given
  /// slack = bound_slack(p, extent): the rounded distance from p to edge k's
  /// line, less the slack. The proof is in DESIGN §4.1.1.
  [[nodiscard]] double distance_bound(std::size_t k, geom::Vec2 p,
                                      double slack) const noexcept {
    const geom::Segment& e = edges_[k];
    const geom::Vec2 u = units_[k];
    return std::fabs(u.x * (p.y - e.a.y) - u.y * (p.x - e.a.x)) - slack;
  }

  /// The hull edge nearest to p, with `distance` = its point_segment_distance
  /// from p; the first in hull order on ties, empty without edges. Edges
  /// whose distance_bound is not below the best distance so far cannot win
  /// and are skipped.
  [[nodiscard]] std::optional<GateEdge> nearest_edge(geom::Vec2 p) const noexcept;

  /// The same query over the eligible gates only.
  [[nodiscard]] std::optional<GateEdge> nearest_gate(geom::Vec2 p) const noexcept;

  /// nearest_edge(p)'s distance (+inf without edges): the scalar the
  /// fallback serialization and seq-baseline's candidate test order robots by.
  [[nodiscard]] double nearest_edge_distance(geom::Vec2 p) const noexcept;

  /// The ASYNC algorithm's exit planner, usable both for the observer itself
  /// and for MODELLING a rival's intention (`from` = the rival's position).
  /// Candidate gates are the eligible gates whose PERPENDICULAR foot from
  /// `from` lands comfortably inside the edge (t in [0.08, 0.92]); plans are
  /// written to `plans` (cleared first) nearest-gate-first. The target sits
  /// on the planner's own column (straight perpendicular approach), so
  /// concurrent exits at one edge follow parallel, non-crossing paths, at
  /// heights bounded by the adjacent-edge wedge (every old corner stays a
  /// corner).
  void plan_exits(geom::Vec2 from, std::vector<ExitPlan>& plans) const;

 private:
  const LocalView* view_;
  std::vector<TableGate> gates_;
  std::vector<geom::Segment> edges_;
  std::vector<geom::Vec2> units_;  ///< (b - a) / |b - a| of each edge.
  double longest_edge_ = 0.0;
  double max_coord_ = 0.0;
};

/// The λ-squash insertion through `gate` for the view's observer, the rule
/// all three algorithms share (DESIGN §4.3): empty without a gate, when a
/// robot sits strictly inside (observer, c1, c2)
/// (gate_blocked_by_closer_robot), or when interior_insertion_target is
/// degenerate.
[[nodiscard]] std::optional<ExitPlan> insertion_plan(
    const LocalView& view, const std::optional<GateEdge>& gate);

/// Pop-out point for a SIDE observer sitting on `gate`'s open interior:
/// straight out along the edge's outward normal (a perpendicular path, so
/// same-edge poppers move in parallel), with a height that (a) stays small
/// against both edge fractions and (b) varies with the observer's position
/// along the edge to break collinearity among poppers.
[[nodiscard]] std::optional<geom::Vec2> side_popout_target(const LocalView& view,
                                                           const GateEdge& gate);

/// Escape move for a robot whose entire view is one line (Role::kLine):
/// perpendicular to the line by a quarter of the distance to the nearest
/// visible robot. The side is chosen in the observer's private frame —
/// an arbitrary local tie-break, admissible since robots share no chirality.
[[nodiscard]] geom::Vec2 line_escape_target(const LocalView& view);

}  // namespace lumen::core
