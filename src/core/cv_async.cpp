#include "core/cv_async.hpp"

#include "core/beacon.hpp"
#include "core/view.hpp"
#include "geom/segment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

namespace lumen::core {

using geom::Vec2;
using model::Action;
using model::Light;

namespace {

/// Conflict margin as a fraction of the shorter exit: paths closer than
/// this are arbitrated. Larger values serialize crossing fans; smaller
/// values admit closer concurrent flights (grazing shows up in the
/// min-separation audit). 0.02 balances the two empirically.
constexpr double kConflictMargin = 0.02;

/// True iff any visible robot shows a flight or intent light within
/// `radius` of the observer — the side-popper's proximity guard.
bool mover_within(const LocalView& view, double radius) {
  const double r_sq = radius * radius;
  for (std::size_t i = 1; i < view.pts.size(); ++i) {
    if ((view.lights[i] == Light::kTransit || view.lights[i] == Light::kMoving) &&
        geom::distance_sq(view.self(), view.pts[i]) <= r_sq) {
      return true;
    }
  }
  return false;
}

/// The path's bounding box, widened so that a point outside it is certainly
/// farther than `corridor` from the path AS COMPUTED by
/// point_segment_distance: the rounded closest point (a lerp) strays from
/// the exact box by a few ulps of the largest endpoint coordinate, the
/// rounded difference to it loses at most an ulp more, and hypot(dx, dy) is
/// never below |dx| by more than an ulp. A relative slack of 2^-40 — ~8000
/// ulps — covers all of it, and the absolute DBL_MIN term the subnormal
/// range, so the box only skips points the exact test would pass as clear.
class CorridorBox {
 public:
  CorridorBox(const geom::Segment& path, double corridor) noexcept {
    const double scale = std::max({std::fabs(path.a.x), std::fabs(path.a.y),
                                   std::fabs(path.b.x), std::fabs(path.b.y)}) +
                         corridor;
    const double reach =
        corridor + (0x1p-40 * scale + std::numeric_limits<double>::min());
    lo_ = Vec2{std::min(path.a.x, path.b.x) - reach, std::min(path.a.y, path.b.y) - reach};
    hi_ = Vec2{std::max(path.a.x, path.b.x) + reach, std::max(path.a.y, path.b.y) + reach};
  }

  [[nodiscard]] bool excludes(Vec2 q) const noexcept {
    return q.x < lo_.x || q.x > hi_.x || q.y < lo_.y || q.y > hi_.y;
  }

 private:
  Vec2 lo_;
  Vec2 hi_;
};

/// First plan (for the robot at pts[subject], usually the observer at 0)
/// whose approach corridor is free of parked robots: nobody may sit
/// essentially ON the straight path (grazing guard; a robot exactly on the
/// path would be run over). Gate anchors are at the edge ends, outside the
/// central approach band, so they never trip this. Used both for the
/// observer's own decision and — with the same logic, for estimate
/// consistency — to model a rival's plan.
std::optional<ExitPlan> first_clear_plan(const LocalView& view,
                                         std::size_t subject) {
  const geom::Vec2 from = view.pts[subject];
  // Corridor width scales with the LOCAL packing (distance to the nearest
  // visible robot): wide enough to rule out grazing a parked robot, narrow
  // enough that dense configurations still admit many concurrent plans.
  // (Scaling it with the gate edge length instead throttles global
  // throughput to a constant — the hull edges are huge early on.)
  double nearest_sq = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < view.pts.size(); ++i) {
    if (i == subject) continue;
    nearest_sq = std::min(nearest_sq, geom::distance_sq(from, view.pts[i]));
  }
  const double corridor =
      std::isfinite(nearest_sq) ? 0.05 * std::sqrt(nearest_sq) : 0.0;
  for (const ExitPlan& plan : plan_exits(view, from)) {
    const geom::Segment path{from, plan.target};
    const CorridorBox box(path, corridor);
    bool clear = true;
    for (std::size_t i = 0; i < view.pts.size() && clear; ++i) {
      if (i == subject || i == plan.gate.i1 || i == plan.gate.i2) continue;
      const Vec2 q = view.pts[i];
      if (box.excludes(q)) continue;
      if (geom::point_segment_distance(path, q) <= corridor) clear = false;
    }
    if (clear) return plan;
  }
  return std::nullopt;
}

/// Fallback for the rare observer whose perpendicular foot misses the
/// central band of EVERY eligible edge (it sits in the notch behind a hull
/// vertex): the diagonal lambda-squash insertion at the nearest eligible
/// gate. Diagonal paths are not modellable by rivals, so fallback flights
/// are serialized globally by the caller.
std::optional<ExitPlan> fallback_plan(const LocalView& view) {
  const std::size_t h = view.hull.size();
  if (h < 3) return std::nullopt;
  std::optional<GateEdge> best;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    if (i1 == 0 || i2 == 0) continue;
    if (view.lights[i1] != Light::kCorner || view.lights[i2] != Light::kCorner) {
      continue;
    }
    const geom::Segment e{view.pts[i1], view.pts[i2]};
    const double d = geom::point_segment_distance(e, view.self());
    if (d < best_dist) {
      best_dist = d;
      best = GateEdge{i1, i2, e.a, e.b, d, k};
    }
  }
  if (!best) return std::nullopt;
  if (gate_blocked_by_closer_robot(view, *best)) return std::nullopt;
  const auto target = interior_insertion_target(view, *best);
  if (!target) return std::nullopt;
  return ExitPlan{*best, *target, geom::distance(view.self(), *target)};
}

/// Distance from p to hull edge k of the view.
double edge_distance(const LocalView& view, std::size_t k, geom::Vec2 p) {
  const std::size_t h = view.hull.size();
  const geom::Segment e{view.pts[view.hull[k]], view.pts[view.hull[(k + 1) % h]]};
  return geom::point_segment_distance(e, p);
}

/// Distance from p to the nearest hull edge of the view — the shared scalar
/// the fallback serialization orders rivals by.
double nearest_edge_distance(const LocalView& view, geom::Vec2 p) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < view.hull.size(); ++k) {
    best = std::min(best, edge_distance(view, k, p));
  }
  return best;
}

/// The arbitration prefilter's skip test,
///   gap > (nearest_edge_distance(view, p) + quarter_edge) + slack,
/// decided without the O(h) minimum wherever a bound settles it. The minimum
/// is >= 0, so gap <= quarter_edge + slack keeps the rival; it is <= every
/// edge's distance d_k, so gap > (d_k + quarter_edge) + slack at any edge
/// skips it. Rounded addition is monotone, so neither bound can flip the
/// comparison; only a full scan with no skipping edge keeps the rival.
/// `edge` is where the scan starts — the edge that skipped the previous
/// rival, since neighbours tend to be skipped by the same edge — and is left
/// at the edge that skipped this one.
bool out_of_reach(const LocalView& view, geom::Vec2 p, double gap,
                  double quarter_edge, double slack, std::size_t& edge) {
  if (gap <= quarter_edge + slack) return false;
  const std::size_t h = view.hull.size();
  for (std::size_t step = 0; step < h; ++step) {
    if (gap > (edge_distance(view, edge, p) + quarter_edge) + slack) return true;
    edge = edge + 1 == h ? 0 : edge + 1;
  }
  return false;
}

}  // namespace

Action CompleteVisibilityAsync::compute(const model::Snapshot& snap) const {
  const LocalView view = build_view(snap);
  switch (view.role) {
    case Role::kAlone:
      return Action::stay(Light::kCorner);

    case Role::kLineEnd:
      return Action::stay(Light::kLineEnd);

    case Role::kLine: {
      // Everything I see is one line and I am between neighbors: step off.
      // Endpoints hold still, so perpendicular escapes (distinct line
      // abscissae) can neither collide nor cross.
      return Action::move_to(line_escape_target(view), Light::kLine);
    }

    case Role::kCorner:
      // Anchors never move; a robot that just landed (kMoving) and is now a
      // corner announces it here.
      return Action::stay(Light::kCorner);

    case Role::kSide: {
      const auto gate = containing_hull_edge(view);
      if (!gate) return Action::stay(Light::kSide);
      const auto target = side_popout_target(view, *gate);
      if (!target) return Action::stay(Light::kSide);
      const double displacement = geom::distance(view.self(), *target);
      if (mover_within(view, guard_factor_ * displacement)) {
        return Action::stay(Light::kSide);
      }
      return Action::move_to(*target, Light::kMoving);
    }

    case Role::kInterior: {
      // The beacon protocol, three lights deep:
      //   kInterior -> kTransit : ANNOUNCE a concrete exit plan (stationary).
      //   kTransit  -> kMoving  : FLY, but only after the arbitration below.
      //   kMoving interior      : the landing slot got absorbed by a
      //                           concurrent insertion; restart the protocol.
      //
      // Arbitration (run by a kTransit robot at its move-Look): against
      // every visible robot with an intent/flight light whose modelled exit
      // path comes within the safety margin of mine,
      //   - kMoving rivals win unconditionally (they are already flying);
      //   - kTransit rivals are ordered by remaining exit distance (a total
      //     order, so no deferral cycles): strictly shorter exit flies,
      //     the other keeps kTransit and re-arbitrates next cycle.
      // Because a robot's kTransit commit precedes its move-Look, two
      // conflicting robots can never both reach flight unseen: at least one
      // of them arbitrates with the other's light visible.
      auto plan = first_clear_plan(view, 0);
      const bool fallback = !plan.has_value();
      if (fallback) plan = fallback_plan(view);
      if (!plan) {
        // No eligible gate right now (or all corridors blocked): withdraw
        // any stale intent so rivals stop yielding to it.
        return Action::stay(Light::kInterior);
      }
      if (snap.self_light != Light::kTransit) {
        return Action::stay(Light::kTransit);  // Announce.
      }

      if (fallback) {
        // Diagonal fallback flights are invisible to rivals' path models,
        // so they run under global exclusivity: yield to every flight, and
        // among intents fly only as the robot strictly closest to the hull
        // boundary (a shared, frame-invariant total order).
        const double own = nearest_edge_distance(view, view.self());
        for (std::size_t i = 1; i < view.pts.size(); ++i) {
          if (view.lights[i] == Light::kMoving) return Action::stay(Light::kTransit);
          if (view.lights[i] == Light::kTransit &&
              nearest_edge_distance(view, view.pts[i]) <= own) {
            return Action::stay(Light::kTransit);
          }
        }
        return Action::move_to(plan->target, Light::kMoving);
      }

      const geom::Segment my_path{view.self(), plan->target};
      // Sound prefilter: a rival's exit path never leaves the disk of
      // radius (distance to its nearest hull edge + 0.25 * longest edge)
      // around the rival, so rivals farther than that from my path (plus
      // 0.1 * my exit) cannot conflict — skip the expensive plan modelling
      // for them.
      double longest_edge = 0.0;
      for (std::size_t k = 0; k < view.hull.size(); ++k) {
        longest_edge = std::max(
            longest_edge,
            geom::distance(view.pts[view.hull[k]],
                           view.pts[view.hull[(k + 1) % view.hull.size()]]));
      }
      const double quarter_edge = 0.25 * longest_edge;
      const double slack = 0.1 * plan->exit_distance;
      std::size_t skip_edge = 0;
      for (std::size_t i = 1; i < view.pts.size(); ++i) {
        const Light light = view.lights[i];
        if (light != Light::kTransit && light != Light::kMoving) continue;
        const Vec2 rival = view.pts[i];
        const double gap = geom::point_segment_distance(my_path, rival);
        if (out_of_reach(view, rival, gap, quarter_edge, slack, skip_edge)) continue;
        // A robot in flight close to my intended path is a hazard no matter
        // what its (unknowable) destination is — yield on position alone.
        if (light == Light::kMoving && gap <= 0.03 * plan->exit_distance) {
          return Action::stay(Light::kTransit);
        }
        // Model the rival with the SAME planner the rival itself runs, so
        // both parties arbitrate on (approximately) the same two paths.
        const auto rival_plan = first_clear_plan(view, i);
        geom::Segment rival_path{rival, rival};
        double rival_exit = 0.0;
        if (rival_plan) {
          rival_path = geom::Segment{rival, rival_plan->target};
          rival_exit = rival_plan->exit_distance;
        }
        const double margin =
            kConflictMargin *
            std::min(plan->exit_distance,
                     rival_exit > 0.0 ? rival_exit : plan->exit_distance);
        if (geom::segment_segment_distance(my_path, rival_path) > margin) {
          continue;
        }
        if (light == Light::kMoving) {
          return Action::stay(Light::kTransit);  // Yield to flights.
        }
        if (rival_exit <= 0.0) {
          // Un-modellable stationary intent near my path (likely a fallback
          // candidate): WITHDRAW rather than hold intent, so the fallback's
          // global-exclusivity count drops and it can proceed.
          return Action::stay(Light::kInterior);
        }
        if (rival_exit <= plan->exit_distance) {
          // Shorter exit flies first; on exact ties both yield until the
          // landscape changes.
          return Action::stay(Light::kTransit);
        }
      }
      return Action::move_to(plan->target, Light::kMoving);
    }
  }
  return Action::stay(snap.self_light);
}

std::span<const model::Light> CompleteVisibilityAsync::palette() const noexcept {
  return model::kAllLights;
}

}  // namespace lumen::core
