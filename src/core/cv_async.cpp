#include "core/cv_async.hpp"

#include "core/beacon.hpp"
#include "core/view.hpp"
#include "geom/segment.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
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

  /// Bit i set iff pts[begin + i] is not excluded by the box, for the up to
  /// 64 points from `begin`; branch-free, so a scan pays no mispredicted
  /// branch per robot.
  [[nodiscard]] std::uint64_t admits(std::span<const Vec2> pts, std::size_t begin,
                                     std::size_t end) const noexcept {
    std::uint64_t mask = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Vec2 q = pts[i];
      const bool excluded = (q.x < lo_.x) | (q.x > hi_.x) | (q.y < lo_.y) | (q.y > hi_.y);
      mask |= std::uint64_t{!excluded} << (i - begin);
    }
    return mask;
  }

 private:
  Vec2 lo_;
  Vec2 hi_;
};

/// Robots per block of the branch-free scans: one 64-bit mask.
constexpr std::size_t kBlock = 64;

/// Squared distance from pts[subject] to its nearest other robot (+inf when
/// it sees nobody): the minimum over four independent lanes, which is the
/// minimum of the whole set whatever the order.
double nearest_sq_of(std::span<const Vec2> pts, std::size_t subject) noexcept {
  constexpr std::size_t kLanes = 4;
  const Vec2 from = pts[subject];
  double lane[kLanes];
  std::fill(lane, lane + kLanes, std::numeric_limits<double>::infinity());
  const auto fold = [&](std::size_t begin, std::size_t end) {
    std::size_t i = begin;
    for (; i + kLanes <= end; i += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double d = geom::distance_sq(from, pts[i + l]);
        lane[l] = d < lane[l] ? d : lane[l];
      }
    }
    for (; i < end; ++i) lane[0] = std::min(lane[0], geom::distance_sq(from, pts[i]));
  };
  fold(0, subject);
  fold(subject + 1, pts.size());
  return std::min({lane[0], lane[1], lane[2], lane[3]});
}

/// True iff no robot but the subject and the gate's anchors lies within
/// `corridor` of `path`. The box mask picks the robots that take the exact
/// test, a block at a time.
bool corridor_clear(std::span<const Vec2> pts, const geom::Segment& path,
                    double corridor, std::size_t subject, const GateEdge& gate) {
  const CorridorBox box(path, corridor);
  for (std::size_t begin = 0; begin < pts.size(); begin += kBlock) {
    const std::size_t end = std::min(pts.size(), begin + kBlock);
    for (std::uint64_t near = box.admits(pts, begin, end); near != 0; near &= near - 1) {
      const std::size_t i = begin + static_cast<std::size_t>(std::countr_zero(near));
      if (i == subject || i == gate.i1 || i == gate.i2) continue;
      if (geom::point_segment_distance(path, pts[i]) <= corridor) return false;
    }
  }
  return true;
}

/// First plan (for the robot at pts[subject], usually the observer at 0)
/// whose approach corridor is free of parked robots: nobody may sit
/// essentially ON the straight path (grazing guard; a robot exactly on the
/// path would be run over). Gate anchors are at the edge ends, outside the
/// central approach band, so they never trip this. Used both for the
/// observer's own decision and — with the same logic, for estimate
/// consistency — to model a rival's plan. `plans` is scratch space.
std::optional<ExitPlan> first_clear_plan(const GateTable& table, std::size_t subject,
                                         std::vector<ExitPlan>& plans) {
  const std::span<const Vec2> pts = table.view().pts;
  const geom::Vec2 from = pts[subject];
  table.plan_exits(from, plans);
  if (plans.empty()) return std::nullopt;
  // Corridor width scales with the LOCAL packing (distance to the nearest
  // visible robot): wide enough to rule out grazing a parked robot, narrow
  // enough that dense configurations still admit many concurrent plans.
  // (Scaling it with the gate edge length instead throttles global
  // throughput to a constant — the hull edges are huge early on.)
  const double nearest_sq = nearest_sq_of(pts, subject);
  const double corridor =
      std::isfinite(nearest_sq) ? 0.05 * std::sqrt(nearest_sq) : 0.0;
  for (const ExitPlan& plan : plans) {
    if (corridor_clear(pts, geom::Segment{from, plan.target}, corridor, subject,
                       plan.gate)) {
      return plan;
    }
  }
  return std::nullopt;
}

/// The arbitration prefilter's skip test,
///   gap > (table.nearest_edge_distance(p) + quarter_edge) + slack,
/// decided without the O(h) exact minimum. The minimum is >= 0, so
/// gap <= quarter_edge + slack keeps the rival; it is <= every edge's
/// distance d_k, so gap > (d_k + quarter_edge) + slack at any edge skips it.
/// Rounded addition is monotone, so neither bound can flip the comparison.
/// An edge can only skip the rival if its certified lower bound b_k <= d_k
/// passes the same test, so a branch-free pass over the bounds picks the
/// edges that take the exact test; a rival none of them skips is kept.
/// `edge` is tried first — the edge that skipped the previous rival, since
/// neighbours tend to be skipped by the same edge — and is left at the edge
/// that skipped this one.
bool out_of_reach(const GateTable& table, geom::Vec2 p, double gap,
                  double quarter_edge, double slack, std::size_t& edge) {
  if (gap <= quarter_edge + slack) return false;
  const auto skips = [&](std::size_t k) {
    return gap > (geom::point_segment_distance(table.edge(k), p) + quarter_edge) + slack;
  };
  if (skips(edge)) return true;
  const double bound_slack = table.bound_slack(p, gap);
  const std::size_t h = table.edge_count();
  for (std::size_t begin = 0; begin < h; begin += kBlock) {
    const std::size_t end = std::min(h, begin + kBlock);
    std::uint64_t maybe = 0;
    for (std::size_t k = begin; k < end; ++k) {
      const double bound = table.distance_bound(k, p, bound_slack);
      maybe |= std::uint64_t{!(gap <= (bound + quarter_edge) + slack)} << (k - begin);
    }
    for (; maybe != 0; maybe &= maybe - 1) {
      const std::size_t k = begin + static_cast<std::size_t>(std::countr_zero(maybe));
      if (skips(k)) {
        edge = k;
        return true;
      }
    }
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
      const GateTable table(view);
      std::vector<ExitPlan> plans;
      auto plan = first_clear_plan(table, 0, plans);
      // Fallback for the rare observer whose perpendicular foot misses the
      // central band of EVERY eligible gate (it sits in the notch behind a
      // hull vertex): the diagonal λ-squash insertion at the nearest gate.
      const bool fallback = !plan.has_value();
      if (fallback) plan = insertion_plan(view, table.nearest_gate(view.self()));
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
        const double own = table.nearest_edge_distance(view.self());
        for (std::size_t i = 1; i < view.pts.size(); ++i) {
          if (view.lights[i] == Light::kMoving) return Action::stay(Light::kTransit);
          if (view.lights[i] == Light::kTransit &&
              table.nearest_edge_distance(view.pts[i]) <= own) {
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
      const double quarter_edge = 0.25 * table.longest_edge();
      const double slack = 0.1 * plan->exit_distance;
      std::size_t skip_edge = 0;
      for (std::size_t i = 1; i < view.pts.size(); ++i) {
        const Light light = view.lights[i];
        if (light != Light::kTransit && light != Light::kMoving) continue;
        const Vec2 rival = view.pts[i];
        const double gap = geom::point_segment_distance(my_path, rival);
        if (out_of_reach(table, rival, gap, quarter_edge, slack, skip_edge)) continue;
        // A robot in flight close to my intended path is a hazard no matter
        // what its (unknowable) destination is — yield on position alone.
        if (light == Light::kMoving && gap <= 0.03 * plan->exit_distance) {
          return Action::stay(Light::kTransit);
        }
        // Model the rival with the SAME planner the rival itself runs, so
        // both parties arbitrate on (approximately) the same two paths.
        const auto rival_plan = first_clear_plan(table, i, plans);
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
