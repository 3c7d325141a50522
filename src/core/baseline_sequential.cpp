#include "core/baseline_sequential.hpp"

#include "core/beacon.hpp"
#include "core/view.hpp"
#include "geom/hull.hpp"
#include "geom/segment.hpp"

#include <algorithm>
#include <limits>

namespace lumen::core {

using geom::Vec2;
using model::Action;
using model::Light;

namespace {

/// Distance from p to the nearest edge of the view's hull.
double distance_to_hull_boundary(const LocalView& view, Vec2 p) {
  const std::size_t h = view.hull.size();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < h; ++k) {
    const geom::Segment e{view.pts[view.hull[k]], view.pts[view.hull[(k + 1) % h]]};
    best = std::min(best, geom::point_segment_distance(e, p));
  }
  return best;
}

/// The serialization test: the observer moves only if it is strictly the
/// closest-to-boundary robot among every visible non-corner robot. This is
/// how the SSYNC algorithm's "everyone moves" becomes "one at a time" when
/// atomic rounds are gone.
bool is_unique_candidate(const LocalView& view) {
  const double own = distance_to_hull_boundary(view, view.self());
  for (std::size_t i = 1; i < view.pts.size(); ++i) {
    if (view.lights[i] == Light::kCorner) continue;
    // Hull vertices other than self are prospective corners, not rivals.
    bool is_hull_vertex = false;
    for (const std::size_t k : view.hull) {
      if (k == i) {
        is_hull_vertex = true;
        break;
      }
    }
    if (is_hull_vertex) continue;
    if (distance_to_hull_boundary(view, view.pts[i]) <= own) return false;
  }
  return true;
}

std::optional<GateEdge> nearest_corner_lit_edge(const LocalView& view) {
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
  return best;
}

}  // namespace

Action SequentialAsyncBaseline::compute(const model::Snapshot& snap) const {
  const LocalView view = build_view(snap);
  switch (view.role) {
    case Role::kAlone:
      return Action::stay(Light::kCorner);
    case Role::kLineEnd:
      return Action::stay(Light::kLineEnd);
    case Role::kLine:
      // Line escape is inherently safe; even the baseline does it in
      // parallel (otherwise a collinear start would already cost O(N)).
      return Action::move_to(line_escape_target(view), Light::kLine);
    case Role::kCorner:
      return Action::stay(Light::kCorner);

    case Role::kSide: {
      // Global mutual exclusion: any Transit anywhere defers.
      if (view.lights.end() !=
          std::find(view.lights.begin() + 1, view.lights.end(), Light::kTransit)) {
        return Action::stay(Light::kSide);
      }
      if (!is_unique_candidate(view)) return Action::stay(Light::kSide);
      const auto gate = containing_hull_edge(view);
      if (!gate) return Action::stay(Light::kSide);
      const auto target = side_popout_target(view, *gate);
      if (!target) return Action::stay(Light::kSide);
      return Action::move_to(*target, Light::kTransit);
    }

    case Role::kInterior: {
      if (view.lights.end() !=
          std::find(view.lights.begin() + 1, view.lights.end(), Light::kTransit)) {
        return Action::stay(Light::kInterior);
      }
      if (!is_unique_candidate(view)) return Action::stay(Light::kInterior);
      const auto gate = nearest_corner_lit_edge(view);
      if (!gate) return Action::stay(Light::kInterior);
      if (gate_blocked_by_closer_robot(view, *gate)) {
        return Action::stay(Light::kInterior);
      }
      const auto target = interior_insertion_target(view, *gate);
      if (!target) return Action::stay(Light::kInterior);
      return Action::move_to(*target, Light::kTransit);
    }
  }
  return Action::stay(snap.self_light);
}

std::span<const model::Light> SequentialAsyncBaseline::palette() const noexcept {
  return model::kAllLights;
}

}  // namespace lumen::core
