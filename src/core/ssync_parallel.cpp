#include "core/ssync_parallel.hpp"

#include "core/beacon.hpp"
#include "core/view.hpp"
#include "geom/segment.hpp"

#include <limits>

namespace lumen::core {

using model::Action;
using model::Light;

namespace {

/// Nearest hull edge not incident to the observer. Unlike the ASYNC
/// algorithm, endpoints need not be Corner-lit: atomic rounds make hull
/// vertices trustworthy anchors by themselves.
std::optional<GateEdge> nearest_gate(const LocalView& view) {
  const std::size_t h = view.hull.size();
  if (h < 3) return std::nullopt;
  std::optional<GateEdge> best;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    if (i1 == 0 || i2 == 0) continue;
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

Action SsyncParallel::compute(const model::Snapshot& snap) const {
  const LocalView view = build_view(snap);
  switch (view.role) {
    case Role::kAlone:
      return Action::stay(Light::kCorner);
    case Role::kLineEnd:
      return Action::stay(Light::kLineEnd);
    case Role::kLine:
      return Action::move_to(line_escape_target(view), Light::kLine);
    case Role::kCorner:
      return Action::stay(Light::kCorner);

    case Role::kSide: {
      const auto gate = containing_hull_edge(view);
      if (!gate) return Action::stay(Light::kSide);
      const auto target = side_popout_target(view, *gate);
      if (!target) return Action::stay(Light::kSide);
      return Action::move_to(*target, Light::kTransit);
    }

    case Role::kInterior: {
      const auto gate = nearest_gate(view);
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

std::span<const model::Light> SsyncParallel::palette() const noexcept {
  return model::kAllLights;
}

}  // namespace lumen::core
