#include "core/baseline_sequential.hpp"

#include "core/beacon.hpp"
#include "core/view.hpp"

#include <algorithm>

namespace lumen::core {

using model::Action;
using model::Light;

namespace {

/// The serialization test: the observer moves only if it is strictly the
/// closest-to-boundary robot among every visible non-corner robot. This is
/// how the SSYNC algorithm's "everyone moves" becomes "one at a time" when
/// atomic rounds are gone.
bool is_unique_candidate(const GateTable& table) {
  const LocalView& view = table.view();
  const double own = table.nearest_edge_distance(view.self());
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
    if (table.nearest_edge_distance(view.pts[i]) <= own) return false;
  }
  return true;
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
      if (!is_unique_candidate(GateTable(view))) return Action::stay(Light::kSide);
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
      const GateTable table(view);
      if (!is_unique_candidate(table)) return Action::stay(Light::kInterior);
      const auto plan = insertion_plan(view, table.nearest_gate(view.self()));
      if (!plan) return Action::stay(Light::kInterior);
      return Action::move_to(plan->target, Light::kTransit);
    }
  }
  return Action::stay(snap.self_light);
}

std::span<const model::Light> SequentialAsyncBaseline::palette() const noexcept {
  return model::kAllLights;
}

}  // namespace lumen::core
