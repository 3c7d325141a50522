#include "core/ssync_parallel.hpp"

#include "core/beacon.hpp"
#include "core/view.hpp"

namespace lumen::core {

using model::Action;
using model::Light;

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
      // The nearest hull edge, Corner-lit or not: atomic rounds make hull
      // vertices trustworthy anchors by themselves.
      const auto plan = insertion_plan(view, GateTable(view).nearest_edge(view.self()));
      if (!plan) return Action::stay(Light::kInterior);
      return Action::move_to(plan->target, Light::kTransit);
    }
  }
  return Action::stay(snap.self_light);
}

std::span<const model::Light> SsyncParallel::palette() const noexcept {
  return model::kAllLights;
}

}  // namespace lumen::core
