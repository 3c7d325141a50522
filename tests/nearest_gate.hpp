// Test helper: the hull edge nearest to the observer, the gate candidate the
// insertion and blocking tests hand to core's gate geometry. The algorithms
// pick their gates privately (with eligibility filters of their own), so the
// tests pick theirs here.
#pragma once

#include "core/view.hpp"
#include "geom/segment.hpp"

#include <optional>

namespace lumen::testutil {

/// The view's hull edge nearest to the observer (ties keep the first edge
/// in hull order). Empty when the view has no 2-D hull.
inline std::optional<core::GateEdge> nearest_gate(const core::LocalView& view) {
  const std::size_t h = view.hull.size();
  if (h < 3) return std::nullopt;
  std::optional<core::GateEdge> best;
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    const geom::Segment e{view.pts[i1], view.pts[i2]};
    const double d = geom::point_segment_distance(e, view.self());
    if (!best || d < best->distance) best = core::GateEdge{i1, i2, e.a, e.b, d, k};
  }
  return best;
}

}  // namespace lumen::testutil
