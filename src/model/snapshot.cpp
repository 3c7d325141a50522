#include "model/snapshot.hpp"

#include "geom/visibility.hpp"

namespace lumen::model {

std::size_t Snapshot::count_light(Light l) const noexcept {
  std::size_t c = 0;
  for (std::size_t k = 1; k < lights.size(); ++k) {
    if (lights[k] == l) ++c;
  }
  return c;
}

void build_snapshot(std::span<const double> xs, std::span<const double> ys,
                    std::span<const Light> lights, std::size_t observer,
                    const LocalFrame& frame, SnapshotScratch& scratch,
                    Snapshot& out) {
  geom::visible_from(xs, ys, observer, scratch.visibility,
                     scratch.visible_ids);
  fill_snapshot(xs, ys, lights, observer, scratch.visible_ids, frame, out);
}

void fill_snapshot(std::span<const double> xs, std::span<const double> ys,
                   std::span<const Light> lights, std::size_t observer,
                   std::span<const std::size_t> visible_ids,
                   const LocalFrame& frame, Snapshot& out) {
  out.reset(lights[observer]);
  out.positions.reserve(visible_ids.size() + 1);
  out.lights.reserve(visible_ids.size() + 1);
  for (const std::size_t j : visible_ids) {
    out.push_visible(frame.to_local(geom::Vec2{xs[j], ys[j]}), lights[j]);
  }
}

}  // namespace lumen::model
