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
  // Sized once and written by index: no per-point capacity check. The
  // inlined transform reads a local copy of the frame, which the stores
  // below cannot alias, so the loop keeps it in registers.
  const std::size_t m = visible_ids.size();
  out.self_light = lights[observer];
  out.positions.resize(m + 1);
  out.lights.resize(m + 1);
  geom::Vec2* const positions = out.positions.data();
  Light* const out_lights = out.lights.data();
  positions[0] = Snapshot::self_position();
  out_lights[0] = out.self_light;
  const LocalFrame local_frame = frame;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t j = visible_ids[k];
    positions[k + 1] = local_frame.to_local(geom::Vec2{xs[j], ys[j]});
    out_lights[k + 1] = lights[j];
  }
}

}  // namespace lumen::model
