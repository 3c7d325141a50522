#include "model/frame.hpp"

#include "util/prng.hpp"

#include <cmath>
#include <numbers>

namespace lumen::model {

LocalFrame::LocalFrame(geom::Vec2 origin_world, double rotation, double scale,
                       bool reflected)
    : origin_(origin_world),
      cos_(std::cos(rotation)),
      sin_(std::sin(rotation)),
      scale_(scale),
      reflected_(reflected) {}

LocalFrame LocalFrame::random(geom::Vec2 origin_world, util::Prng& rng) {
  const double rotation = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double log_scale = rng.uniform(-2.0, 2.0);  // scale in [1/4, 4]
  const double scale = std::exp2(log_scale);
  const bool reflected = rng.bernoulli(0.5);
  return LocalFrame{origin_world, rotation, scale, reflected};
}

geom::Vec2 LocalFrame::to_world(geom::Vec2 local) const noexcept {
  return origin_ + direction_to_world(local);
}

geom::Vec2 LocalFrame::direction_to_world(geom::Vec2 d) const noexcept {
  geom::Vec2 v = d;
  if (reflected_) v.y = -v.y;
  v = v / scale_;
  return {cos_ * v.x - sin_ * v.y, sin_ * v.x + cos_ * v.y};
}

}  // namespace lumen::model
