// lumen_model: private local coordinate frames.
//
// Robots share no compass, no origin, no unit length, and not even
// handedness. Each robot perceives the world through a private similarity
// transform (rotation + uniform scale + translation, optionally composed
// with a reflection). Snapshots are delivered to algorithms in LOCAL
// coordinates and the returned move target is mapped back — so an algorithm
// that is not invariant under similarities will visibly misbehave, and the
// frame-randomization tests catch it.
#pragma once

#include "geom/vec2.hpp"

namespace lumen::util {
class Prng;
}

namespace lumen::model {

/// Orientation-preserving-or-reversing similarity transform.
/// world -> local:  p_local = S * R * (p_world - origin)   (then y-flip if
/// reflected), with S = uniform scale, R = rotation.
class LocalFrame {
 public:
  /// Identity frame (local == world).
  LocalFrame() = default;

  /// `origin_world`: the world point that maps to local (0,0).
  /// `rotation`: radians; `scale`: local units per world unit (> 0);
  /// `reflected`: flips local y (left-handed frame).
  LocalFrame(geom::Vec2 origin_world, double rotation, double scale, bool reflected);

  /// Uniformly random frame centered at `origin_world`: rotation in [0,2pi),
  /// scale log-uniform in [0.25, 4], reflection with probability 1/2.
  static LocalFrame random(geom::Vec2 origin_world, util::Prng& rng);

  /// Inline: fill_snapshot maps every visible robot through it.
  [[nodiscard]] geom::Vec2 to_local(geom::Vec2 world) const noexcept {
    return direction_to_local(world - origin_);
  }
  [[nodiscard]] geom::Vec2 to_world(geom::Vec2 local) const noexcept;

  /// Maps a world-space displacement (no translation applied).
  [[nodiscard]] geom::Vec2 direction_to_local(geom::Vec2 d) const noexcept {
    geom::Vec2 r{(cos_ * d.x + sin_ * d.y) * scale_,
                 (-sin_ * d.x + cos_ * d.y) * scale_};
    if (reflected_) r.y = -r.y;
    return r;
  }
  [[nodiscard]] geom::Vec2 direction_to_world(geom::Vec2 local_dir) const noexcept;

  [[nodiscard]] geom::Vec2 origin() const noexcept { return origin_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }
  [[nodiscard]] bool reflected() const noexcept { return reflected_; }

 private:
  geom::Vec2 origin_{};
  double cos_ = 1.0;
  double sin_ = 0.0;
  double scale_ = 1.0;
  bool reflected_ = false;
};

}  // namespace lumen::model
