// lumen_sim: the hot simulation state, structure-of-arrays.
//
// WorldState is the single owner of everything a Look touches per robot:
// split x/y coordinate arrays (so the visibility kernel streams doubles
// instead of gathering Vec2 pairs), the packed light array, and the
// `moving` DynamicBitset (set while a move segment is in flight). The
// committed position arrays change at exactly one point, set_position
// (ExecutionCore::complete_move), which also appends the robot to
// `write_log`: entry k of the log is the robot whose committed position was
// the (k+1)-th write of the run. The incremental visibility cache keys
// its per-observer dirty sets on log suffixes — "everything written since I
// was last rebuilt" — so a cache entry is validated in O(#writes since)
// instead of O(N) (see geom::VisibilityCache).
#pragma once

#include "geom/vec2.hpp"
#include "model/light.hpp"
#include "util/bitset.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lumen::sim {

class WorldState {
 public:
  /// Rebinds to a swarm: committed positions from `initial`, all lights
  /// kOff, nobody moving, empty write log.
  void reset(std::span<const geom::Vec2> initial) {
    const std::size_t n = initial.size();
    xs_.resize(n);
    ys_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs_[i] = initial[i].x;
      ys_[i] = initial[i].y;
    }
    lights_.assign(n, model::Light::kOff);
    moving_.assign(n, false);
    moving_count_ = 0;
    write_log_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }

  [[nodiscard]] std::span<const double> xs() const noexcept { return xs_; }
  [[nodiscard]] std::span<const double> ys() const noexcept { return ys_; }
  [[nodiscard]] std::span<const model::Light> lights() const noexcept {
    return lights_;
  }
  [[nodiscard]] geom::Vec2 position(std::size_t i) const noexcept {
    return geom::Vec2{xs_[i], ys_[i]};
  }
  [[nodiscard]] model::Light light(std::size_t i) const noexcept {
    return lights_[i];
  }
  void set_light(std::size_t i, model::Light l) noexcept { lights_[i] = l; }

  /// Commits a new position for robot i and logs the write. The ONLY
  /// mutation point of the coordinate arrays after reset.
  void set_position(std::size_t i, geom::Vec2 p) {
    xs_[i] = p.x;
    ys_[i] = p.y;
    write_log_.push_back(static_cast<std::uint32_t>(i));
  }

  /// The robots written so far, in write order; write_log()[v..] are the
  /// robots written after a snapshot taken when the log held v entries.
  [[nodiscard]] std::span<const std::uint32_t> write_log() const noexcept {
    return write_log_;
  }

  // -- In-flight move bits ---------------------------------------------------

  [[nodiscard]] bool is_moving(std::size_t i) const noexcept {
    return moving_.test(i);
  }
  [[nodiscard]] std::size_t moving_count() const noexcept {
    return moving_count_;
  }
  [[nodiscard]] const util::DynamicBitset& moving() const noexcept {
    return moving_;
  }
  void begin_move(std::size_t i) noexcept {
    moving_.set(i);
    ++moving_count_;
  }
  void end_move(std::size_t i) noexcept {
    moving_.reset(i);
    --moving_count_;
  }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<model::Light> lights_;
  util::DynamicBitset moving_;
  std::size_t moving_count_ = 0;
  std::vector<std::uint32_t> write_log_;
};

}  // namespace lumen::sim
