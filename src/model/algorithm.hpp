// lumen_model: the algorithm interface of the robots-with-lights model.
//
// An Algorithm is the Compute phase: a PURE function from a Snapshot to an
// Action (stay or move to a local-frame target, plus the next light color).
// Instances are shared across all robots and all activations — they carry no
// per-robot state, which is exactly the obliviousness the model demands.
#pragma once

#include "geom/vec2.hpp"
#include "model/light.hpp"
#include "model/snapshot.hpp"
#include "util/strings.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

namespace lumen::model {

/// The space an algorithm's Move phase operates in. Declared per algorithm;
/// the engine adapts its commit path accordingly (see DESIGN.md §14):
///  * kContinuous — the classic plane: targets are taken verbatim and moves
///    travel the straight segment to them.
///  * kGrid — the integer lattice (Kim & Katayama, arXiv:2306.08354):
///    the engine snaps initial positions and world-frame targets to the
///    nearest lattice point and each committed move travels ONE full axis
///    leg (dominant axis first), so trajectories are rectilinear and every
///    committed configuration is lattice-valued. The motion adversary does
///    not apply (grid moves are rigid by definition).
enum class MotionModel : std::uint8_t { kContinuous, kGrid };

inline constexpr auto kMotionModelNames = std::to_array<util::Named<MotionModel>>({
    {MotionModel::kContinuous, "continuous"},
    {MotionModel::kGrid, "grid"},
});

[[nodiscard]] constexpr std::string_view to_string(MotionModel m) noexcept {
  return util::name_of(kMotionModelNames, m);
}

/// Result of one Compute: where to go (local frame) and what to show.
struct Action {
  geom::Vec2 target;          ///< Local-frame destination; origin means stay.
  Light light = Light::kOff;  ///< Color to display from now on.

  [[nodiscard]] bool moves() const noexcept { return target != geom::Vec2{}; }

  static Action stay(Light light) noexcept { return {geom::Vec2{}, light}; }
  static Action move_to(geom::Vec2 target, Light light) noexcept {
    return {target, light};
  }
};

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  /// The Compute phase. Must be deterministic in `snap` alone.
  [[nodiscard]] virtual Action compute(const Snapshot& snap) const = 0;

  /// Stable identifier used in tables and the registry.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// The colors this algorithm may ever emit (its O(1) palette). The color
  /// audit monitor checks executions against this set.
  [[nodiscard]] virtual std::span<const Light> palette() const noexcept = 0;

  /// The motion space this algorithm's targets live in. The engine gates its
  /// commit path on this; continuous algorithms take the exact historical
  /// code path (golden digests are bit-identical).
  [[nodiscard]] virtual MotionModel motion_model() const noexcept {
    return MotionModel::kContinuous;
  }

  /// The named success predicate a converged configuration is audited
  /// against (resolved by sim::verify_success): "complete-visibility"
  /// (distinct + strictly convex + mutually visible — the paper's C1) or
  /// "mutual-visibility" (distinct + mutually visible, no convexity
  /// requirement — Di Luna et al., arXiv:1405.2430).
  [[nodiscard]] virtual std::string_view success_predicate() const noexcept {
    return "complete-visibility";
  }
};

using AlgorithmPtr = std::shared_ptr<const Algorithm>;

}  // namespace lumen::model
