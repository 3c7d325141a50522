// lumen_core: the semi-synchronous comparator.
//
// Under SSYNC atomicity (all activated robots observe the same configuration
// and their moves commit before anyone looks again) no beacon handshake is
// needed: every eligible non-corner robot can move at once. This class is
// the cv_async rule set with every Transit-based deferral removed — the
// algorithm whose naive ASYNC translation the paper's baseline (and our
// SequentialAsyncBaseline) represents. It shares their geometry through
// the same calls: an interior robot takes insertion_plan at the GateTable's
// nearest_edge (any hull edge: atomic rounds make hull vertices anchors
// without a Corner light).
//
// Two uses in the benches:
//  * under FSYNC/SSYNC it converges in few rounds (the speed reference);
//  * run (incorrectly) under ASYNC it exhibits the path-crossing and
//    position-collision incidents that the handshake exists to prevent —
//    the ablation behind DESIGN.md claim C4.
#pragma once

#include "model/algorithm.hpp"

namespace lumen::core {

class SsyncParallel final : public model::Algorithm {
 public:
  [[nodiscard]] model::Action compute(const model::Snapshot& snap) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "ssync-parallel";
  }
  [[nodiscard]] std::span<const model::Light> palette() const noexcept override;
};

}  // namespace lumen::core
