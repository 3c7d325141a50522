// lumen_core: the O(N)-time baseline (claim C5).
//
// The paper motivates its contribution against the naive translation of the
// semi-synchronous O(1) algorithm into the asynchronous model: without the
// atomic-round guarantee, the translation must serialize movers — a robot
// moves only when it believes it is THE unique mover — costing Theta(N)
// epochs. This class implements exactly that translation over the same
// geometric rules as CompleteVisibilityAsync: identical classification and
// the same GateTable calls (an interior mover takes insertion_plan at
// nearest_gate, async-log's fallback insertion), but the beacon handshake
// is replaced by a global mutual exclusion: defer if ANY Transit light is
// visible anywhere, and move only as the robot strictly closest to the
// hull boundary among the visible robots that are neither Corner-lit nor
// hull vertices. One robot is fixed per O(1) epochs -> Theta(N) total.
#pragma once

#include "model/algorithm.hpp"

namespace lumen::core {

class SequentialAsyncBaseline final : public model::Algorithm {
 public:
  [[nodiscard]] model::Action compute(const model::Snapshot& snap) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "seq-baseline";
  }
  [[nodiscard]] std::span<const model::Light> palette() const noexcept override;
};

}  // namespace lumen::core
