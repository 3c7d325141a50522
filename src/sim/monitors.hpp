// lumen_sim: execution monitors — the machine-checkable counterparts of the
// paper's safety theorems.
//
// The collision monitor verifies claim C4 on the CONTINUOUS motion: for
// every pair of robots and every instant, positions stay distinct
// (closed-form closest approach between piecewise-linear trajectories, no
// sampling holes), and the swept paths of time-overlapping moves never
// cross. The convexity/visibility checks verify C1's postcondition on the
// final configuration.
#pragma once

#include "geom/vec2.hpp"
#include "sim/observer.hpp"
#include "sim/trajectory.hpp"

#include <array>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace lumen::util {
class ThreadPool;
}

namespace lumen::sim {

namespace detail {

/// A maximal interval during which a robot's motion is a single linear
/// function of time (either one MoveSegment or an idle stretch). Shared by
/// the post-hoc audit and the streaming monitor so both evaluate closest
/// approaches on bit-identical arguments.
struct Piece {
  double t0 = 0.0;
  double t1 = 0.0;
  geom::Vec2 p0{};
  geom::Vec2 p1{};
};

[[nodiscard]] geom::Vec2 piece_at(const Piece& pc, double t) noexcept;

}  // namespace detail

struct CollisionIncident {
  std::size_t robot_a = 0;
  std::size_t robot_b = 0;
  double time = 0.0;
  double separation = 0.0;
  std::string kind;  ///< "position" or "path-crossing".
};

struct CollisionReport {
  /// Minimum separation between any two robots over the whole run.
  double min_separation = std::numeric_limits<double>::infinity();
  /// Pairs that came within `collision_tolerance` (position collisions).
  std::size_t position_collisions = 0;
  /// Time-overlapping move pairs whose swept paths cross.
  std::size_t path_crossings = 0;
  std::optional<CollisionIncident> first_incident;

  [[nodiscard]] bool clean() const noexcept {
    return position_collisions == 0 && path_crossings == 0;
  }

  /// The physical collision-freedom verdict: no two robots ever coincide,
  /// and the global closest approach stays at or above `delta` (robots are
  /// points; delta is the near-miss threshold the benches require). Strict
  /// geometric path-disjointness is reported separately via path_crossings:
  /// time-separated traversals of crossing long-haul paths can occur in
  /// this reconstruction (DESIGN.md §7) without ever bringing two robots
  /// near each other.
  [[nodiscard]] bool hazard_free(double delta) const noexcept {
    return position_collisions == 0 && min_separation >= delta;
  }
};

/// Runs the full continuous collision audit over a recorded execution.
/// `collision_tolerance`: separations at or below it count as collisions
/// (0 flags only exact coincidence; the benches use a small positive value
/// to also catch grazing contact).
[[nodiscard]] CollisionReport check_collisions(
    std::span<const geom::Vec2> initial_positions,
    std::span<const MoveSegment> moves, double horizon,
    double collision_tolerance = 0.0);

/// Minimum distance between two linearly moving points over [t0, t1].
/// a(t) and b(t) are given by endpoint positions at t0 and t1.
/// Exposed for direct unit testing of the closed form.
[[nodiscard]] double min_distance_linear_motion(geom::Vec2 a0, geom::Vec2 a1,
                                                geom::Vec2 b0, geom::Vec2 b1,
                                                double t0, double t1,
                                                double* t_min = nullptr) noexcept;

/// Final-configuration audit for Complete Visibility (claim C1): all points
/// distinct, strictly convex position, every pair mutually visible.
struct VisibilityVerdict {
  bool distinct = false;
  bool strictly_convex = false;
  bool mutually_visible = false;

  [[nodiscard]] bool complete() const noexcept {
    return distinct && strictly_convex && mutually_visible;
  }
};

/// `mutually_visible` comes from the strict-convexity certificate when it
/// holds and from geom::compute_visibility otherwise; with a pool that sweep
/// fans observers out over the workers (bit-identical verdict for any pool
/// size).
[[nodiscard]] VisibilityVerdict verify_complete_visibility(
    std::span<const geom::Vec2> positions, util::ThreadPool* pool = nullptr);

/// The named success predicates an Algorithm may declare
/// (model::Algorithm::success_predicate), in presentation order.
[[nodiscard]] std::vector<std::string_view> success_predicate_names();

/// Evaluates the named success predicate over a final configuration:
///   "complete-visibility" — distinct + strictly convex + mutually visible
///     (the paper's C1 postcondition), decided by strict convexity alone,
///     which implies the other two;
///   "mutual-visibility"   — distinct + mutually visible, convexity not
///     required (Di Luna et al., arXiv:1405.2430).
/// Callers that want the individual bits use verify_complete_visibility.
/// Throws std::invalid_argument for unknown predicate names (lists the
/// valid ones).
struct SuccessVerdict {
  bool satisfied = false;
};

[[nodiscard]] SuccessVerdict verify_success(std::string_view predicate,
                                            std::span<const geom::Vec2> positions,
                                            util::ThreadPool* pool = nullptr);

class StreamingCollisionMonitor;

/// Collision auditing with fault attribution: wraps a
/// StreamingCollisionMonitor and blames every new incident on the fault
/// channel most recently seen active via on_fault (kNone before any fault
/// fires). Attribution is a heuristic diagnosis — the injected fault that
/// most plausibly destabilized the run — not a causal proof; on a fault-free
/// run the wrapped report is identical to a bare StreamingCollisionMonitor's.
class SafetyMonitor final : public RunObserver {
 public:
  /// `collision_tolerance` forwards to the wrapped monitor.
  explicit SafetyMonitor(double collision_tolerance = 0.0);
  ~SafetyMonitor() override;

  void on_run_begin(const WorldView& world) override;
  void on_fault(const fault::FaultEvent& event, const WorldView& world) override;
  void on_commit(const CommitEvent& event, const WorldView& world) override;
  void on_move_complete(const MoveSegment& move, const WorldView& world) override;
  void on_run_end(const WorldView& world) override;

  /// The wrapped audit verdict; complete once on_run_end has fired.
  [[nodiscard]] const CollisionReport& report() const noexcept;

  /// The channel with the most attributed incidents (ties broken toward the
  /// earlier enum value); kNone when the run is incident-free.
  [[nodiscard]] fault::FaultChannel dominant_channel() const noexcept;

 private:
  /// Attributes incidents the wrapped monitor found since the last call.
  void absorb();

  std::unique_ptr<StreamingCollisionMonitor> inner_;
  fault::FaultChannel last_channel_ = fault::FaultChannel::kNone;
  std::array<std::size_t, 4> attributed_{};  ///< Indexed by FaultChannel.
  std::size_t seen_incidents_ = 0;
};

}  // namespace lumen::sim
