#include "sim/monitors.hpp"

#include "geom/hull.hpp"
#include "geom/segment.hpp"
#include "geom/visibility.hpp"
#include "sim/streaming_collision.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lumen::sim {

double min_distance_linear_motion(geom::Vec2 a0, geom::Vec2 a1, geom::Vec2 b0,
                                  geom::Vec2 b1, double t0, double t1,
                                  double* t_min) noexcept {
  // Relative motion: d(t) = (a0-b0) + s(t) * ((a1-b1) - (a0-b0)),
  // s in [0, 1]. |d|^2 is a convex quadratic in s.
  const geom::Vec2 d0 = a0 - b0;
  const geom::Vec2 d1 = a1 - b1;
  const geom::Vec2 v = d1 - d0;
  const double vv = geom::norm_sq(v);
  double s_best = 0.0;
  if (vv > 0.0) s_best = std::clamp(-geom::dot(d0, v) / vv, 0.0, 1.0);
  const double dist_best = geom::norm(d0 + v * s_best);
  // Endpoints could tie with interior minimizer; quadratic convexity makes
  // the clamped critical point globally optimal already.
  if (t_min != nullptr) *t_min = t0 + s_best * (t1 - t0);
  return dist_best;
}

namespace detail {

geom::Vec2 piece_at(const Piece& pc, double t) noexcept {
  if (pc.t1 <= pc.t0) return pc.p0;
  const double s = std::clamp((t - pc.t0) / (pc.t1 - pc.t0), 0.0, 1.0);
  return geom::lerp(pc.p0, pc.p1, s);
}

}  // namespace detail

namespace {

using detail::Piece;
using detail::piece_at;

std::vector<Piece> pieces_of(const Trajectory& traj, double horizon) {
  std::vector<Piece> pieces;
  double t = 0.0;
  geom::Vec2 p = traj.initial();
  for (const auto& m : traj.moves()) {
    if (m.t0 > t) pieces.push_back({t, m.t0, p, p});
    pieces.push_back({m.t0, m.t1, m.from, m.to});
    t = m.t1;
    p = m.to;
  }
  if (t < horizon) pieces.push_back({t, horizon, p, p});
  return pieces;
}

void note_incident(CollisionReport& report, std::size_t a, std::size_t b,
                   double time, double separation, const char* kind,
                   bool is_position_collision) {
  if (is_position_collision) {
    ++report.position_collisions;
  } else {
    ++report.path_crossings;
  }
  if (!report.first_incident) {
    report.first_incident = CollisionIncident{a, b, time, separation, kind};
  }
}

}  // namespace

CollisionReport check_collisions(std::span<const geom::Vec2> initial_positions,
                                 std::span<const MoveSegment> moves, double horizon,
                                 double collision_tolerance) {
  CollisionReport report;
  const std::size_t n = initial_positions.size();
  const auto trajectories = build_trajectories(initial_positions, moves);
  std::vector<std::vector<Piece>> pieces(n);
  for (std::size_t i = 0; i < n; ++i) {
    pieces[i] = pieces_of(trajectories[i], horizon);
  }

  // Continuous closest approach, pairwise over overlapping linear pieces.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // Merge-walk the two piece lists by time.
      std::size_t a = 0, b = 0;
      while (a < pieces[i].size() && b < pieces[j].size()) {
        const Piece& pa = pieces[i][a];
        const Piece& pb = pieces[j][b];
        const double lo = std::max(pa.t0, pb.t0);
        const double hi = std::min(pa.t1, pb.t1);
        if (lo <= hi) {
          double t_at = lo;
          const double d = min_distance_linear_motion(
              piece_at(pa, lo), piece_at(pa, hi), piece_at(pb, lo), piece_at(pb, hi),
              lo, hi, &t_at);
          if (d < report.min_separation) report.min_separation = d;
          if (d <= collision_tolerance) {
            note_incident(report, i, j, t_at, d, "position", true);
          }
        }
        if (pa.t1 <= pb.t1) {
          ++a;
        } else {
          ++b;
        }
      }
    }
  }

  // Path-crossing audit among time-overlapping moves (the paper's second
  // collision-freedom condition). Zero-length moves are skipped.
  for (std::size_t x = 0; x < moves.size(); ++x) {
    for (std::size_t y = x + 1; y < moves.size(); ++y) {
      const MoveSegment& mx = moves[x];
      const MoveSegment& my = moves[y];
      if (mx.robot == my.robot) continue;
      const bool overlap = std::max(mx.t0, my.t0) <= std::min(mx.t1, my.t1);
      if (!overlap) continue;
      if (mx.from == mx.to || my.from == my.to) continue;
      if (geom::segments_cross(geom::Segment{mx.from, mx.to},
                               geom::Segment{my.from, my.to})) {
        note_incident(report, mx.robot, my.robot, std::max(mx.t0, my.t0), 0.0,
                      "path-crossing", false);
      }
    }
  }
  return report;
}

VisibilityVerdict verify_complete_visibility(std::span<const geom::Vec2> positions,
                                             util::ThreadPool* pool) {
  VisibilityVerdict verdict;
  std::vector<geom::Vec2> sorted(positions.begin(), positions.end());
  std::sort(sorted.begin(), sorted.end());
  verdict.distinct =
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
  verdict.strictly_convex = geom::points_in_strictly_convex_position(positions);
  // Strictly convex position certifies mutual visibility exactly (see
  // geom/hull.hpp), and coincident robots never see each other, so only a
  // distinct, non-convex set needs the visibility graph.
  verdict.mutually_visible =
      verdict.strictly_convex ||
      (verdict.distinct && geom::compute_visibility(positions, pool).complete());
  return verdict;
}

std::vector<std::string_view> success_predicate_names() {
  return {"complete-visibility", "mutual-visibility"};
}

SuccessVerdict verify_success(std::string_view predicate,
                              std::span<const geom::Vec2> positions,
                              util::ThreadPool* pool) {
  if (predicate == "complete-visibility") {
    // Strictly convex position implies distinct and mutually visible.
    return {geom::points_in_strictly_convex_position(positions)};
  }
  if (predicate == "mutual-visibility") {
    const VisibilityVerdict v = verify_complete_visibility(positions, pool);
    return {v.distinct && v.mutually_visible};
  }
  std::string msg = "unknown success predicate '";
  msg += predicate;
  msg += "'; valid:";
  for (const auto n : success_predicate_names()) {
    msg += ' ';
    msg += n;
  }
  throw std::invalid_argument(msg);
}

// ---------------------------------------------------------------------------
// SafetyMonitor
// ---------------------------------------------------------------------------

SafetyMonitor::SafetyMonitor(double collision_tolerance)
    : inner_(std::make_unique<StreamingCollisionMonitor>(collision_tolerance)) {}

SafetyMonitor::~SafetyMonitor() = default;

void SafetyMonitor::absorb() {
  const CollisionReport& r = inner_->report();
  const std::size_t total = r.position_collisions + r.path_crossings;
  if (total > seen_incidents_) {
    attributed_[static_cast<std::size_t>(last_channel_)] +=
        total - seen_incidents_;
    seen_incidents_ = total;
  }
}

void SafetyMonitor::on_run_begin(const WorldView& world) {
  inner_->on_run_begin(world);
}

void SafetyMonitor::on_fault(const fault::FaultEvent& event, const WorldView&) {
  last_channel_ = event.channel;
}

void SafetyMonitor::on_commit(const CommitEvent& event, const WorldView& world) {
  inner_->on_commit(event, world);
  absorb();
}

void SafetyMonitor::on_move_complete(const MoveSegment& move,
                                     const WorldView& world) {
  inner_->on_move_complete(move, world);
  absorb();
}

void SafetyMonitor::on_run_end(const WorldView& world) {
  inner_->on_run_end(world);
  absorb();
}

const CollisionReport& SafetyMonitor::report() const noexcept {
  return inner_->report();
}

fault::FaultChannel SafetyMonitor::dominant_channel() const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < attributed_.size(); ++i) {
    if (attributed_[i] > attributed_[best]) best = i;
  }
  if (attributed_[best] == 0) return fault::FaultChannel::kNone;
  return static_cast<fault::FaultChannel>(best);
}

}  // namespace lumen::sim
