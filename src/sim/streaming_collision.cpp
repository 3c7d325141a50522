#include "sim/streaming_collision.hpp"

#include "geom/segment.hpp"

#include <algorithm>
#include <limits>

namespace lumen::sim {

void StreamingCollisionMonitor::on_run_begin(const WorldView& world) {
  robots_.assign(world.size(), RobotState{});
  for (std::size_t i = 0; i < world.size(); ++i) {
    robots_[i].idle_pos = world.position(i);
  }
  report_ = CollisionReport{};
  sealed_ = false;
  last_channel_ = fault::FaultChannel::kNone;
  attributed_ = {};
}

void StreamingCollisionMonitor::on_fault(const fault::FaultEvent& event,
                                         const WorldView&) {
  last_channel_ = event.channel;
}

void StreamingCollisionMonitor::on_commit(const CommitEvent& event,
                                          const WorldView&) {
  if (event.move_started == nullptr) return;
  RobotState& rs = robots_[event.robot];
  const MoveSegment& move = *event.move_started;
  // The idle stretch before this move ends now; a zero-length gap produces
  // no piece (matching pieces_of's strict `m.t0 > t`).
  if (move.t0 > rs.open_start) {
    close_piece(event.robot,
                detail::Piece{rs.open_start, move.t0, rs.idle_pos, rs.idle_pos},
                /*is_move=*/false);
  }
  rs.in_flight = true;
  rs.flight = move;
  rs.open_start = move.t0;
  prune();
}

void StreamingCollisionMonitor::on_move_complete(const MoveSegment& move,
                                                 const WorldView&) {
  RobotState& rs = robots_[move.robot];
  close_piece(move.robot, detail::Piece{move.t0, move.t1, move.from, move.to},
              /*is_move=*/true);
  rs.in_flight = false;
  rs.idle_pos = move.to;
  rs.open_start = move.t1;
  prune();
}

void StreamingCollisionMonitor::on_run_end(const WorldView& world) {
  if (sealed_) return;
  const double horizon = world.time;
  // Close every tail in robot-index order. Pieces are only appended during
  // this sweep (no pruning), so each tail pair is evaluated exactly once.
  for (std::size_t r = 0; r < robots_.size(); ++r) {
    RobotState& rs = robots_[r];
    if (rs.in_flight) {
      // Aborted mid-move: the move never completed, so (like the post-hoc
      // audit, whose log lacks it) the robot is modelled as parked at its
      // committed position for the remainder. See header for the caveat.
      if (rs.flight.t0 < horizon) {
        close_piece(r, detail::Piece{rs.flight.t0, horizon, rs.flight.from,
                                     rs.flight.from},
                    /*is_move=*/false);
      }
      rs.in_flight = false;
    } else if (rs.open_start < horizon) {
      close_piece(r, detail::Piece{rs.open_start, horizon, rs.idle_pos,
                                   rs.idle_pos},
                  /*is_move=*/false);
    }
  }
  sealed_ = true;
}

fault::FaultChannel StreamingCollisionMonitor::dominant_channel()
    const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < attributed_.size(); ++i) {
    if (attributed_[i] > attributed_[best]) best = i;
  }
  if (attributed_[best] == 0) return fault::FaultChannel::kNone;
  return static_cast<fault::FaultChannel>(best);
}

std::size_t StreamingCollisionMonitor::retained_pieces() const noexcept {
  std::size_t total = 0;
  for (const RobotState& rs : robots_) total += rs.closed.size();
  return total;
}

void StreamingCollisionMonitor::close_piece(std::size_t r,
                                            const detail::Piece& piece,
                                            bool is_move) {
  for (std::size_t j = 0; j < robots_.size(); ++j) {
    if (j == r) continue;
    for (const ClosedPiece& other : robots_[j].closed) {
      const detail::Piece& pb = other.piece;
      const double lo = std::max(piece.t0, pb.t0);
      const double hi = std::min(piece.t1, pb.t1);
      if (lo <= hi) {
        // Canonical pair order (i < j) so min_distance_linear_motion sees
        // the same argument order as the post-hoc merge-walk.
        const detail::Piece& pa = r < j ? piece : pb;
        const detail::Piece& pc = r < j ? pb : piece;
        double t_at = lo;
        const double d = min_distance_linear_motion(
            detail::piece_at(pa, lo), detail::piece_at(pa, hi),
            detail::piece_at(pc, lo), detail::piece_at(pc, hi), lo, hi, &t_at);
        if (d < report_.min_separation) report_.min_separation = d;
        if (d <= tolerance_) {
          note_incident(std::min(r, j), std::max(r, j), t_at, d, "position",
                        true);
        }
        // Path-crossing audit among time-overlapping moves; zero-length
        // moves are skipped (engine moves are always of positive length).
        if (is_move && other.is_move && piece.p0 != piece.p1 &&
            pb.p0 != pb.p1 &&
            geom::segments_cross(geom::Segment{piece.p0, piece.p1},
                                 geom::Segment{pb.p0, pb.p1})) {
          note_incident(r, j, lo, 0.0, "path-crossing", false);
        }
      }
    }
  }
  robots_[r].closed.push_back(ClosedPiece{piece, is_move});
}

void StreamingCollisionMonitor::prune() {
  // A closed piece can still matter only if some not-yet-closed piece can
  // reach back to it; the earliest such reach is the earliest open-piece
  // start across robots. Keep touching pieces (t1 == threshold): touching
  // windows count as overlapping (lo <= hi).
  double threshold = std::numeric_limits<double>::infinity();
  for (const RobotState& rs : robots_) {
    threshold = std::min(threshold, rs.open_start);
  }
  for (RobotState& rs : robots_) {
    while (!rs.closed.empty() && rs.closed.front().piece.t1 < threshold) {
      rs.closed.pop_front();
    }
  }
}

void StreamingCollisionMonitor::note_incident(std::size_t a, std::size_t b,
                                              double time, double separation,
                                              const char* kind,
                                              bool is_position) {
  ++attributed_[static_cast<std::size_t>(last_channel_)];
  if (is_position) {
    ++report_.position_collisions;
  } else {
    ++report_.path_crossings;
  }
  if (!report_.first_incident) {
    report_.first_incident = CollisionIncident{a, b, time, separation, kind};
  }
}

}  // namespace lumen::sim
