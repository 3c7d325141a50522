// Collision-monitor tests: the closed-form closest approach, constructed
// collision/crossing scenarios, and the final-configuration verdicts, the
// latter checked against the full visibility graph on every size up to 64.
#include "sim/monitors.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "geom/hull.hpp"
#include "geom/predicates.hpp"
#include "geom/visibility.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace lumen::sim {
namespace {

using geom::Vec2;

TEST(MinDistanceLinearMotion, HeadOnPassThrough) {
  // Two points swap positions along the same line: they meet at the middle.
  double t_min = 0.0;
  const double d = min_distance_linear_motion({0, 0}, {10, 0}, {10, 0}, {0, 0},
                                              0.0, 1.0, &t_min);
  EXPECT_NEAR(d, 0.0, 1e-12);
  EXPECT_NEAR(t_min, 0.5, 1e-12);
}

TEST(MinDistanceLinearMotion, ParallelMotionKeepsDistance) {
  const double d =
      min_distance_linear_motion({0, 0}, {10, 0}, {0, 3}, {10, 3}, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(d, 3.0);
}

TEST(MinDistanceLinearMotion, StationaryVsMover) {
  // Mover passes within 1 of a stationary point.
  const double d =
      min_distance_linear_motion({-5, 1}, {5, 1}, {0, 0}, {0, 0}, 0.0, 1.0);
  EXPECT_NEAR(d, 1.0, 1e-12);
}

TEST(MinDistanceLinearMotion, MinimumAtEndpoint) {
  // Receding motion: minimum at t0.
  double t_min = -1.0;
  const double d = min_distance_linear_motion({1, 0}, {10, 0}, {0, 0}, {0, 0},
                                              3.0, 4.0, &t_min);
  EXPECT_DOUBLE_EQ(d, 1.0);
  EXPECT_DOUBLE_EQ(t_min, 3.0);
}

TEST(MinDistanceLinearMotion, AgreesWithDenseSampling) {
  util::Prng rng{23};
  for (int iter = 0; iter < 500; ++iter) {
    const Vec2 a0{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const Vec2 a1{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const Vec2 b0{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const Vec2 b1{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const double closed = min_distance_linear_motion(a0, a1, b0, b1, 0.0, 1.0);
    double sampled = 1e300;
    for (int k = 0; k <= 1000; ++k) {
      const double s = k / 1000.0;
      sampled = std::min(sampled,
                         geom::distance(geom::lerp(a0, a1, s), geom::lerp(b0, b1, s)));
    }
    EXPECT_LE(closed, sampled + 1e-9);
    EXPECT_NEAR(closed, sampled, 1e-3);
  }
}

TEST(CheckCollisions, CleanRunOfDisjointMovers) {
  const std::vector<Vec2> initial = {{0, 0}, {100, 100}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 1.0, {0, 0}, {10, 0}},
      {1, 0.0, 1.0, {100, 100}, {90, 100}},
  };
  const auto report = check_collisions(initial, moves, 2.0);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.min_separation, 50.0);
  EXPECT_FALSE(report.first_incident.has_value());
}

TEST(CheckCollisions, DetectsMeetingAtAPoint) {
  const std::vector<Vec2> initial = {{0, 0}, {10, 0}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 1.0, {0, 0}, {5, 0}},
      {1, 0.0, 1.0, {10, 0}, {5, 0}},
  };
  const auto report = check_collisions(initial, moves, 2.0);
  EXPECT_GT(report.position_collisions, 0u);
  EXPECT_NEAR(report.min_separation, 0.0, 1e-12);
  ASSERT_TRUE(report.first_incident.has_value());
  EXPECT_EQ(report.first_incident->kind, "position");
}

TEST(CheckCollisions, DetectsCrossingPaths) {
  // Paths cross in space while both robots move concurrently, but they pass
  // the crossing point at different speeds so positions never coincide.
  const std::vector<Vec2> initial = {{0, 0}, {0, 10}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 10.0, {0, 0}, {10, 10}},
      {1, 0.0, 1.0, {0, 10}, {10, 0}},
  };
  const auto report = check_collisions(initial, moves, 12.0);
  EXPECT_GT(report.path_crossings, 0u);
  EXPECT_GT(report.min_separation, 0.0);
  EXPECT_FALSE(report.clean());
}

TEST(CheckCollisions, NonOverlappingTimesMayShareSpace) {
  // Same path traversed at disjoint times: legal.
  const std::vector<Vec2> initial = {{0, 0}, {10, 0}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 1.0, {0, 0}, {10, 5}},
      {1, 5.0, 6.0, {10, 0}, {0, 5}},
  };
  const auto report = check_collisions(initial, moves, 7.0);
  EXPECT_EQ(report.path_crossings, 0u);
  EXPECT_EQ(report.position_collisions, 0u);
}

TEST(CheckCollisions, MoverThroughStationaryRobot) {
  const std::vector<Vec2> initial = {{0, 0}, {5, 0}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 1.0, {0, 0}, {10, 0}},  // Passes exactly through (5, 0).
  };
  const auto report = check_collisions(initial, moves, 2.0);
  EXPECT_GT(report.position_collisions, 0u);
}

TEST(CheckCollisions, ToleranceFlagsGrazingContact) {
  const std::vector<Vec2> initial = {{0, 0}, {5, 0.05}};
  const std::vector<MoveSegment> moves = {
      {0, 0.0, 1.0, {0, 0}, {10, 0}},
  };
  EXPECT_TRUE(check_collisions(initial, moves, 2.0, 0.0).clean());
  EXPECT_FALSE(check_collisions(initial, moves, 2.0, 0.1).clean());
}

TEST(CheckCollisions, InitialCoincidenceIsDetectedWithoutMoves) {
  const std::vector<Vec2> initial = {{1, 1}, {1, 1}};
  const auto report = check_collisions(initial, {}, 1.0);
  EXPECT_EQ(report.min_separation, 0.0);
  EXPECT_GT(report.position_collisions, 0u);
}

TEST(VerifyCompleteVisibility, Verdicts) {
  const std::vector<Vec2> convex = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  const auto good = verify_complete_visibility(convex);
  EXPECT_TRUE(good.distinct);
  EXPECT_TRUE(good.strictly_convex);
  EXPECT_TRUE(good.mutually_visible);
  EXPECT_TRUE(good.complete());

  const std::vector<Vec2> blocked = {{0, 0}, {2, 0}, {4, 0}};
  const auto bad = verify_complete_visibility(blocked);
  EXPECT_TRUE(bad.distinct);
  EXPECT_FALSE(bad.strictly_convex);
  EXPECT_FALSE(bad.mutually_visible);
  EXPECT_FALSE(bad.complete());

  const std::vector<Vec2> dup = {{0, 0}, {0, 0}, {1, 1}};
  EXPECT_FALSE(verify_complete_visibility(dup).distinct);
}

// --- Oracle: the verdicts against the full visibility graph --------------

/// The verdict as the full graph defines it: sort for distinctness, "every
/// point is a strict hull vertex" read off the hull, and every pair joined
/// in compute_visibility's graph (and, for small n, the O(n^3) graph).
VisibilityVerdict graph_verdict(const std::vector<Vec2>& pts) {
  const std::size_t n = pts.size();
  VisibilityVerdict v;
  std::vector<Vec2> sorted = pts;
  std::sort(sorted.begin(), sorted.end());
  v.distinct = std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
  v.strictly_convex =
      n <= 1 || (geom::convex_hull_indices(pts).size() == n &&
                 (n == 2 || !geom::all_collinear(pts)));
  v.mutually_visible = geom::compute_visibility(pts).complete();
  if (n <= 24) {
    EXPECT_EQ(geom::compute_visibility_naive(pts).complete(), v.mutually_visible);
  }
  return v;
}

/// Point i is a strict vertex iff it lies in no closed triangle or segment
/// of the other points (and equals none of them). O(n^4); small n only.
bool strict_vertices_brute_force(const std::vector<Vec2>& pts) {
  const std::size_t n = pts.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 p = pts[i];
    for (std::size_t a = 0; a < n; ++a) {
      if (a == i) continue;
      if (pts[a] == p) return false;
      for (std::size_t b = a + 1; b < n; ++b) {
        if (b == i) continue;
        if (geom::on_segment_closed(pts[a], pts[b], p)) return false;
        for (std::size_t c = b + 1; c < n; ++c) {
          if (c == i) continue;
          const int s = geom::orient2d(pts[a], pts[b], pts[c]);
          if (s == 0) continue;  // Covered by the segment tests.
          if (geom::orient2d(pts[a], pts[b], p) * s >= 0 &&
              geom::orient2d(pts[b], pts[c], p) * s >= 0 &&
              geom::orient2d(pts[c], pts[a], p) * s >= 0) {
            return false;
          }
        }
      }
    }
  }
  return true;
}

/// `n` points on a circle of radius r, rounded to integers.
std::vector<Vec2> rounded_ngon(std::size_t n, double r) {
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = 6.283185307179586 * static_cast<double>(i) /
                     static_cast<double>(n);
    pts.push_back({std::round(r * std::cos(a)), std::round(r * std::sin(a))});
  }
  return pts;
}

/// The lattice points of a square's boundary, corners first, then edge
/// midpoints, then the rest; the square has lower-left corner (1, 1) so
/// that a one-ulp nudge never lands on a subnormal.
std::vector<Vec2> lattice_square(std::size_t n) {
  const double side = 2.0 * static_cast<double>(std::max<std::size_t>(1, (n + 7) / 8));
  const double lo = 1.0;
  const double hi = 1.0 + side;
  const double mid = 1.0 + side / 2;
  std::vector<Vec2> pts = {{lo, lo}, {hi, lo}, {hi, hi}, {lo, hi},
                           {mid, lo}, {hi, mid}, {mid, hi}, {lo, mid}};
  for (double t = lo + 1; t < hi; t += 1) {
    if (t == mid) continue;
    pts.push_back({t, lo});
    pts.push_back({hi, t});
    pts.push_back({t, hi});
    pts.push_back({lo, t});
  }
  pts.resize(n);  // The boundary holds 4 * side >= n points.
  return pts;
}

/// lattice_square with its edge midpoints moved one ulp off their edge,
/// outward (they become strict vertices) or inward.
std::vector<Vec2> nudged_square(std::size_t n, bool outward) {
  auto pts = lattice_square(n);
  const double inf = std::numeric_limits<double>::infinity();
  const double away = outward ? -inf : inf;
  for (std::size_t k = 4; k < std::min<std::size_t>(8, pts.size()); ++k) {
    Vec2& p = pts[k];
    switch (k) {
      case 4: p.y = std::nextafter(p.y, away); break;   // Bottom edge.
      case 5: p.x = std::nextafter(p.x, -away); break;  // Right edge.
      case 6: p.y = std::nextafter(p.y, -away); break;  // Top edge.
      default: p.x = std::nextafter(p.x, away); break;  // Left edge.
    }
  }
  return pts;
}

std::vector<std::pair<std::string, std::vector<Vec2>>> oracle_configs(std::size_t n) {
  util::Prng rng{1000 + n};
  std::vector<std::pair<std::string, std::vector<Vec2>>> out;
  // Uniform disks: raw doubles, and rounded to lattices coarse enough to
  // produce exact collinear triples and duplicates.
  for (const double grid : {0.0, 1.0, 8.0}) {
    std::vector<Vec2> pts;
    while (pts.size() < n) {
      Vec2 p{rng.uniform(-50, 50), rng.uniform(-50, 50)};
      if (p.x * p.x + p.y * p.y > 2500) continue;
      if (grid > 0) p = {std::round(p.x / grid) * grid, std::round(p.y / grid) * grid};
      pts.push_back(p);
    }
    out.emplace_back("disk/" + std::to_string(grid), pts);
  }
  out.emplace_back("ngon/16", rounded_ngon(n, 16));
  out.emplace_back("ngon/1e4", rounded_ngon(n, 1e4));
  out.emplace_back("square", lattice_square(n));
  out.emplace_back("square/out", nudged_square(n, true));
  out.emplace_back("square/in", nudged_square(n, false));
  if (n >= 2) {
    auto on_hull = rounded_ngon(n - 1, 1e4);
    const Vec2 twin = on_hull[(n - 1) / 2];
    on_hull.insert(on_hull.begin() + static_cast<std::ptrdiff_t>(rng.next_below(n - 1)),
                   twin);
    out.emplace_back("dup/hull", on_hull);
  }
  if (n >= 5) {
    auto inside = rounded_ngon(n - 2, 1e4);
    inside.push_back({3, -7});
    inside.push_back({3, -7});
    rng.shuffle(inside.begin(), inside.end());
    out.emplace_back("dup/inside", inside);
  }
  std::vector<Vec2> line;
  std::vector<Vec2> line_dups;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    line.push_back({3 * t - 7, 2 * t + 1});
    const double u = static_cast<double>(rng.next_below(n));
    line_dups.push_back({1 + 2 * u, 3 - u});
  }
  rng.shuffle(line.begin(), line.end());
  out.emplace_back("line", line);
  out.emplace_back("line/dups", line_dups);
  return out;
}

TEST(VerifyCompleteVisibility, MatchesTheVisibilityGraphOnEverySizeTo64) {
  util::ThreadPool pool{4};
  std::size_t convex = 0, mutual_only = 0, neither = 0;
  for (std::size_t n = 0; n <= 64; ++n) {
    for (const auto& [name, pts] : oracle_configs(n)) {
      ASSERT_EQ(pts.size(), n) << name;
      const VisibilityVerdict want = graph_verdict(pts);
      if (n <= 24) {
        ASSERT_EQ(strict_vertices_brute_force(pts), want.strictly_convex)
            << name << " n=" << n;
      }
      const bool want_complete = want.complete();
      const bool want_mutual = want.distinct && want.mutually_visible;
      convex += want_complete ? 1 : 0;
      mutual_only += (want_mutual && !want_complete) ? 1 : 0;
      neither += want_mutual ? 0 : 1;
      for (util::ThreadPool* const with : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
        const std::string where =
            name + " n=" + std::to_string(n) + (with != nullptr ? " pooled" : "");
        const VisibilityVerdict got = verify_complete_visibility(pts, with);
        EXPECT_EQ(got.distinct, want.distinct) << where;
        EXPECT_EQ(got.strictly_convex, want.strictly_convex) << where;
        EXPECT_EQ(got.mutually_visible, want.mutually_visible) << where;
        EXPECT_EQ(verify_success("complete-visibility", pts, with).satisfied,
                  want_complete)
            << where;
        EXPECT_EQ(verify_success("mutual-visibility", pts, with).satisfied,
                  want_mutual)
            << where;
      }
    }
  }
  // Every branch of both predicates is exercised.
  EXPECT_GT(convex, 50u);
  EXPECT_GT(mutual_only, 50u);
  EXPECT_GT(neither, 50u);
}

}  // namespace
}  // namespace lumen::sim
