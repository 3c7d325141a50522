// Convex hull tests: known shapes, degeneracies, randomized invariants
// checked against first principles (every point inside, every hull vertex
// strictly extreme), and an index-for-index comparison against a plain
// monotone chain with no interior cull.
#include "geom/hull.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "geom/predicates.hpp"
#include "geom/simd.hpp"
#include "model/frame.hpp"
#include "util/prng.hpp"

namespace lumen::geom {
namespace {

std::vector<Vec2> hull_points_of(std::span<const Vec2> pts) {
  std::vector<Vec2> out;
  for (const auto i : convex_hull_indices(pts)) out.push_back(pts[i]);
  return out;
}

TEST(ConvexHull, EmptySingleAndPair) {
  EXPECT_TRUE(convex_hull_indices({}).empty());
  const std::vector<Vec2> one = {{1, 2}};
  EXPECT_EQ(convex_hull_indices(one), (std::vector<std::size_t>{0}));
  const std::vector<Vec2> two = {{1, 2}, {0, 0}};
  const auto h2 = convex_hull_indices(two);
  EXPECT_EQ(h2.size(), 2u);
  EXPECT_EQ(two[h2[0]], (Vec2{0, 0}));  // Lexicographic start.
}

TEST(ConvexHull, SquareWithMidpointsAndCenter) {
  // Strict hull excludes edge midpoints and the center.
  const std::vector<Vec2> pts = {{0, 0}, {2, 0}, {2, 2}, {0, 2},
                                 {1, 0}, {2, 1}, {1, 2}, {0, 1}, {1, 1}};
  const auto hull = convex_hull_indices(pts);
  ASSERT_EQ(hull.size(), 4u);
  std::vector<Vec2> hp = hull_points_of(pts);
  // CCW from lexicographic min (0,0).
  EXPECT_EQ(hp[0], (Vec2{0, 0}));
  EXPECT_EQ(hp[1], (Vec2{2, 0}));
  EXPECT_EQ(hp[2], (Vec2{2, 2}));
  EXPECT_EQ(hp[3], (Vec2{0, 2}));
}

TEST(ConvexHull, CcwOrientation) {
  const std::vector<Vec2> pts = {{0, 0}, {4, 1}, {2, 5}, {1, 1}, {3, 2}};
  const auto hp = hull_points_of(pts);
  ASSERT_GE(hp.size(), 3u);
  for (std::size_t i = 0; i < hp.size(); ++i) {
    EXPECT_GT(orient2d(hp[i], hp[(i + 1) % hp.size()], hp[(i + 2) % hp.size()]), 0);
  }
}

TEST(ConvexHull, DuplicatesCollapse) {
  const std::vector<Vec2> pts = {{0, 0}, {0, 0}, {1, 0}, {1, 0}, {0, 1}, {0, 1}};
  EXPECT_EQ(convex_hull_indices(pts).size(), 3u);
}

TEST(ConvexHull, CollinearDegeneratesToExtremes) {
  const std::vector<Vec2> pts = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {1.5, 1.5}};
  const auto hull = convex_hull_indices(pts);
  ASSERT_EQ(hull.size(), 2u);
  EXPECT_EQ(pts[hull[0]], (Vec2{0, 0}));
  EXPECT_EQ(pts[hull[1]], (Vec2{3, 3}));
}

TEST(ConvexHull, RandomizedInvariants) {
  util::Prng rng{5};
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = 3 + rng.next_below(60);
    std::vector<Vec2> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(-50, 50), rng.uniform(-50, 50)});
    }
    const auto hull = convex_hull_indices(pts);
    const auto hp = hull_points_of(pts);
    // Every input point is inside-or-on the hull.
    for (const auto& p : pts) {
      EXPECT_NE(classify_against_hull(hp, p), HullPosition::kOutside);
    }
    // Every hull vertex is a strict corner (left turns all around).
    if (hp.size() >= 3) {
      for (std::size_t i = 0; i < hp.size(); ++i) {
        EXPECT_GT(orient2d(hp[i], hp[(i + 1) % hp.size()], hp[(i + 2) % hp.size()]), 0);
      }
    }
  }
}

TEST(ClassifyAgainstHull, AllPositions) {
  const std::vector<Vec2> hull = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  EXPECT_EQ(classify_against_hull(hull, {0, 0}), HullPosition::kVertex);
  EXPECT_EQ(classify_against_hull(hull, {2, 0}), HullPosition::kEdge);
  EXPECT_EQ(classify_against_hull(hull, {2, 2}), HullPosition::kInterior);
  EXPECT_EQ(classify_against_hull(hull, {5, 2}), HullPosition::kOutside);
  EXPECT_EQ(classify_against_hull(hull, {-1e-12, 2}), HullPosition::kOutside);
}

TEST(ClassifyAgainstHull, DegenerateHulls) {
  const std::vector<Vec2> seg = {{0, 0}, {4, 0}};
  EXPECT_EQ(classify_against_hull(seg, {0, 0}), HullPosition::kVertex);
  EXPECT_EQ(classify_against_hull(seg, {2, 0}), HullPosition::kEdge);
  EXPECT_EQ(classify_against_hull(seg, {5, 0}), HullPosition::kOutside);
  EXPECT_EQ(classify_against_hull(seg, {2, 1}), HullPosition::kOutside);
  const std::vector<Vec2> pt = {{1, 1}};
  EXPECT_EQ(classify_against_hull(pt, {1, 1}), HullPosition::kVertex);
  EXPECT_EQ(classify_against_hull(pt, {1, 2}), HullPosition::kOutside);
}

TEST(StrictConvexPosition, Recognizers) {
  EXPECT_TRUE(points_in_strictly_convex_position(std::vector<Vec2>{}));
  EXPECT_TRUE(points_in_strictly_convex_position(std::vector<Vec2>{{0, 0}}));
  EXPECT_TRUE(points_in_strictly_convex_position(std::vector<Vec2>{{0, 0}, {1, 0}}));
  EXPECT_TRUE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {4, 0}, {4, 4}, {0, 4}}));
  // Midpoint of an edge breaks strictness.
  EXPECT_FALSE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {2, 0}, {4, 0}, {4, 4}, {0, 4}}));
  // Interior point breaks it.
  EXPECT_FALSE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}}));
  // Three collinear points are not strictly convex.
  EXPECT_FALSE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {1, 1}, {2, 2}}));
  // Duplicates are never in convex position.
  EXPECT_FALSE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {0, 0}, {1, 0}, {0, 1}}));
}

TEST(StrictConvexPosition, CoincidentPointsAreNeverConvexAtAnySize) {
  // "Strictly convex => distinct" must hold for every n, including the
  // two-point case that has no third point to form a hull with.
  EXPECT_TRUE(points_in_strictly_convex_position(std::vector<Vec2>{}));
  EXPECT_TRUE(points_in_strictly_convex_position(std::vector<Vec2>{{3, 3}}));
  EXPECT_FALSE(points_in_strictly_convex_position(std::vector<Vec2>{{3, 3}, {3, 3}}));
  EXPECT_FALSE(points_in_strictly_convex_position(std::vector<Vec2>{{0, 0}, {-0.0, 0}}));
  EXPECT_TRUE(points_in_strictly_convex_position(std::vector<Vec2>{{3, 3}, {3, 4}}));
  EXPECT_FALSE(points_in_strictly_convex_position(
      std::vector<Vec2>{{1, 1}, {1, 1}, {1, 1}}));
  EXPECT_FALSE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {0, 0}, {5, 1}}));
  EXPECT_FALSE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {5, 1}, {5, 1}}));
  EXPECT_TRUE(points_in_strictly_convex_position(
      std::vector<Vec2>{{0, 0}, {5, 1}, {2, 4}}));
}

TEST(StrictConvexPosition, DuplicatesOnTheHullOrInsideAreRejected) {
  // A convex octagon: strictly convex as given, and no longer once any
  // vertex is repeated or an interior point appears twice — below and
  // above the hull's cull threshold.
  for (const std::size_t k : {8u, 40u}) {
    std::vector<Vec2> ring;
    for (std::size_t i = 0; i < k; ++i) {
      const double a = 6.283185307179586 * static_cast<double>(i) /
                       static_cast<double>(k);
      ring.push_back({std::round(1000 * std::cos(a)), std::round(1000 * std::sin(a))});
    }
    ASSERT_TRUE(points_in_strictly_convex_position(ring)) << k;
    for (const std::size_t dup : {std::size_t{0}, k / 2, k - 1}) {
      auto on_hull = ring;
      on_hull.push_back(ring[dup]);
      EXPECT_FALSE(points_in_strictly_convex_position(on_hull)) << k << " " << dup;
      auto front = ring;
      front.insert(front.begin(), ring[dup]);
      EXPECT_FALSE(points_in_strictly_convex_position(front)) << k << " " << dup;
    }
    auto inside = ring;
    inside.push_back({1, 2});
    inside.push_back({1, 2});
    EXPECT_FALSE(points_in_strictly_convex_position(inside)) << k;
  }
}

TEST(AllCollinear, Cases) {
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{}));
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{{1, 1}}));
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{{1, 1}, {2, 2}}));
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{{0, 0}, {1, 2}, {2, 4}, {-3, -6}}));
  EXPECT_FALSE(all_collinear(std::vector<Vec2>{{0, 0}, {1, 2}, {2, 4.0001}}));
  // Coincident anchor handling.
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{{5, 5}, {5, 5}, {5, 5}}));
  EXPECT_TRUE(all_collinear(std::vector<Vec2>{{5, 5}, {5, 5}, {7, 7}}));
}

TEST(ConvexHull, LexicographicStartVertex) {
  util::Prng rng{11};
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<Vec2> pts;
    for (int i = 0; i < 20; ++i) {
      pts.push_back({rng.uniform(-9, 9), rng.uniform(-9, 9)});
    }
    const auto hull = convex_hull_indices(pts);
    ASSERT_FALSE(hull.empty());
    const Vec2 first = pts[hull[0]];
    for (const auto i : hull) {
      EXPECT_LE(first, pts[i]);
    }
  }
}

// --- Oracle: convex_hull_indices against an uncull monotone chain -------

/// Andrew's monotone chain over ALL points, sorted by plain std::sort on
/// (x, y, index): no interior cull and no bucketed sort. It keeps
/// convex_hull_indices' contract (first duplicate kept, collinear input ->
/// the two extremes), so the two must agree index for index.
std::vector<std::size_t> oracle_hull(std::span<const Vec2> pts) {
  std::vector<std::size_t> order(pts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    if (pts[i].x != pts[j].x) return pts[i].x < pts[j].x;
    if (pts[i].y != pts[j].y) return pts[i].y < pts[j].y;
    return i < j;
  });
  order.erase(std::unique(order.begin(), order.end(),
                          [&](std::size_t i, std::size_t j) {
                            return pts[i] == pts[j];
                          }),
              order.end());
  const std::size_t m = order.size();
  if (m <= 2) return order;
  bool collinear = true;
  for (std::size_t i = 2; i < m && collinear; ++i) {
    collinear = orient2d(pts[order[0]], pts[order[1]], pts[order[i]]) == 0;
  }
  if (collinear) return {order.front(), order.back()};
  std::vector<std::size_t> hull;
  const auto chain = [&](std::size_t floor, std::size_t i) {
    while (hull.size() >= floor &&
           orient2d(pts[hull[hull.size() - 2]], pts[hull.back()], pts[i]) <= 0) {
      hull.pop_back();
    }
    hull.push_back(i);
  };
  for (std::size_t idx = 0; idx < m; ++idx) chain(2, order[idx]);
  const std::size_t lower = hull.size() + 1;
  for (std::size_t idx = m - 1; idx-- > 0;) chain(lower, order[idx]);
  hull.pop_back();  // Last point equals the first.
  return hull;
}

void expect_matches_oracle(std::span<const Vec2> pts, const std::string& what) {
  EXPECT_EQ(convex_hull_indices(pts), oracle_hull(pts)) << what;
}

/// A Look-like view: `n` world points uniform in a disk (or square), the
/// one nearest the center as observer at index 0, all mapped into a
/// random local frame of the given scale.
std::vector<Vec2> local_view(std::size_t n, bool disk, double scale,
                             std::uint64_t seed) {
  util::Prng rng{seed};
  std::vector<Vec2> world;
  while (world.size() < n) {
    const Vec2 p{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    if (!disk || p.x * p.x + p.y * p.y <= 100.0 * 100.0) world.push_back(p);
  }
  std::size_t observer = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (norm_sq(world[i]) < norm_sq(world[observer])) observer = i;
  }
  std::swap(world[0], world[observer]);
  const model::LocalFrame frame{world[0], rng.uniform(0.0, 6.283185307179586),
                                scale, rng.bernoulli(0.5)};
  std::vector<Vec2> local;
  for (const Vec2 p : world) local.push_back(frame.to_local(p));
  return local;
}

TEST(ConvexHullOracle, LocalFrameViewsAtEveryScale) {
  for (const double scale : {1e-3, 1.0, 1e6}) {
    for (const bool disk : {true, false}) {
      for (const std::size_t n : {40u, 100u, 512u, 4096u}) {
        const auto pts = local_view(n, disk, scale, 3 * n + (disk ? 1 : 2));
        expect_matches_oracle(pts, "scale=" + std::to_string(scale) +
                                       " disk=" + std::to_string(disk) +
                                       " n=" + std::to_string(n));
      }
    }
  }
}

TEST(ConvexHullOracle, SizesAroundTheCullThreshold) {
  for (std::size_t n = 3; n <= 160; ++n) {
    expect_matches_oracle(local_view(n, true, 1.0, n), "n=" + std::to_string(n));
  }
}

TEST(ConvexHullOracle, AllPointsOnACircle) {
  for (const std::size_t n : {33u, 64u, 500u, 2000u}) {
    std::vector<Vec2> pts;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = 6.283185307179586 * static_cast<double>(i) /
                       static_cast<double>(n);
      pts.push_back({std::cos(t) * 7.0, std::sin(t) * 7.0});
    }
    expect_matches_oracle(pts, "circle n=" + std::to_string(n));
  }
}

TEST(ConvexHullOracle, LatticeAndCollinearRuns) {
  std::vector<Vec2> lattice;
  for (int i = 0; i < 25; ++i) {
    for (int j = 0; j < 20; ++j) lattice.push_back({i * 0.5, j * 0.25});
  }
  expect_matches_oracle(lattice, "lattice");
  std::vector<Vec2> line;
  for (int i = 0; i < 300; ++i) line.push_back({i * 3.0 - 7.0, i * -2.0 + 1.0});
  expect_matches_oracle(line, "fully collinear");
  // Collinear runs along every cull-polygon direction plus a few off-line
  // points, so the runs lie on hull edges.
  std::vector<Vec2> runs;
  for (int i = -40; i <= 40; ++i) {
    runs.push_back({static_cast<double>(i), -40.0});
    runs.push_back({40.0, static_cast<double>(i)});
    runs.push_back({static_cast<double>(i) * 0.5, 60.0 - std::abs(i) * 0.5});
    runs.push_back({0.0, static_cast<double>(i)});
  }
  runs.push_back({-45.0, 3.0});
  expect_matches_oracle(runs, "runs");
}

TEST(ConvexHullOracle, DuplicatesAtExtremePoints) {
  auto pts = local_view(300, true, 1.0, 77);
  const auto ext = simd::hull_extremes(pts.data(), pts.size());
  for (const std::uint32_t e : ext) {
    pts.insert(pts.begin(), pts[e]);  // Duplicate before the original...
    pts.push_back(pts[e + 1]);        // ...and after it.
  }
  expect_matches_oracle(pts, "duplicated extremes");
}

TEST(ConvexHullOracle, TiesAmongTheEightExtremes) {
  // An axis-aligned square: x, y, x+y and y-x all tie along whole sides
  // and at the corners. Then a diamond: the diagonal keys tie along sides.
  std::vector<Vec2> square;
  std::vector<Vec2> diamond;
  util::Prng rng{21};
  for (int i = 0; i <= 20; ++i) {
    const double t = i;
    for (const Vec2 p : {Vec2{t, 0}, Vec2{t, 20}, Vec2{0, t}, Vec2{20, t}}) {
      square.push_back(p);
      diamond.push_back({p.x - p.y, p.x + p.y - 20.0});
    }
  }
  for (int i = 0; i < 200; ++i) {
    const Vec2 p{rng.uniform(0, 20), rng.uniform(0, 20)};
    square.push_back(p);
    diamond.push_back({p.x - p.y, p.x + p.y - 20.0});
  }
  expect_matches_oracle(square, "square");
  expect_matches_oracle(diamond, "diamond");
}

TEST(ConvexHullOracle, PointsSteppedUlpByUlpAcrossACullEdge) {
  // A triangle a, b, c (c far to the left of a->b, so the extremes polygon
  // is this triangle), a cloud inside it, and a grid of points stepped one
  // ulp at a time in x and y around a point of edge a->b. The vertex
  // offsets are rounded, so a plain sign test of the orientation misjudges
  // some grid points; only the error-bounded filter keeps the cull sound.
  util::Prng rng{5};
  for (int trial = 0; trial < 40; ++trial) {
    const Vec2 a{rng.uniform(-20, 20), rng.uniform(-20, 20)};
    const Vec2 b{rng.uniform(-20, 20), rng.uniform(-20, 20)};
    const double t = rng.uniform(0.05, 0.95);
    const Vec2 on{a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
    const Vec2 c{on.x - 3 * (b.y - a.y), on.y + 3 * (b.x - a.x)};
    std::vector<Vec2> pts = {a, b, c};
    for (int i = 0; i < 60; ++i) {
      const double u = rng.uniform(0.05, 0.9);
      const double v = rng.uniform(0.05, 0.9 - u);
      pts.push_back({a.x + u * (b.x - a.x) + v * (c.x - a.x),
                     a.y + u * (b.y - a.y) + v * (c.y - a.y)});
    }
    for (int i = -8; i <= 8; ++i) {
      for (int j = -8; j <= 8; ++j) {
        Vec2 p = on;
        for (int k = 0; k < std::abs(i); ++k) p.x = std::nextafter(p.x, i * 1e9);
        for (int k = 0; k < std::abs(j); ++k) p.y = std::nextafter(p.y, j * 1e9);
        pts.push_back(p);
      }
    }
    expect_matches_oracle(pts, "ulp steps, trial " + std::to_string(trial));
  }
}

TEST(ConvexHullOracle, SubnormalXRangeFallsBackToTheComparisonSort) {
  // The fringe's x-range is one subnormal step: the bucket scale would be
  // inf and (x - min_x) * scale NaN. Fixed by the comparison-sort fallback.
  util::Prng rng{8};
  std::vector<Vec2> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({i % 2 == 0 ? 0.0 : 4.94e-324, rng.uniform(-1, 1)});
  }
  expect_matches_oracle(pts, "subnormal x-range");
}

}  // namespace
}  // namespace lumen::geom
