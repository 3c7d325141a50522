// Obstructed-visibility kernel tests: the fast angular-sweep implementation
// is validated against the brute-force oracle on random and adversarially
// collinear configurations.
#include "geom/visibility.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geom/hull.hpp"
#include "split_points.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace lumen::geom {
namespace {

/// How many robots robot i sees.
std::size_t degree(const VisibilityGraph& g, std::size_t i) {
  std::size_t c = 0;
  for (std::size_t j = 0; j < g.size(); ++j) c += g.sees(i, j) ? 1u : 0u;
  return c;
}

TEST(Visibility, TriangleSeesEveryone) {
  const std::vector<Vec2> pts = {{0, 0}, {4, 0}, {2, 3}};
  const auto g = compute_visibility(pts);
  EXPECT_TRUE(g.complete());
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(degree(g, 0), 2u);
}

TEST(Visibility, MiddleRobotBlocksTheLine) {
  const std::vector<Vec2> pts = {{0, 0}, {5, 0}, {10, 0}};
  const auto g = compute_visibility(pts);
  EXPECT_TRUE(g.sees(0, 1));
  EXPECT_TRUE(g.sees(1, 2));
  EXPECT_FALSE(g.sees(0, 2));
  EXPECT_FALSE(g.complete());
  EXPECT_TRUE(compute_visibility(std::vector<Vec2>{{0, 0}, {5, 0}}).complete());
  EXPECT_FALSE(compute_visibility(pts).complete());
}

TEST(Visibility, LongLineSeesOnlyNeighbors) {
  std::vector<Vec2> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({static_cast<double>(i), 0.0});
  const auto g = compute_visibility(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const std::size_t expected = (i == 0 || i == 9) ? 1 : 2;
    EXPECT_EQ(degree(g, i), expected) << i;
  }
}

TEST(Visibility, NearestOnRayWinsBothSides) {
  // Four robots on a vertical ray from the observer plus the observer: the
  // observer sees only the nearest above and the nearest below.
  const std::vector<Vec2> pts = {{0, 0}, {0, 2}, {0, 5}, {0, -1}, {0, -7}};
  const auto split = testutil::split_points(pts);
  VisibilityScratch scratch;
  std::vector<std::size_t> vis;
  visible_from(split.xs, split.ys, 0, scratch, vis);
  EXPECT_EQ(vis, (std::vector<std::size_t>{1, 3}));
  const auto g = compute_visibility(pts);
  EXPECT_TRUE(g.sees(0, 1));
  EXPECT_FALSE(g.sees(0, 2));
  EXPECT_TRUE(g.sees(0, 3));
  EXPECT_FALSE(g.sees(0, 4));
}

TEST(Visibility, SymmetryOfFastKernel) {
  util::Prng rng{21};
  std::vector<Vec2> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.uniform(-10, 10), rng.uniform(-10, 10)});
  }
  const auto g = compute_visibility(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      EXPECT_EQ(g.sees(i, j), g.sees(j, i));
    }
  }
}

TEST(Visibility, FastMatchesNaiveOnRandomConfigs) {
  util::Prng rng{33};
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<Vec2> pts;
    const std::size_t n = 2 + rng.next_below(50);
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(-20, 20), rng.uniform(-20, 20)});
    }
    const auto fast = compute_visibility(pts);
    const auto slow = compute_visibility_naive(pts);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(fast.sees(i, j), slow.sees(i, j)) << "iter " << iter;
      }
    }
  }
}

TEST(Visibility, FastMatchesNaiveOnCollinearClusters) {
  // Adversarial: many exactly-collinear runs through shared points.
  std::vector<Vec2> pts;
  for (int i = -3; i <= 3; ++i) {
    pts.push_back({static_cast<double>(i), 0.0});                   // Horizontal.
    pts.push_back({0.0, static_cast<double>(i)});                   // Vertical.
    pts.push_back({static_cast<double>(i), static_cast<double>(i)});  // Diagonal.
  }
  const auto fast = compute_visibility(pts);
  const auto slow = compute_visibility_naive(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      ASSERT_EQ(fast.sees(i, j), slow.sees(i, j)) << i << "," << j;
    }
  }
}

TEST(Visibility, FastMatchesNaiveOnRandomGridConfigs) {
  // Grid-snapped random points: dense exact collinearity, shared rays and
  // COINCIDENT robots (duplicates are likely on a 7x7 grid) — the regime
  // where the sweep's equal-direction runs have length > 1 and the
  // per-observer relation must still equal the naive blocking relation.
  util::Prng rng{55};
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<Vec2> pts;
    const std::size_t n = 2 + rng.next_below(40);
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({static_cast<double>(rng.next_below(7)) - 3.0,
                     static_cast<double>(rng.next_below(7)) - 3.0});
    }
    const auto fast = compute_visibility(pts);
    const auto slow = compute_visibility_naive(pts);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(fast.sees(i, j), slow.sees(i, j))
            << "iter " << iter << " pair " << i << "," << j;
      }
    }
  }
}

TEST(Visibility, PooledComputeMatchesSerialBitForBit) {
  // The parallel observer sweep engages at >= 32 points; its row-only fill
  // must reproduce the serial graph exactly for every pool size, including
  // on grid configs with coincident points and shared rays.
  util::Prng rng{66};
  for (const bool grid : {false, true}) {
    std::vector<Vec2> pts;
    for (int i = 0; i < 80; ++i) {
      if (grid) {
        pts.push_back({static_cast<double>(rng.next_below(9)),
                       static_cast<double>(rng.next_below(9))});
      } else {
        pts.push_back({rng.uniform(-20, 20), rng.uniform(-20, 20)});
      }
    }
    const auto serial = compute_visibility(pts);
    for (const std::size_t workers : {1u, 2u, 4u}) {
      util::ThreadPool pool{workers};
      const auto pooled = compute_visibility(pts, &pool);
      for (std::size_t i = 0; i < pts.size(); ++i) {
        for (std::size_t j = 0; j < pts.size(); ++j) {
          ASSERT_EQ(pooled.sees(i, j), serial.sees(i, j))
              << "grid=" << grid << " workers=" << workers << " pair " << i
              << "," << j;
        }
      }
      EXPECT_EQ(compute_visibility(pts, &pool).complete(), serial.complete());
    }
  }
}

TEST(Visibility, BlockBookkeepingAcrossWordBoundaries) {
  // The popcount representation packs rows into 64-bit words; sizes around
  // the word boundary exercise the partial-word masks in edge_count and
  // complete.
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 128u, 130u}) {
    VisibilityGraph g(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) g.set(i, j);
    }
    EXPECT_EQ(g.edge_count(), n * (n - 1) / 2) << n;
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(degree(g, i), n - 1) << n;
    EXPECT_TRUE(g.complete()) << n;
  }
  // Dropping a single edge — straddling a word boundary — must be seen by
  // all three accessors.
  VisibilityGraph g(65);
  for (std::size_t i = 0; i < 65; ++i) {
    for (std::size_t j = i + 1; j < 65; ++j) {
      if (i == 2 && j == 64) continue;  // Bit 64 lives in row 2's second word.
      g.set(i, j);
    }
  }
  EXPECT_FALSE(g.sees(2, 64));
  EXPECT_FALSE(g.sees(64, 2));
  EXPECT_FALSE(g.complete());
  EXPECT_EQ(g.edge_count(), 65u * 64u / 2 - 1);
  EXPECT_EQ(degree(g, 2), 63u);
  EXPECT_EQ(degree(g, 64), 63u);
}

TEST(Visibility, CoincidentClusterMatchesNaive) {
  // Three coincident robots plus outside observers: naive semantics say the
  // outsiders see ALL of them (a blocker must lie STRICTLY between), while
  // the coincident robots never see each other.
  const std::vector<Vec2> pts = {{-1, 0}, {0, 0}, {0, 0}, {0, 0}, {2, 0}};
  const auto fast = compute_visibility(pts);
  const auto slow = compute_visibility_naive(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      ASSERT_EQ(fast.sees(i, j), slow.sees(i, j)) << i << "," << j;
    }
  }
  EXPECT_TRUE(fast.sees(0, 1));
  EXPECT_TRUE(fast.sees(0, 2));
  EXPECT_TRUE(fast.sees(0, 3));
  EXPECT_FALSE(fast.sees(1, 2));   // Coincident pair.
  EXPECT_FALSE(fast.sees(0, 4));   // Blocked by the cluster.
}

TEST(Visibility, CoincidentRobotsNeverSeeEachOther) {
  const std::vector<Vec2> pts = {{1, 1}, {1, 1}, {5, 5}};
  const auto g = compute_visibility(pts);
  EXPECT_FALSE(g.sees(0, 1));
  EXPECT_FALSE(compute_visibility(pts).complete());
}

TEST(Visibility, StrictConvexPositionImpliesComplete) {
  util::Prng rng{44};
  for (int iter = 0; iter < 20; ++iter) {
    // Points on a circle at sorted distinct angles: strictly convex.
    std::vector<double> angles;
    const int k = 3 + static_cast<int>(rng.next_below(40));
    for (int i = 0; i < k; ++i) angles.push_back(rng.uniform(0, 6.28318));
    std::sort(angles.begin(), angles.end());
    angles.erase(std::unique(angles.begin(), angles.end()), angles.end());
    std::vector<Vec2> pts;
    for (const double a : angles) {
      pts.push_back({50 * std::cos(a), 50 * std::sin(a)});
    }
    if (!points_in_strictly_convex_position(pts)) continue;  // Rounding fluke.
    EXPECT_TRUE(compute_visibility(pts).complete());
  }
}

TEST(Visibility, EdgeCountAndDegreeBookkeeping) {
  const std::vector<Vec2> pts = {{0, 0}, {5, 0}, {10, 0}};
  const auto g = compute_visibility(pts);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(degree(g, 1), 2u);
  EXPECT_EQ(g.size(), 3u);
  const VisibilityGraph empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.complete());  // Vacuously.
}

TEST(Visibility, SingleAndEmpty) {
  EXPECT_TRUE(compute_visibility(std::vector<Vec2>{}).complete());
  EXPECT_TRUE(compute_visibility(std::vector<Vec2>{{1, 2}}).complete());
}

}  // namespace
}  // namespace lumen::geom
