// Generator tests: determinism, distinctness, separation contracts, and the
// defining property of each family.
#include "gen/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "geom/hull.hpp"

namespace lumen::gen {
namespace {

using geom::Vec2;

/// Smallest distance between any two points, O(n^2); infinity below two.
double min_pairwise_distance(const std::vector<Vec2>& pts) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      best = std::min(best, geom::distance(pts[i], pts[j]));
    }
  }
  return best;
}

class FamilyContractTest
    : public ::testing::TestWithParam<std::tuple<ConfigFamily, std::size_t>> {};

TEST_P(FamilyContractTest, CorrectCountDistinctAndSeparated) {
  const auto [family, n] = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto pts = generate(family, n, seed, 1e-3);
    ASSERT_EQ(pts.size(), n);
    if (n >= 2) {
      EXPECT_GE(min_pairwise_distance(pts), 1e-3 * 0.999)
          << to_string(family) << " seed " << seed;
    }
  }
}

TEST_P(FamilyContractTest, DeterministicInSeed) {
  const auto [family, n] = GetParam();
  const auto a = generate(family, n, 77);
  const auto b = generate(family, n, 77);
  EXPECT_EQ(a, b);
  if (n >= 3) {
    const auto c = generate(family, n, 78);
    EXPECT_NE(a, c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyContractTest,
    ::testing::Combine(::testing::ValuesIn(all_families()),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{17}, std::size_t{64})));

TEST(Generators, CollinearFamilyIsExactlyCollinear) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto pts = generate(ConfigFamily::kCollinear, 20, seed);
    EXPECT_TRUE(geom::all_collinear(pts)) << "seed " << seed;
  }
}

TEST(Generators, NearCollinearFamilyIsThin) {
  const auto pts = generate(ConfigFamily::kNearCollinear, 40, 5);
  EXPECT_TRUE(geom::nearly_collinear(pts, 1e-3));
  EXPECT_FALSE(geom::all_collinear(pts));
}

TEST(Generators, GridFamilyIsNotCollinear) {
  const auto pts = generate(ConfigFamily::kGrid, 49, 5);
  EXPECT_FALSE(geom::all_collinear(pts));
}

TEST(Generators, RingWithCoreHasManyHullPoints) {
  const auto pts = generate(ConfigFamily::kRingWithCore, 100, 5);
  const auto hull = geom::convex_hull_indices(pts);
  // A majority of robots sit on/near the ring; the hull is corner-rich.
  EXPECT_GE(hull.size(), 20u);
}

TEST(Generators, GaussianBlobHasFewHullPoints) {
  const auto pts = generate(ConfigFamily::kGaussianBlob, 200, 5);
  const auto hull = geom::convex_hull_indices(pts);
  EXPECT_LE(hull.size(), 40u);
}

TEST(Generators, DenseDiameterHasAnchorsAndThinBody) {
  const auto pts = generate(ConfigFamily::kDenseDiameter, 50, 5);
  EXPECT_EQ(pts[0], (Vec2{-100, 0}));
  EXPECT_EQ(pts[1], (Vec2{100, 0}));
  for (std::size_t i = 2; i < pts.size(); ++i) {
    EXPECT_LE(std::fabs(pts[i].y), 2.0);
  }
}

TEST(Generators, LatticeFamilyIsDistinctIntegerPoints) {
  const auto pts = generate(ConfigFamily::kLattice, 64, 5);
  for (const Vec2& p : pts) {
    EXPECT_EQ(p.x, std::nearbyint(p.x));
    EXPECT_EQ(p.y, std::nearbyint(p.y));
  }
  // Distinct integer points are at least one unit apart.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_GE(geom::norm(pts[i] - pts[j]), 1.0);
    }
  }
}

TEST(Generators, FamilyNamesRoundTrip) {
  for (const auto f : all_families()) {
    EXPECT_NE(to_string(f), "?");
  }
  EXPECT_EQ(all_families().size(), 10u);
}

TEST(Generators, DifferentFamiliesDifferAtSameSeed) {
  const auto a = generate(ConfigFamily::kUniformDisk, 16, 9);
  const auto b = generate(ConfigFamily::kUniformSquare, 16, 9);
  EXPECT_NE(a, b);
}

TEST(Generators, ImpossibleSeparationThrows) {
  // 1000 robots at separation 50 cannot fit in a radius-100 disk.
  EXPECT_THROW(generate(ConfigFamily::kUniformDisk, 1000, 1, 50.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace lumen::gen
