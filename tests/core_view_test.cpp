// LocalView tests: the classification soundness lemma (local role == global
// role under obstructed visibility), gate selection and gate blocking.
#include "core/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/beacon.hpp"
#include "gen/generators.hpp"
#include "geom/hull.hpp"
#include "model/snapshot.hpp"
#include "split_points.hpp"
#include "util/prng.hpp"

namespace lumen::core {
namespace {

using geom::Vec2;
using model::Light;

/// Owns the snapshot the LocalView's spans alias: build_view borrows the
/// snapshot arrays instead of copying them, so the snapshot must outlive
/// the view. Vector moves keep heap buffers, so returning by value is safe.
struct OwnedView : LocalView {
  model::Snapshot snap;
};

/// Builds the observer's view of a world configuration with an identity
/// robot-centered frame and every light off.
OwnedView view_of(const std::vector<Vec2>& world, std::size_t observer) {
  const model::LocalFrame frame{world[observer], 0.0, 1.0, false};
  OwnedView v;
  v.snap = testutil::snapshot_of(
      world, std::vector<Light>(world.size(), Light::kOff), observer, frame);
  static_cast<LocalView&>(v) = build_view(v.snap);
  return v;
}

TEST(BuildView, AloneAndPair) {
  EXPECT_EQ(view_of({{5, 5}}, 0).role, Role::kAlone);
  // Two robots: each sees one point -> a "line" with self extreme.
  EXPECT_EQ(view_of({{0, 0}, {3, 0}}, 0).role, Role::kLineEnd);
}

TEST(BuildView, TriangleAllCorners) {
  const std::vector<Vec2> world = {{0, 0}, {4, 0}, {2, 3}};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(view_of(world, i).role, Role::kCorner) << i;
  }
}

TEST(BuildView, InteriorRobotClassifiesInterior) {
  const std::vector<Vec2> world = {{0, 0}, {8, 0}, {4, 8}, {4, 2.5}};
  EXPECT_EQ(view_of(world, 3).role, Role::kInterior);
  EXPECT_EQ(view_of(world, 0).role, Role::kCorner);
}

TEST(BuildView, SideRobotOnHullEdge) {
  const std::vector<Vec2> world = {{0, 0}, {8, 0}, {4, 8}, {4, 0}};
  EXPECT_EQ(view_of(world, 3).role, Role::kSide);
}

TEST(BuildView, LineRolesOnExactLine) {
  std::vector<Vec2> world;
  for (int i = 0; i < 7; ++i) world.push_back({static_cast<double>(i), 0.0});
  EXPECT_EQ(view_of(world, 0).role, Role::kLineEnd);
  EXPECT_EQ(view_of(world, 6).role, Role::kLineEnd);
  for (std::size_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(view_of(world, i).role, Role::kLine) << i;
  }
}

TEST(BuildView, LineRoleSurvivesRandomFrames) {
  // The tolerant nearly-collinear test must hold under similarity frames.
  std::vector<Vec2> world;
  for (int i = 0; i < 9; ++i) world.push_back({1.7 * i, -0.3 * 1.7 * i});
  const std::vector<Light> lights(world.size(), Light::kOff);
  util::Prng rng{5};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t observer = 1 + rng.next_below(7);
    const auto frame = model::LocalFrame::random(world[observer], rng);
    const auto snap = testutil::snapshot_of(world, lights, observer, frame);
    const auto view = build_view(snap);
    EXPECT_EQ(view.role, Role::kLine) << "trial " << trial;
  }
}

// The classification soundness lemma: despite obstruction, a robot's LOCAL
// role against its visible set equals its GLOBAL role against all robots.
class ClassificationSoundness
    : public ::testing::TestWithParam<std::tuple<gen::ConfigFamily, std::size_t>> {};

TEST_P(ClassificationSoundness, LocalRoleMatchesGlobalRole) {
  const auto [family, n] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto world = gen::generate(family, n, seed);
    const auto global_hull = geom::convex_hull_indices(world);
    const bool world_line = geom::all_collinear(world);
    const auto hull_pts = [&] {
      std::vector<Vec2> pts;
      for (const auto i : global_hull) pts.push_back(world[i]);
      return pts;
    }();
    for (std::size_t i = 0; i < world.size(); ++i) {
      const Role local = view_of(world, i).role;
      if (world_line) {
        EXPECT_TRUE(local == Role::kLine || local == Role::kLineEnd) << i;
        continue;
      }
      const auto global_pos = geom::classify_against_hull(hull_pts, world[i]);
      switch (global_pos) {
        case geom::HullPosition::kVertex:
          EXPECT_EQ(local, Role::kCorner) << "robot " << i << " seed " << seed;
          break;
        case geom::HullPosition::kEdge:
          EXPECT_EQ(local, Role::kSide) << "robot " << i << " seed " << seed;
          break;
        case geom::HullPosition::kInterior:
          // Tolerant line classification may fire for nearly-degenerate
          // local views; interior must never be mistaken for corner/side.
          EXPECT_TRUE(local == Role::kInterior || local == Role::kLine ||
                      local == Role::kLineEnd)
              << "robot " << i << " seed " << seed;
          break;
        case geom::HullPosition::kOutside:
          FAIL() << "world point outside world hull";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSizes, ClassificationSoundness,
    ::testing::Combine(::testing::Values(gen::ConfigFamily::kUniformDisk,
                                         gen::ConfigFamily::kGaussianBlob,
                                         gen::ConfigFamily::kRingWithCore,
                                         gen::ConfigFamily::kGrid,
                                         gen::ConfigFamily::kDenseDiameter),
                       ::testing::Values(std::size_t{8}, std::size_t{32},
                                         std::size_t{96})));

TEST(GateSelection, NearestHullEdge) {
  // Observer just above the bottom edge of a square.
  const std::vector<Vec2> world = {{5, 1}, {0, 0}, {10, 0}, {10, 10}, {0, 10}};
  const auto view = view_of(world, 0);
  ASSERT_EQ(view.role, Role::kInterior);
  const auto gate = GateTable(view).nearest_edge(view.self());
  ASSERT_TRUE(gate.has_value());
  EXPECT_NEAR(gate->distance, 1.0, 1e-9);
  // The gate must be the bottom edge (both endpoints have y == -1 in the
  // observer-centered frame).
  EXPECT_NEAR(gate->c1.y, -1.0, 1e-9);
  EXPECT_NEAR(gate->c2.y, -1.0, 1e-9);
}

TEST(GateSelection, ContainingEdgeForSideRobot) {
  const std::vector<Vec2> world = {{4, 0}, {0, 0}, {8, 0}, {4, 8}};
  const auto view = view_of(world, 0);
  ASSERT_EQ(view.role, Role::kSide);
  const auto edge = containing_hull_edge(view);
  ASSERT_TRUE(edge.has_value());
  // Both endpoints are on the x-axis in local coordinates.
  EXPECT_NEAR(edge->c1.y, 0.0, 1e-12);
  EXPECT_NEAR(edge->c2.y, 0.0, 1e-12);
}

TEST(GateBlocking, CloserRobotInTriangleBlocks) {
  // Observer at (5,3) (bottom edge nearest); robot at (5,1.5) is in the
  // triangle between the observer and that edge.
  const std::vector<Vec2> world = {{5, 3}, {0, 0}, {10, 0}, {5, 10}, {5, 1.5}};
  const auto view = view_of(world, 0);
  const auto gate = GateTable(view).nearest_edge(view.self());
  ASSERT_TRUE(gate.has_value());
  EXPECT_TRUE(gate_blocked_by_closer_robot(view, *gate));
}

TEST(GateBlocking, EmptyTriangleDoesNotBlock) {
  const std::vector<Vec2> world = {{5, 1.5}, {0, 0}, {10, 0}, {5, 10}, {5, 3}};
  const auto view = view_of(world, 0);
  const auto gate = GateTable(view).nearest_edge(view.self());
  ASSERT_TRUE(gate.has_value());
  EXPECT_FALSE(gate_blocked_by_closer_robot(view, *gate));
}

TEST(LocalViewAccessors, HullPointsMatchIndices) {
  const std::vector<Vec2> world = {{5, 4}, {0, 0}, {10, 0}, {5, 10}};
  const auto view = view_of(world, 0);
  const auto hp = view.hull_points();
  ASSERT_EQ(hp.size(), view.hull.size());
  for (std::size_t k = 0; k < hp.size(); ++k) {
    EXPECT_EQ(hp[k], view.pts[view.hull[k]]);
  }
  EXPECT_EQ(view.count(), world.size());
  EXPECT_EQ(view.self(), (Vec2{0, 0}));
}


// The corner certificate decides kCorner in O(n) without building the hull;
// it must agree exactly with "the hull contains index 0", and every
// non-Corner view must still carry the full hull.
struct CertificateTally {
  int corners = 0;
  int others = 0;
};

void check_certificate(const std::vector<Vec2>& visible, CertificateTally& tally) {
  model::Snapshot snap;
  snap.reset(Light::kOff);
  for (const Vec2 p : visible) snap.push_visible(p, Light::kOff);
  const LocalView view = build_view(snap);
  if (view.role == Role::kAlone || view.role == Role::kLine ||
      view.role == Role::kLineEnd) {
    return;  // Decided before the certificate runs.
  }
  const auto hull = geom::convex_hull_indices(view.pts);
  const bool hull_has_self =
      std::find(hull.begin(), hull.end(), std::size_t{0}) != hull.end();
  EXPECT_EQ(view.role == Role::kCorner, hull_has_self) << "n=" << visible.size();
  if (view.role == Role::kCorner) {
    EXPECT_TRUE(view.hull.empty());
    ++tally.corners;
  } else {
    EXPECT_EQ(view.hull, hull);
    ++tally.others;
  }
}

/// Adds copies of the observer's own position (both zero signs).
void add_coincident(std::vector<Vec2>& pts, util::Prng& rng) {
  const std::uint64_t copies = rng.next_below(3);
  for (std::uint64_t c = 0; c < copies; ++c) {
    const Vec2 origin = rng.bernoulli(0.5) ? Vec2{0.0, 0.0} : Vec2{-0.0, -0.0};
    pts.insert(pts.begin() + static_cast<std::ptrdiff_t>(rng.next_below(pts.size() + 1)),
               origin);
  }
}

constexpr double kCertificateScales[] = {1e-3, 1.0, 1e6};

TEST(CornerCertificate, RandomViews) {
  util::Prng rng{11};
  CertificateTally tally;
  for (const double scale : kCertificateScales) {
    for (int trial = 0; trial < 600; ++trial) {
      // A shifted box: the origin ranges from deep inside to well outside.
      const double sx = rng.uniform(-1.5, 1.5), sy = rng.uniform(-1.5, 1.5);
      std::vector<Vec2> pts;
      const std::uint64_t n = 2 + rng.next_below(60);
      for (std::uint64_t i = 0; i < n; ++i) {
        pts.push_back(Vec2{rng.uniform(-1, 1) + sx, rng.uniform(-1, 1) + sy} * scale);
      }
      add_coincident(pts, rng);
      check_certificate(pts, tally);
    }
  }
  EXPECT_GT(tally.corners, 100);
  EXPECT_GT(tally.others, 100);
}

TEST(CornerCertificate, LatticeHalfPlanes) {
  // Lattice points in a closed half-plane a*i + b*j >= 0 through the origin:
  // exact collinearities everywhere, and the origin is a Corner exactly when
  // the boundary line holds points on at most one of its two rays.
  util::Prng rng{12};
  CertificateTally tally;
  for (const double scale : kCertificateScales) {
    for (int trial = 0; trial < 600; ++trial) {
      const auto a = rng.uniform_int(-3, 3);
      const auto b = rng.uniform_int(-3, 3);
      const double keep = rng.uniform(0.1, 1.0);
      std::vector<Vec2> pts;
      for (int i = -4; i <= 4; ++i) {
        for (int j = -4; j <= 4; ++j) {
          if ((i == 0 && j == 0) || a * i + b * j < 0 || !rng.bernoulli(keep)) continue;
          pts.push_back(Vec2{static_cast<double>(i), static_cast<double>(j)} * scale);
        }
      }
      if (pts.empty()) continue;
      add_coincident(pts, rng);
      check_certificate(pts, tally);
    }
  }
  EXPECT_GT(tally.corners, 100);
  EXPECT_GT(tally.others, 100);
}

TEST(CornerCertificate, CollinearButOne) {
  // Every point but one on a line — through the origin (one ray or both)
  // or beside it — with the odd point on either side.
  util::Prng rng{13};
  CertificateTally tally;
  for (const double scale : kCertificateScales) {
    for (int trial = 0; trial < 600; ++trial) {
      const Vec2 dir{static_cast<double>(rng.uniform_int(-3, 3)),
                     static_cast<double>(rng.uniform_int(1, 3))};
      const Vec2 offset = rng.bernoulli(0.5) ? Vec2{}
                                             : Vec2{static_cast<double>(rng.uniform_int(-2, 2)),
                                                    static_cast<double>(rng.uniform_int(-2, 2))};
      const bool both_rays = rng.bernoulli(0.5);
      std::vector<Vec2> pts;
      const std::uint64_t n = 1 + rng.next_below(12);
      for (std::uint64_t i = 0; i < n; ++i) {
        auto t = static_cast<double>(1 + rng.next_below(6));
        if (both_rays && rng.bernoulli(0.5)) t = -t;
        const Vec2 p = offset + dir * t;
        if (p != Vec2{}) pts.push_back(p * scale);
      }
      pts.push_back(Vec2{static_cast<double>(rng.uniform_int(-5, 5)),
                         static_cast<double>(rng.uniform_int(-5, 5))} *
                    scale);
      add_coincident(pts, rng);
      check_certificate(pts, tally);
    }
  }
  EXPECT_GT(tally.corners, 50);
  EXPECT_GT(tally.others, 50);
}

TEST(CornerCertificate, CircleThroughOrigin) {
  // Points on a circle through the origin: the rounded points are only
  // nearly concyclic, so the origin's neighbours make near-degenerate
  // orientations; optionally add the centre to make the origin lose or keep
  // its corner status by a hair.
  util::Prng rng{14};
  CertificateTally tally;
  for (const double scale : kCertificateScales) {
    for (int trial = 0; trial < 600; ++trial) {
      const double phi = rng.uniform(0.0, 6.283185307179586);
      const Vec2 centre = Vec2{std::cos(phi), std::sin(phi)} * scale;
      const double r = geom::norm(centre);
      std::vector<Vec2> pts;
      const std::uint64_t n = 2 + rng.next_below(40);
      const double spread = rng.bernoulli(0.5) ? 1e-6 : 3.0;
      for (std::uint64_t i = 0; i < n; ++i) {
        const double theta = phi + 3.141592653589793 + rng.uniform(-spread, spread);
        pts.push_back(centre + Vec2{std::cos(theta), std::sin(theta)} * r);
      }
      if (rng.bernoulli(0.3)) pts.push_back(centre);
      if (rng.bernoulli(0.3)) pts.push_back(centre * 2.0);
      add_coincident(pts, rng);
      check_certificate(pts, tally);
    }
  }
  EXPECT_GT(tally.corners, 100);
  EXPECT_GT(tally.others, 10);
}

TEST(CornerCertificate, LargeViewsTakeBothPhases) {
  // Views past the walk's golden-stride prefix, so the in-order sweep with
  // its vectorised in-cone skip decides them. Shifted disks, ring corners
  // (with and without robots inside), near-flat ring corners, ring corners
  // with one robot just beyond or just inside the tangent line at the
  // observer, and cones whose extreme ray holds a robot with a twin a
  // subnormal beyond it, which the skip must hand to the exact cone.
  util::Prng rng{15};
  CertificateTally tally;
  for (const double scale : kCertificateScales) {
    for (int trial = 0; trial < 120; ++trial) {
      const std::uint64_t n = 65 + rng.next_below(600);
      std::vector<Vec2> pts;
      switch (trial % 4) {
        case 3: {
          const double opening = rng.uniform(0.5, 3.0);
          for (std::uint64_t i = 0; i < n; ++i) {
            const double theta = rng.uniform(0.0, opening);
            pts.push_back(Vec2{std::cos(theta), std::sin(theta)} * rng.uniform(0.5, 2.0) * scale);
          }
          const double t = rng.uniform(0.5, 2.0) * scale;
          pts.insert(pts.begin(), Vec2{t, 0.0});
          pts.push_back(Vec2{t, -std::numeric_limits<double>::denorm_min()});
          break;
        }
        case 0: {
          const double sx = rng.uniform(-1.5, 1.5), sy = rng.uniform(-1.5, 1.5);
          for (std::uint64_t i = 0; i < n; ++i) {
            pts.push_back(Vec2{rng.uniform(-1, 1) + sx, rng.uniform(-1, 1) + sy} * scale);
          }
          break;
        }
        default: {
          // The observer is vertex 0 of a ring through the origin: a full
          // unit ring of n vertices, or the quarter nearest the observer of
          // 4n vertices on a ring of radius 1e4, where every angle is nearly
          // straight.
          const double r = trial % 4 == 1 ? 1.0 : 1e4;
          const double step = 6.283185307179586 / static_cast<double>(trial % 4 == 1 ? n : 4 * n);
          const auto vertex = [&](double k) {
            return Vec2{r * std::cos(k * step) - r, r * std::sin(k * step)};
          };
          for (std::uint64_t k = 1; k < n; ++k) {
            pts.push_back(vertex(static_cast<double>(k) - static_cast<double>(n) / 2.0) * scale);
          }
          if (rng.bernoulli(0.5)) pts.push_back(Vec2{-r, 0.0} * scale);  // The centre.
          if (rng.bernoulli(0.5)) {
            // Just beyond (or inside) the tangent line at the observer.
            const double x = (rng.bernoulli(0.5) ? 1e-9 : -1e-9) * r * step * step;
            pts.push_back(Vec2{x, rng.uniform(-1.0, 1.0) * r * step} * scale);
          }
        }
      }
      add_coincident(pts, rng);
      check_certificate(pts, tally);
    }
  }
  EXPECT_GT(tally.corners, 200);
  EXPECT_GT(tally.others, 15);
}

}  // namespace
}  // namespace lumen::core
