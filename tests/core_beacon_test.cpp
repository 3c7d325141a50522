// Beacon-insertion geometry tests: targets must land strictly outside the
// gate, keep every existing hull vertex a strict corner, give distinct
// movers distinct targets, and the special-case moves (side pop-out, line
// escape) must respect their own invariants.
#include "core/beacon.hpp"

#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "geom/hull.hpp"
#include "geom/predicates.hpp"
#include "model/snapshot.hpp"
#include "nearest_gate.hpp"
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

OwnedView view_of(const std::vector<Vec2>& world, std::size_t observer) {
  const model::LocalFrame frame{world[observer], 0.0, 1.0, false};
  OwnedView v;
  v.snap = testutil::snapshot_of(
      world, std::vector<Light>(world.size(), Light::kOff), observer, frame);
  static_cast<LocalView&>(v) = build_view(v.snap);
  return v;
}

TEST(InteriorInsertion, TargetOutsideGateKeepsHullStrict) {
  // Square with the observer inside near the bottom edge.
  const std::vector<Vec2> world = {{5, 2}, {0, 0}, {10, 0}, {10, 10}, {0, 10}};
  const auto view = view_of(world, 0);
  ASSERT_EQ(view.role, Role::kInterior);
  const auto gate = testutil::nearest_gate(view);
  ASSERT_TRUE(gate.has_value());
  const auto target = interior_insertion_target(view, *gate);
  ASSERT_TRUE(target.has_value());
  // Strictly outside the edge (below y = -2 in local frame).
  EXPECT_LT(target->y, -2.0);
  // Inserting the WORLD-mapped target keeps everyone a strict corner.
  std::vector<Vec2> new_world = {world[1], world[2], world[3], world[4]};
  new_world.push_back(world[0] + *target);  // Identity frame: local == offset.
  EXPECT_TRUE(geom::points_in_strictly_convex_position(new_world));
}

TEST(InteriorInsertion, RandomizedConvexityPreservation) {
  // Property sweep: for random interior observers in random convex worlds,
  // the insertion target extends the hull strictly.
  util::Prng rng{71};
  int tested = 0;
  for (int iter = 0; iter < 300 && tested < 120; ++iter) {
    const auto world =
        gen::generate(gen::ConfigFamily::kUniformDisk, 12,
                      1000 + static_cast<std::uint64_t>(iter));
    const auto hull = geom::convex_hull_indices(world);
    // Pick an interior robot if any.
    std::size_t interior = world.size();
    for (std::size_t i = 0; i < world.size(); ++i) {
      if (std::find(hull.begin(), hull.end(), i) == hull.end()) {
        interior = i;
        break;
      }
    }
    if (interior == world.size()) continue;
    const auto view = view_of(world, interior);
    if (view.role != Role::kInterior) continue;
    const auto gate = testutil::nearest_gate(view);
    if (!gate) continue;
    const auto target = interior_insertion_target(view, *gate);
    ASSERT_TRUE(target.has_value());
    ++tested;
    // The target is strictly outside the local hull.
    const auto hull_pts = view.hull_points();
    EXPECT_EQ(geom::classify_against_hull(hull_pts, *target),
              geom::HullPosition::kOutside)
        << "iter " << iter;
    // Every previous hull vertex remains a strict vertex after insertion.
    std::vector<Vec2> extended = hull_pts;
    extended.push_back(*target);
    const auto new_hull = geom::convex_hull_indices(extended);
    EXPECT_EQ(new_hull.size(), extended.size()) << "iter " << iter;
  }
  EXPECT_GE(tested, 50);
}

TEST(InteriorInsertion, DistinctMoversGetDistinctTargets) {
  // Two observers near the same edge with different projections.
  const std::vector<Vec2> base = {{0, 0}, {10, 0}, {10, 10}, {0, 10}};
  util::Prng rng{5};
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<Vec2> world_a = base;
    std::vector<Vec2> world_b = base;
    const Vec2 pa{rng.uniform(1, 9), rng.uniform(0.5, 3)};
    Vec2 pb{rng.uniform(1, 9), rng.uniform(0.5, 3)};
    if (pa.x == pb.x) pb.x += 0.25;
    world_a.insert(world_a.begin(), pa);
    world_b.insert(world_b.begin(), pb);
    const auto va = view_of(world_a, 0);
    const auto vb = view_of(world_b, 0);
    const auto ga = testutil::nearest_gate(va);
    const auto gb = testutil::nearest_gate(vb);
    if (!ga || !gb) continue;
    const auto ta = interior_insertion_target(va, *ga);
    const auto tb = interior_insertion_target(vb, *gb);
    if (!ta || !tb) continue;
    // Map to world (identity frames centered at the observers).
    const Vec2 wa = pa + *ta;
    const Vec2 wb = pb + *tb;
    EXPECT_GT(geom::distance(wa, wb), 1e-9) << "iter " << iter;
  }
}

TEST(InteriorInsertion, ProjectionsBeyondEdgeEndsStillDistinct) {
  // The regression behind the identical-target collision: observers whose
  // feet fall BEYOND the same edge end must not collapse onto one target.
  const std::vector<Vec2> base = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  std::vector<Vec2> world_a = base;
  std::vector<Vec2> world_b = base;
  // Both observers project beyond x=4 relative to the bottom edge... their
  // nearest edge is the right one, so craft feet beyond y-ends instead:
  // use points near the bottom-left, projecting beyond x=0.
  world_a.insert(world_a.begin(), Vec2{0.4, 0.3});
  world_b.insert(world_b.begin(), Vec2{0.2, 0.35});
  const auto va = view_of(world_a, 0);
  const auto vb = view_of(world_b, 0);
  const auto ga = testutil::nearest_gate(va);
  const auto gb = testutil::nearest_gate(vb);
  ASSERT_TRUE(ga && gb);
  const auto ta = interior_insertion_target(va, *ga);
  const auto tb = interior_insertion_target(vb, *gb);
  ASSERT_TRUE(ta && tb);
  const Vec2 wa = Vec2{0.4, 0.3} + *ta;
  const Vec2 wb = Vec2{0.2, 0.35} + *tb;
  EXPECT_GT(geom::distance(wa, wb), 1e-6);
}

TEST(SidePopout, PerpendicularAndOutward) {
  const std::vector<Vec2> world = {{4, 0}, {0, 0}, {8, 0}, {4, 8}};
  const auto view = view_of(world, 0);
  ASSERT_EQ(view.role, Role::kSide);
  const auto edge = containing_hull_edge(view);
  ASSERT_TRUE(edge.has_value());
  const auto target = side_popout_target(view, *edge);
  ASSERT_TRUE(target.has_value());
  // All other robots have y >= 0 locally; outward is negative y.
  EXPECT_LT(target->y, 0.0);
  // Perpendicular: x unchanged.
  EXPECT_NEAR(target->x, 0.0, 1e-12);
  // Popping out puts the whole configuration in strictly convex position.
  std::vector<Vec2> popped = {world[1], world[2], world[3], world[0] + *target};
  EXPECT_TRUE(geom::points_in_strictly_convex_position(popped));
}

TEST(SidePopout, TwoPoppersSameEdgeParallelPaths) {
  const std::vector<Vec2> world_a = {{3, 0}, {0, 0}, {9, 0}, {4, 9}, {6, 0}};
  const std::vector<Vec2> world_b = {{6, 0}, {0, 0}, {9, 0}, {4, 9}, {3, 0}};
  const auto va = view_of(world_a, 0);
  const auto vb = view_of(world_b, 0);
  ASSERT_EQ(va.role, Role::kSide);
  ASSERT_EQ(vb.role, Role::kSide);
  const auto ea = containing_hull_edge(va);
  const auto eb = containing_hull_edge(vb);
  ASSERT_TRUE(ea && eb);
  const auto ta = side_popout_target(va, *ea);
  const auto tb = side_popout_target(vb, *eb);
  ASSERT_TRUE(ta && tb);
  // Both pop perpendicular (x unchanged in their local frames): paths are
  // parallel segments at distinct world x -> can never cross.
  EXPECT_NEAR(ta->x, 0.0, 1e-12);
  EXPECT_NEAR(tb->x, 0.0, 1e-12);
  EXPECT_LT(ta->y, 0.0);
  EXPECT_LT(tb->y, 0.0);
}

TEST(LineEscape, PerpendicularByQuarterOfNearestDistance) {
  std::vector<Vec2> world;
  for (int i = 0; i < 5; ++i) world.push_back({static_cast<double>(2 * i), 0.0});
  const auto view = view_of(world, 2);
  ASSERT_EQ(view.role, Role::kLine);
  const Vec2 target = line_escape_target(view);
  // Nearest visible robot is at distance 2; escape by 0.5 perpendicular.
  EXPECT_NEAR(std::fabs(target.y), 0.5, 1e-12);
  EXPECT_NEAR(target.x, 0.0, 1e-12);
}

TEST(LineEscape, AloneStaysPut) {
  const std::vector<Vec2> pts = {Vec2{}};
  const std::vector<Light> lights = {Light::kOff};
  LocalView view;
  view.pts = pts;
  view.lights = lights;
  EXPECT_EQ(line_escape_target(view), (Vec2{}));
}

TEST(PlanExits, PerpendicularPlansNearestFirstWithValidFeet) {
  // Square of Corner-lit anchors, observer near the bottom edge.
  const std::vector<Vec2> world = {{5, 2}, {0, 0}, {10, 0}, {10, 10}, {0, 10}};
  std::vector<Light> lights(world.size(), Light::kCorner);
  lights[0] = Light::kInterior;
  const model::LocalFrame frame{world[0], 0.0, 1.0, false};
  const auto snap = testutil::snapshot_of(world, lights, 0, frame);
  const auto view = build_view(snap);
  const auto plans = plan_exits(view, view.self());
  ASSERT_FALSE(plans.empty());
  // Nearest-first ordering.
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LE(plans[i - 1].gate.distance, plans[i].gate.distance);
  }
  // The first plan is the bottom edge; its target sits on the observer's
  // own column (perpendicular approach), strictly outside.
  const auto& best = plans.front();
  EXPECT_NEAR(best.gate.distance, 2.0, 1e-9);
  EXPECT_NEAR(best.target.x, 0.0, 1e-9);
  EXPECT_LT(best.target.y, -2.0);
  EXPECT_NEAR(best.exit_distance, geom::distance(view.self(), best.target), 1e-12);
}

TEST(PlanExits, RequiresCornerLitAnchors) {
  const std::vector<Vec2> world = {{5, 2}, {0, 0}, {10, 0}, {10, 10}, {0, 10}};
  const model::LocalFrame frame{world[0], 0.0, 1.0, false};
  const auto snap = testutil::snapshot_of(
      world, std::vector<Light>(world.size(), Light::kOff), 0, frame);
  const auto view = build_view(snap);
  EXPECT_TRUE(plan_exits(view, view.self()).empty());
}

TEST(PlanExits, FootOutsideBandSkipsThatEdge) {
  // Observer in the notch outside the central band of the bottom edge: its
  // projection onto the bottom edge is at t = 0.02 (below 0.08), so the
  // bottom edge must NOT appear among its plans.
  const std::vector<Vec2> world = {{0.2, 1.5}, {0, 0}, {10, 0}, {10, 10}, {0, 10}};
  std::vector<Light> lights(world.size(), Light::kCorner);
  lights[0] = Light::kInterior;
  const model::LocalFrame frame{world[0], 0.0, 1.0, false};
  const auto snap = testutil::snapshot_of(world, lights, 0, frame);
  const auto view = build_view(snap);
  for (const auto& plan : plan_exits(view, view.self())) {
    // Local frame: the bottom edge lies at y == -1.5.
    const bool is_bottom =
        std::fabs(plan.gate.c1.y + 1.5) < 1e-9 && std::fabs(plan.gate.c2.y + 1.5) < 1e-9;
    EXPECT_FALSE(is_bottom);
  }
}

TEST(PlanExits, TargetsExtendHullStrictly) {
  // Property sweep mirroring the diagonal test, for perpendicular plans.
  int tested = 0;
  for (int iter = 0; iter < 200 && tested < 80; ++iter) {
    const auto world = gen::generate(gen::ConfigFamily::kUniformDisk, 14,
                                     5000 + static_cast<std::uint64_t>(iter));
    const auto hull = geom::convex_hull_indices(world);
    std::size_t interior = world.size();
    for (std::size_t i = 0; i < world.size(); ++i) {
      if (std::find(hull.begin(), hull.end(), i) == hull.end()) {
        interior = i;
        break;
      }
    }
    if (interior == world.size()) continue;
    std::vector<Light> lights(world.size(), Light::kCorner);
    lights[interior] = Light::kInterior;
    const model::LocalFrame frame{world[interior], 0.0, 1.0, false};
    const auto snap = testutil::snapshot_of(world, lights, interior, frame);
    const auto view = build_view(snap);
    if (view.role != Role::kInterior) continue;
    for (const auto& plan : plan_exits(view, view.self())) {
      ++tested;
      std::vector<Vec2> extended = view.hull_points();
      extended.push_back(plan.target);
      EXPECT_EQ(geom::convex_hull_indices(extended).size(), extended.size())
          << "iter " << iter;
    }
  }
  EXPECT_GE(tested, 40);
}

TEST(InteriorInsertion, DegenerateGateRejected) {
  const std::vector<Vec2> pts = {Vec2{}, Vec2{1, 1}, Vec2{1, 1}};
  const std::vector<Light> lights = {Light::kOff, Light::kCorner,
                                     Light::kCorner};
  LocalView view;
  view.pts = pts;
  view.lights = lights;
  const GateEdge gate{1, 2, {1, 1}, {1, 1}, 0.0};
  EXPECT_FALSE(interior_insertion_target(view, gate).has_value());
  EXPECT_FALSE(side_popout_target(view, gate).has_value());
}

}  // namespace
}  // namespace lumen::core
