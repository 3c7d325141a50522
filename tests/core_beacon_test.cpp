// Beacon-insertion geometry tests: targets must land strictly outside the
// gate, keep every existing hull vertex a strict corner, give distinct
// movers distinct targets, and the special-case moves (side pop-out, line
// escape) must respect their own invariants.
#include "core/beacon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "gen/generators.hpp"
#include "geom/hull.hpp"
#include "geom/predicates.hpp"
#include "geom/segment.hpp"
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
  const auto gate = GateTable(view).nearest_edge(view.self());
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
    const auto gate = GateTable(view).nearest_edge(view.self());
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
    const auto ga = GateTable(va).nearest_edge(va.self());
    const auto gb = GateTable(vb).nearest_edge(vb.self());
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
  const auto ga = GateTable(va).nearest_edge(va.self());
  const auto gb = GateTable(vb).nearest_edge(vb.self());
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

/// The observer's own exit plans, from a table built for this one call.
std::vector<ExitPlan> own_plans(const LocalView& view) {
  std::vector<ExitPlan> plans;
  GateTable(view).plan_exits(view.self(), plans);
  return plans;
}

TEST(PlanExits, PerpendicularPlansNearestFirstWithValidFeet) {
  // Square of Corner-lit anchors, observer near the bottom edge.
  const std::vector<Vec2> world = {{5, 2}, {0, 0}, {10, 0}, {10, 10}, {0, 10}};
  std::vector<Light> lights(world.size(), Light::kCorner);
  lights[0] = Light::kInterior;
  const model::LocalFrame frame{world[0], 0.0, 1.0, false};
  const auto snap = testutil::snapshot_of(world, lights, 0, frame);
  const auto view = build_view(snap);
  const auto plans = own_plans(view);
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
  EXPECT_TRUE(own_plans(view).empty());
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
  for (const auto& plan : own_plans(view)) {
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
    for (const auto& plan : own_plans(view)) {
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

// --- the gate table against the per-call planner ----------------------------

// The exit planner as it was before the GateTable: every call re-derives each
// gate's length, unit direction, witness and outward normal. GateTable's
// plan_exits reads them from the table, so it must agree with this copy bit
// for bit.
namespace oracle {

double tri(Vec2 a, Vec2 b, Vec2 c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

double wedge_bound(Vec2 u, Vec2 v, Vec2 base, Vec2 n) {
  const double a0 = tri(u, v, base);
  const double slope = tri(u, v, base + n) - a0;
  if (slope >= 0.0) return std::numeric_limits<double>::infinity();
  if (a0 <= 0.0) return 0.0;
  return a0 / -slope;
}

double adjacent_wedge_bound(const LocalView& view, const GateEdge& gate, Vec2 base, Vec2 n) {
  double h_wedge = std::numeric_limits<double>::infinity();
  const std::size_t h = view.hull.size();
  if (gate.k == kNoHullPosition || h < 3) return h_wedge;
  const Vec2 c0 = view.pts[view.hull[(gate.k + h - 1) % h]];
  h_wedge = std::min(h_wedge, wedge_bound(c0, gate.c1, base, n));
  const Vec2 c3 = view.pts[view.hull[(gate.k + 2) % h]];
  return std::min(h_wedge, wedge_bound(gate.c2, c3, base, n));
}

std::optional<Vec2> perpendicular_target(const LocalView& view, const GateEdge& gate,
                                         Vec2 from, Vec2 interior_witness) {
  const Vec2 d = gate.c2 - gate.c1;
  const double len = geom::norm(d);
  if (len <= 0.0) return std::nullopt;
  const Vec2 u = d / len;
  Vec2 n{u.y, -u.x};
  if (geom::dot(n, interior_witness - gate.c1) > 0.0) n = -n;
  const double t_raw = geom::dot(from - gate.c1, u) / len;
  if (t_raw < 0.08 || t_raw > 0.92) return std::nullopt;
  const Vec2 base = gate.c1 + u * (t_raw * len);
  const double h_wedge = adjacent_wedge_bound(view, gate, base, n);
  double h_cap = 0.25 * len;
  if (std::isfinite(h_wedge)) h_cap = std::min(h_cap, 0.45 * h_wedge);
  if (h_cap <= len * 1e-12) h_cap = 0.05 * len;
  const double height = h_cap * (0.4 + 0.5 * t_raw);
  return base + n * height;
}

std::vector<ExitPlan> per_call_plans(const LocalView& view, Vec2 from) {
  std::vector<ExitPlan> plans;
  const std::size_t h = view.hull.size();
  if (h < 3) return plans;
  Vec2 witness{};
  for (const std::size_t k : view.hull) witness += view.pts[k];
  witness = witness / static_cast<double>(h);
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    if (i1 == 0 || i2 == 0) continue;
    if (view.lights[i1] != Light::kCorner || view.lights[i2] != Light::kCorner) continue;
    const geom::Segment edge{view.pts[i1], view.pts[i2]};
    GateEdge gate{i1, i2, edge.a, edge.b, 0.0, k};
    const auto target = perpendicular_target(view, gate, from, witness);
    if (!target) continue;
    gate.distance = geom::point_segment_distance(edge, from);
    plans.push_back(ExitPlan{gate, *target, geom::distance(from, *target)});
  }
  std::sort(plans.begin(), plans.end(), [](const ExitPlan& a, const ExitPlan& b) {
    return a.gate.distance < b.gate.distance;
  });
  return plans;
}

}  // namespace oracle

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_plan(const ExitPlan& a, const ExitPlan& b) {
  return a.gate.i1 == b.gate.i1 && a.gate.i2 == b.gate.i2 && a.gate.k == b.gate.k &&
         a.gate.c1 == b.gate.c1 && a.gate.c2 == b.gate.c2 &&
         same_bits(a.gate.distance, b.gate.distance) &&
         same_bits(a.target.x, b.target.x) && same_bits(a.target.y, b.target.y) &&
         same_bits(a.exit_distance, b.exit_distance);
}

TEST(PlanExits, TableMatchesPerCallOracle) {
  // Random views — a ring of mostly Corner-lit anchors around interior
  // robots, a few outside the hull mid-flight — planned for EVERY robot in
  // them, as arbitration models rivals: the table-driven planner, through a
  // table built per call and through one table reused for all subjects,
  // must return the per-call planner's plans bit for bit.
  util::Prng rng{606};
  std::size_t compared = 0;
  std::size_t planned = 0;
  for (const double scale : {1e-3, 1.0, 1e6}) {
    for (int trial = 0; trial < 60; ++trial) {
      const Vec2 centre{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
      std::vector<Vec2> world;
      std::vector<Light> lights;
      const std::uint64_t ring = 3 + rng.next_below(60);
      for (std::uint64_t k = 0; k < ring; ++k) {
        const double theta = rng.uniform(0.0, 6.283185307179586);
        world.push_back(centre + Vec2{std::cos(theta), std::sin(theta)});
        lights.push_back(rng.bernoulli(0.85) ? Light::kCorner : Light::kOff);
      }
      const std::uint64_t inside = 1 + rng.next_below(40);
      for (std::uint64_t i = 0; i < inside; ++i) {
        Vec2 p{rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)};
        if (rng.bernoulli(0.1)) p = p * 1.5;  // Beyond the ring, in flight.
        world.push_back(centre + p);
        lights.push_back(rng.bernoulli(0.5) ? Light::kTransit : Light::kInterior);
      }
      for (Vec2& p : world) p = p * scale;
      const std::size_t observer = ring + rng.next_below(inside);
      const model::LocalFrame frame{world[observer], 0.0, 1.0, false};
      const auto snap = testutil::snapshot_of(world, lights, observer, frame);
      const LocalView view = build_view(snap);
      if (view.role != Role::kInterior) continue;
      const GateTable table(view);
      std::vector<ExitPlan> reused;
      for (std::size_t subject = 0; subject < view.count(); ++subject) {
        const Vec2 from = view.pts[subject];
        const auto expected = oracle::per_call_plans(view, from);
        std::vector<ExitPlan> wrapped;
        GateTable(view).plan_exits(from, wrapped);
        table.plan_exits(from, reused);
        ASSERT_EQ(expected.size(), wrapped.size()) << "scale " << scale << " trial " << trial;
        ASSERT_EQ(expected.size(), reused.size()) << "scale " << scale << " trial " << trial;
        for (std::size_t p = 0; p < expected.size(); ++p) {
          EXPECT_TRUE(same_plan(expected[p], wrapped[p]))
              << "scale " << scale << " trial " << trial << " subject " << subject;
          EXPECT_TRUE(same_plan(expected[p], reused[p]))
              << "scale " << scale << " trial " << trial << " subject " << subject;
        }
        ++compared;
        planned += expected.size();
      }
    }
  }
  EXPECT_GT(compared, 2000u);
  EXPECT_GT(planned, 2000u);
}

TEST(GateTable, NearestEdgeDistanceMatchesFullScan) {
  // The pruned minimum must equal the full scan over every hull edge bit
  // for bit: at every robot of random views, at random points inside and
  // outside the hull, and at points ulps from an edge's interior or ends.
  util::Prng rng{707};
  std::size_t compared = 0;
  for (const double scale : {1e-3, 1.0, 1e6}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<Vec2> world;
      const std::uint64_t ring = 3 + rng.next_below(80);
      for (std::uint64_t k = 0; k < ring; ++k) {
        const double theta = rng.uniform(0.0, 6.283185307179586);
        world.push_back(Vec2{std::cos(theta), std::sin(theta)} * scale);
      }
      world.push_back(Vec2{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)} * scale);
      const std::size_t observer = world.size() - 1;
      const model::LocalFrame frame{world[observer], 0.0, 1.0, false};
      const auto snap = testutil::snapshot_of(
          world, std::vector<Light>(world.size(), Light::kCorner), observer, frame);
      const LocalView view = build_view(snap);
      if (view.hull.size() < 3) continue;
      const GateTable table(view);
      std::vector<Vec2> probes(view.pts.begin(), view.pts.end());
      for (int i = 0; i < 60; ++i) {
        probes.push_back(Vec2{rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)} * scale);
        const geom::Segment& e = table.edge(rng.next_below(table.edge_count()));
        Vec2 q = geom::lerp(e.a, e.b, rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 1.0));
        for (std::uint64_t u = rng.next_below(4); u > 0; --u) {
          q.x = std::nextafter(q.x, rng.bernoulli(0.5) ? 1e300 : -1e300);
          q.y = std::nextafter(q.y, rng.bernoulli(0.5) ? 1e300 : -1e300);
        }
        probes.push_back(q);
      }
      const std::size_t h = view.hull.size();
      for (const Vec2 p : probes) {
        double expected = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < h; ++k) {
          const geom::Segment e{view.pts[view.hull[k]], view.pts[view.hull[(k + 1) % h]]};
          expected = std::min(expected, geom::point_segment_distance(e, p));
        }
        EXPECT_TRUE(same_bits(expected, table.nearest_edge_distance(p)))
            << "scale " << scale << " trial " << trial;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 10000u);
}

// --- GateTable's gate picks against the per-edge scans they replaced --------

namespace oracle {

/// The per-edge scan the algorithms used to pick their gates with: the
/// nearest hull edge not incident to the observer (only Corner-lit ones
/// when `corner_lit_only`), the first in hull order on ties.
std::optional<GateEdge> scan_nearest(const LocalView& view, Vec2 p, bool corner_lit_only) {
  const std::size_t h = view.hull.size();
  if (h < 3) return std::nullopt;
  std::optional<GateEdge> best;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    if (i1 == 0 || i2 == 0) continue;
    if (corner_lit_only &&
        (view.lights[i1] != Light::kCorner || view.lights[i2] != Light::kCorner)) {
      continue;
    }
    const geom::Segment e{view.pts[i1], view.pts[i2]};
    const double d = geom::point_segment_distance(e, p);
    if (d < best_dist) {
      best_dist = d;
      best = GateEdge{i1, i2, e.a, e.b, d, k};
    }
  }
  return best;
}

}  // namespace oracle

bool same_gate(const std::optional<GateEdge>& a, const std::optional<GateEdge>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->i1 == b->i1 && a->i2 == b->i2 && a->k == b->k && a->c1 == b->c1 &&
                a->c2 == b->c2 && same_bits(a->distance, b->distance));
}

/// Compares both gate picks with the scans at every robot of `view` and at
/// `extra` random probes around it; returns the number of comparisons.
std::size_t compare_gate_picks(const LocalView& view, util::Prng& rng, double scale,
                               int extra) {
  const GateTable table(view);
  std::vector<Vec2> probes(view.pts.begin(), view.pts.end());
  for (int i = 0; i < extra; ++i) {
    probes.push_back(Vec2{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)} * scale);
  }
  for (const Vec2 p : probes) {
    EXPECT_TRUE(same_gate(table.nearest_edge(p), oracle::scan_nearest(view, p, false)))
        << "scale " << scale << " probe " << p.x << "," << p.y;
    EXPECT_TRUE(same_gate(table.nearest_gate(p), oracle::scan_nearest(view, p, true)))
        << "scale " << scale << " probe " << p.x << "," << p.y;
  }
  return probes.size();
}

TEST(GateTable, GatePicksMatchThePerEdgeScans) {
  // Interior views (a ring around the observer) and side views (the
  // observer exactly on a rectangle's bottom edge), with mixed lights, at
  // three scales: nearest_edge and nearest_gate prune with certified bounds
  // and must still pick the scans' edge with the same distance bits.
  util::Prng rng{808};
  std::size_t interior = 0;
  std::size_t side = 0;
  std::size_t compared = 0;
  for (const double scale : {1e-3, 1.0, 1e6}) {
    for (int trial = 0; trial < 80; ++trial) {
      const bool side_view = trial % 2 == 1;
      std::vector<Vec2> world;
      std::vector<Light> lights;
      const auto anchor_light = [&] {
        return rng.bernoulli(0.8) ? Light::kCorner : Light::kOff;
      };
      if (side_view) {
        const Vec2 half{rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)};
        world.push_back(Vec2{rng.uniform(-0.9, 0.9) * half.x, -half.y});  // Observer.
        lights.push_back(Light::kSide);
        for (const Vec2 sign : {Vec2{-1, -1}, Vec2{1, -1}, Vec2{1, 1}, Vec2{-1, 1}}) {
          world.push_back(Vec2{sign.x * half.x, sign.y * half.y});
          lights.push_back(anchor_light());
        }
        for (std::uint64_t k = rng.next_below(12); k > 0; --k) {  // Above the top.
          const double theta = rng.uniform(0.2, 2.9);
          world.push_back(Vec2{std::cos(theta) * half.x, half.y + std::sin(theta)});
          lights.push_back(anchor_light());
        }
      } else {
        world.push_back(Vec2{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)});
        lights.push_back(Light::kInterior);
        for (std::uint64_t k = 3 + rng.next_below(60); k > 0; --k) {
          const double theta = rng.uniform(0.0, 6.283185307179586);
          world.push_back(Vec2{std::cos(theta), std::sin(theta)});
          lights.push_back(anchor_light());
        }
      }
      for (std::uint64_t i = rng.next_below(20); i > 0; --i) {  // Parked inside.
        world.push_back(Vec2{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)});
        constexpr Light kInside[] = {Light::kOff, Light::kInterior, Light::kTransit,
                                     Light::kMoving};
        lights.push_back(kInside[rng.next_below(4)]);
      }
      for (Vec2& p : world) p = p * scale;
      const model::LocalFrame frame{world[0], 0.0, 1.0, false};
      const auto snap = testutil::snapshot_of(world, lights, 0, frame);
      const LocalView view = build_view(snap);
      if (view.role != (side_view ? Role::kSide : Role::kInterior)) continue;
      ASSERT_EQ(std::find(view.hull.begin(), view.hull.end(), 0u), view.hull.end());
      (side_view ? side : interior) += 1;
      compared += compare_gate_picks(view, rng, scale, 40);
    }
  }
  EXPECT_GT(interior, 100u);
  EXPECT_GT(side, 100u);
  EXPECT_GT(compared, 10000u);
}

TEST(GateTable, ExactTiesPickTheFirstEdgeInHullOrder) {
  // An observer at the centre of a square is exactly as far from all four
  // edges, at every scale: both picks return hull edge 0, and nearest_gate
  // the first edge whose anchors are both Corner-lit.
  util::Prng rng{909};
  std::size_t later_gates = 0;  // Ties won past an ineligible edge 0.
  for (const double scale : {1e-3, 1.0, 1e6}) {
    for (std::size_t off = 0; off <= 4; ++off) {
      const std::vector<Vec2> world = {Vec2{0, 0} * scale, Vec2{-1, -1} * scale,
                                       Vec2{1, -1} * scale, Vec2{1, 1} * scale,
                                       Vec2{-1, 1} * scale};
      std::vector<Light> lights(world.size(), Light::kCorner);
      lights[0] = Light::kInterior;
      if (off < 4) lights[1 + off] = Light::kOff;  // One anchor not yet a corner.
      const model::LocalFrame frame{world[0], 0.0, 1.0, false};
      const auto snap = testutil::snapshot_of(world, lights, 0, frame);
      const LocalView view = build_view(snap);
      ASSERT_EQ(view.role, Role::kInterior);
      const GateTable table(view);
      const std::size_t h = view.hull.size();
      ASSERT_EQ(h, 4u);
      for (std::size_t k = 1; k < h; ++k) {  // An exact four-way tie.
        ASSERT_TRUE(same_bits(geom::point_segment_distance(table.edge(k), view.self()),
                              geom::point_segment_distance(table.edge(0), view.self())));
      }
      const auto edge = table.nearest_edge(view.self());
      ASSERT_TRUE(edge.has_value());
      EXPECT_EQ(edge->k, 0u) << "scale " << scale;
      const auto gate = table.nearest_gate(view.self());
      ASSERT_TRUE(gate.has_value());
      // The first eligible edge in hull order: both its anchors are
      // Corner-lit, and every earlier edge has an Off anchor.
      const auto eligible = [&](std::size_t k) {
        return view.lights[view.hull[k]] == Light::kCorner &&
               view.lights[view.hull[(k + 1) % h]] == Light::kCorner;
      };
      EXPECT_TRUE(eligible(gate->k));
      for (std::size_t k = 0; k < gate->k; ++k) {
        EXPECT_FALSE(eligible(k)) << "scale " << scale << " off " << off << " edge " << k;
      }
      if (off == 4) {
        EXPECT_EQ(gate->k, 0u);
      }
      if (gate->k != 0) ++later_gates;
      compare_gate_picks(view, rng, scale, 20);
    }
  }
  EXPECT_GT(later_gates, 0u);
}

}  // namespace
}  // namespace lumen::core
