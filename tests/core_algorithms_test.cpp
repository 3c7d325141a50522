// Unit tests of the three algorithms' Compute rules on hand-built
// snapshots: who stays, who announces, who moves, and what colors they show.
#include "core/baseline_sequential.hpp"
#include "core/cv_async.hpp"
#include "core/registry.hpp"
#include "core/ssync_parallel.hpp"

#include <gtest/gtest.h>

#include "core/beacon.hpp"
#include "core/view.hpp"
#include "geom/segment.hpp"
#include "model/snapshot.hpp"
#include "util/prng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

namespace lumen::core {
namespace {

using geom::Vec2;
using model::Action;
using model::Light;
using model::Snapshot;

struct SnapshotEntry {
  Vec2 position;
  Light light;
};

Snapshot make_snapshot(Light self, std::vector<SnapshotEntry> visible) {
  Snapshot snap;
  snap.reset(self);
  for (const SnapshotEntry& e : visible) {
    snap.push_visible(e.position, e.light);
  }
  return snap;
}

TEST(Registry, KnownNamesConstruct) {
  for (const auto& name : algorithm_names()) {
    const auto algo = make_algorithm(name);
    ASSERT_NE(algo, nullptr);
    EXPECT_EQ(algo->name(), name);
    EXPECT_FALSE(algo->palette().empty());
    EXPECT_LE(algo->palette().size(), model::kLightCount);
  }
}

TEST(Registry, UnknownNameThrowsListingValid) {
  try {
    (void)make_algorithm("nope");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("async-log"), std::string::npos);
  }
}

class AllAlgorithmsTest : public ::testing::TestWithParam<std::string> {
 protected:
  model::AlgorithmPtr algo_ = make_algorithm(GetParam());
};

TEST_P(AllAlgorithmsTest, AloneRobotStaysAsCorner) {
  const Action a = algo_->compute(make_snapshot(Light::kOff, {}));
  EXPECT_FALSE(a.moves());
  EXPECT_EQ(a.light, Light::kCorner);
}

TEST_P(AllAlgorithmsTest, CornerOfTriangleStays) {
  const Action a = algo_->compute(make_snapshot(
      Light::kOff, {{{4, 0}, Light::kOff}, {{2, 3}, Light::kOff}}));
  EXPECT_FALSE(a.moves());
  EXPECT_EQ(a.light, Light::kCorner);
}

TEST_P(AllAlgorithmsTest, LineEndpointHoldsStill) {
  const Action a = algo_->compute(make_snapshot(
      Light::kOff, {{{1, 0}, Light::kOff}}));
  EXPECT_FALSE(a.moves());
  EXPECT_EQ(a.light, Light::kLineEnd);
}

TEST_P(AllAlgorithmsTest, LineMiddleEscapesPerpendicular) {
  const Action a = algo_->compute(make_snapshot(
      Light::kOff, {{{-2, 0}, Light::kOff}, {{2, 0}, Light::kOff}}));
  EXPECT_TRUE(a.moves());
  EXPECT_EQ(a.light, Light::kLine);
  EXPECT_NEAR(a.target.x, 0.0, 1e-12);
  EXPECT_NEAR(std::fabs(a.target.y), 0.5, 1e-12);
}

TEST_P(AllAlgorithmsTest, DeterministicOnIdenticalSnapshots) {
  const Snapshot snap = make_snapshot(
      Light::kInterior, {{{4, 0}, Light::kCorner},
                         {{0, 4}, Light::kCorner},
                         {{-4, -4}, Light::kCorner}});
  const Action a = algo_->compute(snap);
  const Action b = algo_->compute(snap);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.light, b.light);
}

TEST_P(AllAlgorithmsTest, EmitsOnlyPaletteColors) {
  const auto palette = algo_->palette();
  const auto in_palette = [&](Light l) {
    return std::find(palette.begin(), palette.end(), l) != palette.end();
  };
  const std::vector<Snapshot> snaps = {
      make_snapshot(Light::kOff, {}),
      make_snapshot(Light::kOff, {{{1, 0}, Light::kOff}}),
      make_snapshot(Light::kOff, {{{-2, 0}, Light::kOff}, {{2, 0}, Light::kOff}}),
      make_snapshot(Light::kInterior, {{{4, 0}, Light::kCorner},
                                       {{0, 4}, Light::kCorner},
                                       {{-4, -4}, Light::kCorner}}),
  };
  for (const auto& snap : snaps) {
    EXPECT_TRUE(in_palette(algo_->compute(snap).light));
  }
}

INSTANTIATE_TEST_SUITE_P(All, AllAlgorithmsTest,
                         ::testing::Values("async-log", "seq-baseline",
                                           "ssync-parallel"));

// --- async-log specific handshake behaviour -------------------------------

// Interior robot surrounded by Corner-lit hull: first activation announces
// (kTransit, no move); with kTransit already set and no rivals, it moves.
TEST(CvAsync, TwoPhaseHandshake) {
  const CompleteVisibilityAsync algo;
  const std::vector<SnapshotEntry> corners = {{{4, -1}, Light::kCorner},
                                              {{-4, -1}, Light::kCorner},
                                              {{0, 6}, Light::kCorner}};
  // Phase 1: announce without moving.
  const Action phase1 = algo.compute(make_snapshot(Light::kInterior, corners));
  EXPECT_FALSE(phase1.moves());
  EXPECT_EQ(phase1.light, Light::kTransit);
  // Phase 2: fly through the nearest corner-lit edge (the bottom one),
  // switching to the flight light.
  const Action phase2 = algo.compute(make_snapshot(Light::kTransit, corners));
  EXPECT_TRUE(phase2.moves());
  EXPECT_EQ(phase2.light, Light::kMoving);
  EXPECT_LT(phase2.target.y, -1.0);  // Strictly outside the bottom edge.
}

TEST(CvAsync, InteriorDefersWithoutCornerLitGate) {
  const CompleteVisibilityAsync algo;
  const Action a = algo.compute(make_snapshot(
      Light::kOff, {{{4, -1}, Light::kOff},
                    {{-4, -1}, Light::kOff},
                    {{0, 6}, Light::kOff}}));
  EXPECT_FALSE(a.moves());
  EXPECT_EQ(a.light, Light::kInterior);
}

TEST(CvAsync, InteriorAnnouncesEvenWhenGateBusy) {
  const CompleteVisibilityAsync algo;
  // A Transit robot is already closest to the bottom edge; announcing
  // intent is stationary and always safe — only FLIGHT is arbitrated.
  const Action a = algo.compute(make_snapshot(
      Light::kInterior, {{{4, -2}, Light::kCorner},
                         {{-4, -2}, Light::kCorner},
                         {{0, 6}, Light::kCorner},
                         {{1, -1.5}, Light::kTransit}}));
  EXPECT_FALSE(a.moves());
  EXPECT_EQ(a.light, Light::kTransit);
}

TEST(CvAsync, RivalOnColumnForcesReplanToClearGate) {
  const CompleteVisibilityAsync algo;
  // A Transit rival sits almost exactly on my approach column to the
  // bottom gate: the corridor check rejects that plan, and the planner
  // falls through to a slant gate whose path stays clear of the rival.
  const geom::Vec2 rival{0.02, -1.5};
  const Action a = algo.compute(make_snapshot(
      Light::kTransit, {{{4, -2}, Light::kCorner},
                        {{-4, -2}, Light::kCorner},
                        {{0, 6}, Light::kCorner},
                        {rival, Light::kTransit}}));
  EXPECT_TRUE(a.moves());
  EXPECT_EQ(a.light, Light::kMoving);
  const geom::Segment flown{geom::Vec2{}, a.target};
  EXPECT_GT(geom::point_segment_distance(flown, rival), 0.1);
}

TEST(CvAsync, ColumnBlockedEverywhereWithdraws) {
  const CompleteVisibilityAsync algo;
  // Only the bottom gate is eligible (the slant edges share a non-Corner
  // vertex); a robot parked on my column blocks its corridor, and the
  // diagonal fallback is triangle-blocked by the same robot: the correct
  // move is to withdraw the intent entirely.
  const Action a = algo.compute(make_snapshot(
      Light::kTransit, {{{4, -2}, Light::kCorner},
                        {{-4, -2}, Light::kCorner},
                        {{0, 6}, Light::kInterior},
                        {{0.02, -1.5}, Light::kMoving}}));
  EXPECT_FALSE(a.moves());
  EXPECT_EQ(a.light, Light::kInterior);
}

TEST(CvAsync, ParallelColumnsFlyConcurrently) {
  const CompleteVisibilityAsync algo;
  // A Transit rival on a clearly different column: parallel approach paths
  // cannot cross, so both may fly.
  const Action a = algo.compute(make_snapshot(
      Light::kTransit, {{{4, -1}, Light::kCorner},
                        {{-4, -1}, Light::kCorner},
                        {{0, 6}, Light::kCorner},
                        {{2.0, -0.5}, Light::kTransit}}));
  EXPECT_TRUE(a.moves());
  EXPECT_EQ(a.light, Light::kMoving);
}

TEST(CvAsync, TransitWinsAgainstFartherRival) {
  const CompleteVisibilityAsync algo;
  // I am closer to the gate than the rival: I fly.
  const Action a = algo.compute(make_snapshot(
      Light::kTransit, {{{4, -1}, Light::kCorner},
                        {{-4, -1}, Light::kCorner},
                        {{0, 6}, Light::kCorner},
                        {{0.5, 3.0}, Light::kTransit}}));
  EXPECT_TRUE(a.moves());
  EXPECT_EQ(a.light, Light::kMoving);
}

TEST(CvAsync, InteriorDefersWhenCorridorBlockedAndNoOtherGate) {
  const CompleteVisibilityAsync algo;
  // An Off robot parks exactly on my approach column, and the slant edges
  // are ineligible (their shared top vertex is not Corner-lit): no clear
  // plan, withdraw to kInterior.
  const Action a = algo.compute(make_snapshot(
      Light::kInterior, {{{4, -1}, Light::kCorner},
                         {{-4, -1}, Light::kCorner},
                         {{0, 6}, Light::kInterior},
                         {{0.0, -0.5}, Light::kOff}}));
  EXPECT_FALSE(a.moves());
  EXPECT_EQ(a.light, Light::kInterior);
}

TEST(CvAsync, SideRobotPopsOut) {
  const CompleteVisibilityAsync algo;
  // On the open interior of the hull edge between (-4,0) and (4,0); third
  // robot above makes the view 2-D.
  const Action a = algo.compute(make_snapshot(
      Light::kOff, {{{-4, 0}, Light::kCorner},
                    {{4, 0}, Light::kCorner},
                    {{1, 5}, Light::kCorner}}));
  EXPECT_TRUE(a.moves());
  EXPECT_EQ(a.light, Light::kMoving);
  EXPECT_LT(a.target.y, 0.0);  // Away from the interior witness.
  EXPECT_NEAR(a.target.x, 0.0, 1e-12);
}

// --- async-log arbitration against an unpruned oracle ----------------------

// The Interior rule of CompleteVisibilityAsync::compute with no pruning at
// all: every corridor point takes the exact distance test and every rival
// pays the full nearest-edge minimum before the reach comparison. compute()
// prunes both with bounds that must never change a decision, so it has to
// agree with this reference bit for bit — the role visible_naive plays for
// the visibility kernel.
namespace oracle {

constexpr double kConflictMargin = 0.02;

std::optional<ExitPlan> first_clear_plan(const LocalView& view, std::size_t subject) {
  const Vec2 from = view.pts[subject];
  double nearest_sq = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < view.pts.size(); ++i) {
    if (i == subject) continue;
    nearest_sq = std::min(nearest_sq, geom::distance_sq(from, view.pts[i]));
  }
  const double corridor =
      std::isfinite(nearest_sq) ? 0.05 * std::sqrt(nearest_sq) : 0.0;
  std::vector<ExitPlan> plans;
  GateTable(view).plan_exits(from, plans);
  for (const ExitPlan& plan : plans) {
    const geom::Segment path{from, plan.target};
    bool clear = true;
    for (std::size_t i = 0; i < view.pts.size() && clear; ++i) {
      if (i == subject || i == plan.gate.i1 || i == plan.gate.i2) continue;
      if (geom::point_segment_distance(path, view.pts[i]) <= corridor) clear = false;
    }
    if (clear) return plan;
  }
  return std::nullopt;
}

std::optional<ExitPlan> diagonal_plan(const LocalView& view) {
  const std::size_t h = view.hull.size();
  if (h < 3) return std::nullopt;
  std::optional<GateEdge> best;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t i1 = view.hull[k];
    const std::size_t i2 = view.hull[(k + 1) % h];
    if (i1 == 0 || i2 == 0) continue;
    if (view.lights[i1] != Light::kCorner || view.lights[i2] != Light::kCorner) continue;
    const geom::Segment e{view.pts[i1], view.pts[i2]};
    const double d = geom::point_segment_distance(e, view.self());
    if (d < best_dist) {
      best_dist = d;
      best = GateEdge{i1, i2, e.a, e.b, d, k};
    }
  }
  if (!best || gate_blocked_by_closer_robot(view, *best)) return std::nullopt;
  const auto target = interior_insertion_target(view, *best);
  if (!target) return std::nullopt;
  return ExitPlan{*best, *target, geom::distance(view.self(), *target)};
}

double nearest_edge_distance(const LocalView& view, Vec2 p) {
  const std::size_t h = view.hull.size();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < h; ++k) {
    const geom::Segment e{view.pts[view.hull[k]], view.pts[view.hull[(k + 1) % h]]};
    best = std::min(best, geom::point_segment_distance(e, p));
  }
  return best;
}

Action interior(const LocalView& view, Light self_light) {
  auto plan = first_clear_plan(view, 0);
  const bool fallback = !plan.has_value();
  if (fallback) plan = diagonal_plan(view);
  if (!plan) return Action::stay(Light::kInterior);
  if (self_light != Light::kTransit) return Action::stay(Light::kTransit);
  if (fallback) {
    const double own = nearest_edge_distance(view, view.self());
    for (std::size_t i = 1; i < view.pts.size(); ++i) {
      if (view.lights[i] == Light::kMoving) return Action::stay(Light::kTransit);
      if (view.lights[i] == Light::kTransit &&
          nearest_edge_distance(view, view.pts[i]) <= own) {
        return Action::stay(Light::kTransit);
      }
    }
    return Action::move_to(plan->target, Light::kMoving);
  }
  const geom::Segment my_path{view.self(), plan->target};
  double longest_edge = 0.0;
  for (std::size_t k = 0; k < view.hull.size(); ++k) {
    longest_edge = std::max(
        longest_edge, geom::distance(view.pts[view.hull[k]],
                                     view.pts[view.hull[(k + 1) % view.hull.size()]]));
  }
  for (std::size_t i = 1; i < view.pts.size(); ++i) {
    const Light light = view.lights[i];
    if (light != Light::kTransit && light != Light::kMoving) continue;
    const Vec2 rival = view.pts[i];
    const double reach = nearest_edge_distance(view, rival) + 0.25 * longest_edge;
    const double gap = geom::point_segment_distance(my_path, rival);
    if (gap > reach + 0.1 * plan->exit_distance) continue;
    if (light == Light::kMoving &&
        geom::point_segment_distance(geom::Segment{view.self(), plan->target}, rival) <=
            0.03 * plan->exit_distance) {
      return Action::stay(Light::kTransit);
    }
    const auto rival_plan = first_clear_plan(view, i);
    geom::Segment rival_path{rival, rival};
    double rival_exit = 0.0;
    if (rival_plan) {
      rival_path = geom::Segment{rival, rival_plan->target};
      rival_exit = rival_plan->exit_distance;
    }
    const double margin =
        kConflictMargin *
        std::min(plan->exit_distance, rival_exit > 0.0 ? rival_exit : plan->exit_distance);
    if (geom::segment_segment_distance(my_path, rival_path) > margin) continue;
    if (light == Light::kMoving) return Action::stay(Light::kTransit);
    if (rival_exit <= 0.0) return Action::stay(Light::kInterior);
    if (rival_exit <= plan->exit_distance) return Action::stay(Light::kTransit);
  }
  return Action::move_to(plan->target, Light::kMoving);
}

}  // namespace oracle

bool is_flight_light(Light light) {
  return light == Light::kTransit || light == Light::kMoving;
}

/// A hull of Corner-lit (mostly) vertices around the observer — a random
/// polygon or an axis-aligned rectangle, whose perpendicular exit paths are
/// axis-aligned and so run along the corridor boxes' edges — filled with
/// robots of which a `flight_share` carry Transit or Moving lights. A few
/// Moving robots sit just outside the hull, mid-flight.
std::vector<SnapshotEntry> arbitration_view(util::Prng& rng, double scale) {
  std::vector<SnapshotEntry> visible;
  const Vec2 centre{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)};
  const auto corner_light = [&] {
    return rng.bernoulli(0.85) ? Light::kCorner : Light::kOff;
  };
  const bool rectangle = rng.bernoulli(0.3);
  const Vec2 half{rng.uniform(0.8, 1.5), rng.uniform(0.8, 1.5)};
  if (rectangle) {
    for (const Vec2 sign : {Vec2{-1, -1}, Vec2{1, -1}, Vec2{1, 1}, Vec2{-1, 1}}) {
      visible.push_back({centre + Vec2{sign.x * half.x, sign.y * half.y}, corner_light()});
    }
  } else {
    const std::uint64_t m = 5 + rng.next_below(20);
    for (std::uint64_t k = 0; k < m; ++k) {
      const double theta = rng.uniform(0.0, 6.283185307179586);
      visible.push_back({centre + Vec2{std::cos(theta), std::sin(theta)}, corner_light()});
    }
  }
  const double flight_share = rng.uniform(0.3, 0.6);
  const std::uint64_t count = 10 + rng.next_below(50);
  for (std::uint64_t i = 0; i < count; ++i) {
    Vec2 p;
    if (rectangle) {
      p = centre + Vec2{rng.uniform(-0.9, 0.9) * half.x, rng.uniform(-0.9, 0.9) * half.y};
    } else {
      do {
        p = Vec2{rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)};
      } while (geom::norm(p) > 0.9);
      p += centre;
    }
    Light light = Light::kOff;
    if (rng.bernoulli(flight_share)) {
      light = rng.bernoulli(0.5) ? Light::kTransit : Light::kMoving;
      if (light == Light::kMoving && rng.bernoulli(0.1)) p = centre + (p - centre) * 1.3;
    } else {
      constexpr Light kParked[] = {Light::kOff, Light::kInterior, Light::kCorner,
                                   Light::kSide};
      light = kParked[rng.next_below(4)];
    }
    visible.push_back({p, light});
  }
  for (SnapshotEntry& e : visible) e.position = e.position * scale;
  return visible;
}

/// Adds a robot at the corridor distance of `subject`'s first clear path:
/// on the normal through a random point of the path, stepped ulp by ulp to
/// the last offset whose computed distance is still <= corridor, or to the
/// first one past it. Returns true when the corridor (set by the subject's
/// nearest neighbour) survived the addition, i.e. the robot sits exactly on
/// the boundary the pruned corridor test must respect.
bool place_at_corridor(std::vector<SnapshotEntry>& visible, Light self,
                       std::size_t subject, util::Prng& rng) {
  const Snapshot snap = make_snapshot(self, visible);
  const LocalView view = build_view(snap);
  if (view.role != Role::kInterior) return false;
  const auto plan = oracle::first_clear_plan(view, subject);
  if (!plan) return false;
  const Vec2 from = view.pts[subject];
  double nearest_sq = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < view.pts.size(); ++i) {
    if (i != subject) nearest_sq = std::min(nearest_sq, geom::distance_sq(from, view.pts[i]));
  }
  const double corridor = 0.05 * std::sqrt(nearest_sq);
  const geom::Segment path{from, plan->target};
  const Vec2 foot = geom::lerp(path.a, path.b, rng.uniform(0.05, 0.95));
  const Vec2 normal = geom::perp(geom::normalized(path.b - path.a)) *
                      (rng.bernoulli(0.5) ? 1.0 : -1.0);
  const auto at = [&](double s) { return foot + normal * s; };
  const auto inside = [&](double s) {
    return geom::point_segment_distance(path, at(s)) <= corridor;
  };
  const double inf = std::numeric_limits<double>::infinity();
  double s = corridor;
  for (int step = 0; step < 256 && !inside(s); ++step) s = std::nextafter(s, 0.0);
  for (int step = 0; step < 256 && inside(std::nextafter(s, inf)); ++step) {
    s = std::nextafter(s, inf);
  }
  if (rng.bernoulli(0.5)) s = std::nextafter(s, inf);
  const Vec2 q = at(s);
  const Light light = rng.bernoulli(0.5) ? (rng.bernoulli(0.5) ? Light::kTransit : Light::kMoving)
                                         : Light::kOff;
  visible.push_back({q, light});
  return geom::distance_sq(from, q) > nearest_sq;
}

TEST(CvAsync, PrunedArbitrationMatchesUnprunedOracle) {
  const CompleteVisibilityAsync algo;
  util::Prng rng{2024};
  int compared = 0, boundary = 0, fallbacks = 0, moved = 0, held = 0, withdrew = 0;
  for (const double scale : {1e-3, 1.0, 1e6}) {
    for (int trial = 0; trial < 500; ++trial) {
      std::vector<SnapshotEntry> visible = arbitration_view(rng, scale);
      const Light self = rng.bernoulli(0.8) ? Light::kTransit : Light::kInterior;
      // Boundary robots for my own path and for a few rivals' modelled ones.
      if (place_at_corridor(visible, self, 0, rng)) ++boundary;
      for (int r = 0; r < 3; ++r) {
        const std::size_t pick = rng.next_below(visible.size());
        if (is_flight_light(visible[pick].light) &&
            place_at_corridor(visible, self, pick + 1, rng)) {
          ++boundary;
        }
      }
      const Snapshot snap = make_snapshot(self, visible);
      const LocalView view = build_view(snap);
      if (view.role != Role::kInterior) continue;
      const Action expected = oracle::interior(view, self);
      const Action actual = algo.compute(snap);
      ++compared;
      if (!oracle::first_clear_plan(view, 0) && oracle::diagonal_plan(view)) ++fallbacks;
      EXPECT_EQ(actual.light, expected.light) << "scale " << scale << " trial " << trial;
      EXPECT_EQ(actual.target.x, expected.target.x) << "scale " << scale << " trial " << trial;
      EXPECT_EQ(actual.target.y, expected.target.y) << "scale " << scale << " trial " << trial;
      if (expected.moves()) {
        ++moved;
      } else if (expected.light == Light::kTransit) {
        ++held;
      } else {
        ++withdrew;
      }
    }
  }
  // Every outcome of the rule and the diagonal fallback are exercised, and
  // the boundary placements mostly kept the corridor they were aimed at.
  EXPECT_GT(compared, 1000);
  EXPECT_GT(boundary, 500);
  EXPECT_GT(fallbacks, 20);
  EXPECT_GT(moved, 100);
  EXPECT_GT(held, 100);
  EXPECT_GT(withdrew, 20);
}

/// The oracle's arbitration prefilter: is a rival at p skipped against my
/// plan, gap > (nearest edge + 0.25 * longest edge) + 0.1 * exit?
bool oracle_skips(const LocalView& view, const ExitPlan& plan, Vec2 p) {
  const std::size_t h = view.hull.size();
  double longest_edge = 0.0;
  for (std::size_t k = 0; k < h; ++k) {
    longest_edge = std::max(longest_edge, geom::distance(view.pts[view.hull[k]],
                                                         view.pts[view.hull[(k + 1) % h]]));
  }
  const double reach = oracle::nearest_edge_distance(view, p) + 0.25 * longest_edge;
  const double gap = geom::point_segment_distance(geom::Segment{view.self(), plan.target}, p);
  return gap > reach + 0.1 * plan.exit_distance;
}

TEST(CvAsync, ReachBoundKeepsRivalsAtTheSkipThreshold) {
  // Rivals on either side of the prefilter's skip threshold, one parameter
  // ulp apart: bisect along a segment from a robot toward a hull vertex to
  // where the oracle's exact skip test flips. Every edge's certified lower
  // bound must stay below its computed distance there, and compute() must
  // decide views holding such pairs exactly like the unpruned oracle.
  const CompleteVisibilityAsync algo;
  util::Prng rng{2025};
  int straddles = 0;
  int compared = 0;
  for (const double scale : {1e-3, 1.0, 1e6}) {
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<SnapshotEntry> visible = arbitration_view(rng, scale);
      const Snapshot snap = make_snapshot(Light::kTransit, visible);
      const LocalView view = build_view(snap);
      if (view.role != Role::kInterior) continue;
      const auto plan = oracle::first_clear_plan(view, 0);
      if (!plan) continue;
      const Vec2 start = view.pts[1 + rng.next_below(view.count() - 1)];
      const Vec2 end = view.pts[view.hull[rng.next_below(view.hull.size())]];
      const auto at = [&](double t) { return geom::lerp(start, end, t); };
      double lo = 0.0;
      double hi = 1.0;
      const bool lo_skips = oracle_skips(view, *plan, at(lo));
      if (lo_skips == oracle_skips(view, *plan, at(hi))) continue;
      for (double mid = 0.5; mid > lo && mid < hi; mid = 0.5 * (lo + hi)) {
        (oracle_skips(view, *plan, at(mid)) == lo_skips ? lo : hi) = mid;
      }
      if (lo == 0.0 || hi == 1.0) continue;
      const GateTable table(view);
      const geom::Segment my_path{view.self(), plan->target};
      for (const Vec2 p : {at(lo), at(hi)}) {
        const double gap = geom::point_segment_distance(my_path, p);
        for (const double extent : {0.0, gap}) {
          const double slack = table.bound_slack(p, extent);
          for (std::size_t k = 0; k < table.edge_count(); ++k) {
            EXPECT_LE(table.distance_bound(k, p, slack),
                      geom::point_segment_distance(table.edge(k), p))
                << "scale " << scale << " trial " << trial << " edge " << k;
          }
        }
        visible.push_back({p, rng.bernoulli(0.7) ? Light::kTransit : Light::kMoving});
      }
      const Snapshot with_rivals = make_snapshot(Light::kTransit, visible);
      const LocalView rival_view = build_view(with_rivals);
      ASSERT_EQ(rival_view.role, Role::kInterior);
      const Action expected = oracle::interior(rival_view, Light::kTransit);
      const Action actual = algo.compute(with_rivals);
      EXPECT_EQ(actual.light, expected.light) << "scale " << scale << " trial " << trial;
      EXPECT_EQ(actual.target.x, expected.target.x) << "scale " << scale << " trial " << trial;
      EXPECT_EQ(actual.target.y, expected.target.y) << "scale " << scale << " trial " << trial;
      ++compared;
      // The pair still straddles the threshold when the added robots left
      // my plan as it was.
      const auto replan = oracle::first_clear_plan(rival_view, 0);
      if (replan && replan->target == plan->target &&
          oracle_skips(rival_view, *replan, at(lo)) != oracle_skips(rival_view, *replan, at(hi))) {
        ++straddles;
      }
    }
  }
  EXPECT_GT(compared, 100);
  EXPECT_GT(straddles, 100);
}

// --- baseline specific ------------------------------------------------------

TEST(SeqBaseline, AnyVisibleTransitFreezesEverything) {
  const SequentialAsyncBaseline algo;
  const Action a = algo.compute(make_snapshot(
      Light::kInterior, {{{4, -1}, Light::kCorner},
                         {{-4, -1}, Light::kCorner},
                         {{0, 6}, Light::kCorner},
                         // Far-away Transit still freezes the baseline.
                         {{3.99, 5.9}, Light::kTransit}}));
  EXPECT_FALSE(a.moves());
}

TEST(SeqBaseline, UniqueCandidateMoves) {
  const SequentialAsyncBaseline algo;
  const Action a = algo.compute(make_snapshot(
      Light::kInterior, {{{4, -1}, Light::kCorner},
                         {{-4, -1}, Light::kCorner},
                         {{0, 6}, Light::kCorner}}));
  EXPECT_TRUE(a.moves());
  EXPECT_EQ(a.light, Light::kTransit);
}

TEST(SeqBaseline, NonUniqueCandidateDefers) {
  const SequentialAsyncBaseline algo;
  // Another interior robot is closer to the boundary: I defer.
  const Action a = algo.compute(make_snapshot(
      Light::kInterior, {{{4, -2}, Light::kCorner},
                         {{-4, -2}, Light::kCorner},
                         {{0, 6}, Light::kCorner},
                         {{2, -1.2}, Light::kInterior}}));
  EXPECT_FALSE(a.moves());
}

// --- ssync-parallel specific ------------------------------------------------

TEST(SsyncParallel, MovesWithoutHandshake) {
  const SsyncParallel algo;
  // No Corner lights needed, no intent phase: straight to the move.
  const Action a = algo.compute(make_snapshot(
      Light::kOff, {{{4, -1}, Light::kOff},
                    {{-4, -1}, Light::kOff},
                    {{0, 6}, Light::kOff}}));
  EXPECT_TRUE(a.moves());
  EXPECT_EQ(a.light, Light::kTransit);
}

// --- one insertion rule for all three ----------------------------------------

TEST(SharedInsertion, NotchViewLandsAllThreeOnOneTarget) {
  // A robot in the notch behind a square's corner: its perpendicular foot
  // misses the central band of every edge, so async-log falls back to the
  // λ-squash insertion at the nearest gate. With every hull vertex
  // Corner-lit, that is the gate seq-baseline and ssync-parallel pick too,
  // and all three land on one target, bit for bit (DESIGN §4.3). The two
  // parked robots are farther from the boundary and off the gate triangle.
  const std::vector<SnapshotEntry> visible = {{{-0.3, -0.4}, Light::kCorner},
                                              {{9.7, -0.4}, Light::kCorner},
                                              {{9.7, 9.6}, Light::kCorner},
                                              {{-0.3, 9.6}, Light::kCorner},
                                              {{4.7, 4.6}, Light::kOff},
                                              {{2.7, 6.6}, Light::kInterior}};
  const Snapshot snap = make_snapshot(Light::kTransit, visible);
  const LocalView view = build_view(snap);
  ASSERT_EQ(view.role, Role::kInterior);
  const GateTable table(view);
  std::vector<ExitPlan> perpendicular;
  table.plan_exits(view.self(), perpendicular);
  ASSERT_TRUE(perpendicular.empty()) << "not a notch view";
  const auto expected = insertion_plan(view, table.nearest_gate(view.self()));
  ASSERT_TRUE(expected.has_value());

  const Action async_log = CompleteVisibilityAsync().compute(snap);
  const Action seq = SequentialAsyncBaseline().compute(snap);
  const Action ssync = SsyncParallel().compute(snap);
  ASSERT_TRUE(async_log.moves());
  ASSERT_TRUE(seq.moves());
  ASSERT_TRUE(ssync.moves());
  EXPECT_EQ(async_log.light, Light::kMoving);
  EXPECT_EQ(seq.light, Light::kTransit);
  EXPECT_EQ(ssync.light, Light::kTransit);
  for (const Action& a : {async_log, seq, ssync}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.target.x),
              std::bit_cast<std::uint64_t>(expected->target.x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.target.y),
              std::bit_cast<std::uint64_t>(expected->target.y));
  }
}

}  // namespace
}  // namespace lumen::core
