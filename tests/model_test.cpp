// Model-layer tests: local frames round-trip exactly enough, snapshots
// respect obstruction and frame transformation, and the light palette is
// closed and stable.
#include "model/frame.hpp"
#include "model/light.hpp"
#include "model/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "geom/hull.hpp"
#include "split_points.hpp"
#include "util/prng.hpp"

namespace lumen::model {
namespace {

using geom::Vec2;

TEST(Light, PaletteIsClosedAndNamed) {
  EXPECT_EQ(kAllLights.size(), kLightCount);
  for (const Light l : kAllLights) {
    EXPECT_NE(to_string(l), "?");
  }
  EXPECT_EQ(to_string(Light::kCorner), "Corner");
  EXPECT_EQ(to_string(Light::kTransit), "Transit");
}

TEST(LocalFrame, IdentityIsIdentity) {
  const LocalFrame f;
  const Vec2 p{3.5, -2.25};
  EXPECT_EQ(f.to_local(p), p);
  EXPECT_EQ(f.to_world(p), p);
}

TEST(LocalFrame, OriginMapsToLocalZero) {
  util::Prng rng{5};
  for (int i = 0; i < 100; ++i) {
    const Vec2 origin{rng.uniform(-50, 50), rng.uniform(-50, 50)};
    const LocalFrame f = LocalFrame::random(origin, rng);
    const Vec2 local = f.to_local(origin);
    EXPECT_NEAR(local.x, 0.0, 1e-12);
    EXPECT_NEAR(local.y, 0.0, 1e-12);
  }
}

TEST(LocalFrame, RoundTripIsNearIdentity) {
  util::Prng rng{7};
  for (int i = 0; i < 500; ++i) {
    const Vec2 origin{rng.uniform(-50, 50), rng.uniform(-50, 50)};
    const LocalFrame f = LocalFrame::random(origin, rng);
    const Vec2 p{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const Vec2 round = f.to_world(f.to_local(p));
    EXPECT_NEAR(round.x, p.x, 1e-9);
    EXPECT_NEAR(round.y, p.y, 1e-9);
  }
}

TEST(LocalFrame, ScaleAppliesToDistances) {
  const LocalFrame f{{0, 0}, 0.0, 2.5, false};
  const Vec2 local = f.to_local({4, 0});
  EXPECT_NEAR(geom::norm(local), 10.0, 1e-12);
}

TEST(LocalFrame, ReflectionFlipsOrientation) {
  const LocalFrame plain{{0, 0}, 0.7, 1.3, false};
  const LocalFrame mirrored{{0, 0}, 0.7, 1.3, true};
  const Vec2 a{1, 0}, b{0, 1};
  // Cross product sign flips under reflection, is preserved without.
  const double plain_cross = geom::cross(plain.to_local(a), plain.to_local(b));
  const double mirrored_cross =
      geom::cross(mirrored.to_local(a), mirrored.to_local(b));
  EXPECT_GT(plain_cross, 0.0);
  EXPECT_LT(mirrored_cross, 0.0);
  EXPECT_TRUE(mirrored.reflected());
  EXPECT_FALSE(plain.reflected());
}

TEST(LocalFrame, SimilarityPreservesDistanceRatios) {
  util::Prng rng{11};
  for (int i = 0; i < 200; ++i) {
    const LocalFrame f = LocalFrame::random({rng.uniform(-9, 9), rng.uniform(-9, 9)}, rng);
    const Vec2 a{rng.uniform(-10, 10), rng.uniform(-10, 10)};
    const Vec2 b{rng.uniform(-10, 10), rng.uniform(-10, 10)};
    const Vec2 c{rng.uniform(-10, 10), rng.uniform(-10, 10)};
    const double world_ratio = geom::distance(a, b) / (geom::distance(a, c) + 1e-30);
    const double local_ratio = geom::distance(f.to_local(a), f.to_local(b)) /
                               (geom::distance(f.to_local(a), f.to_local(c)) + 1e-30);
    EXPECT_NEAR(world_ratio, local_ratio, 1e-6 * (1 + world_ratio));
  }
}

TEST(LocalFrame, DirectionTransformIgnoresTranslation) {
  util::Prng rng{13};
  const LocalFrame f = LocalFrame::random({42, -17}, rng);
  const Vec2 d{3, 4};
  const Vec2 via_points = f.to_local({45, -13}) - f.to_local({42, -17});
  const Vec2 via_direction = f.direction_to_local(d);
  EXPECT_NEAR(via_points.x, via_direction.x, 1e-9);
  EXPECT_NEAR(via_points.y, via_direction.y, 1e-9);
}

TEST(Snapshot, ObstructionExcludesBlockedRobots) {
  const std::vector<Vec2> pts = {{0, 0}, {5, 0}, {10, 0}, {0, 7}};
  const std::vector<Light> lights(4, Light::kOff);
  const LocalFrame identity;
  const Snapshot snap = testutil::snapshot_of(pts, lights, 0, identity);
  // Robot 2 is hidden behind robot 1; robot 3 is visible.
  EXPECT_EQ(snap.visible_count(), 2u);
}

TEST(Snapshot, EntriesAreInLocalFrame) {
  const std::vector<Vec2> pts = {{10, 10}, {13, 14}};
  const std::vector<Light> lights = {Light::kOff, Light::kCorner};
  const LocalFrame frame{{10, 10}, 0.0, 1.0, false};
  const Snapshot snap = testutil::snapshot_of(pts, lights, 0, frame);
  ASSERT_EQ(snap.visible_count(), 1u);
  EXPECT_NEAR(snap.other_positions()[0].x, 3.0, 1e-12);
  EXPECT_NEAR(snap.other_positions()[0].y, 4.0, 1e-12);
  EXPECT_EQ(snap.lights[1], Light::kCorner);
  EXPECT_EQ(snap.self_light, Light::kOff);
}

TEST(Snapshot, LightCountsAndHelpers) {
  Snapshot snap;
  snap.reset(Light::kInterior);
  snap.push_visible({1, 0}, Light::kCorner);
  snap.push_visible({0, 1}, Light::kCorner);
  snap.push_visible({1, 1}, Light::kTransit);
  EXPECT_EQ(snap.count_light(Light::kCorner), 2u);
  EXPECT_TRUE(snap.any_light(Light::kTransit));
  EXPECT_FALSE(snap.any_light(Light::kLine));
  EXPECT_EQ(snap.all_positions().size(), 4u);
  EXPECT_EQ(snap.all_positions()[0], Vec2{});
  EXPECT_EQ(snap.other_positions().size(), 3u);
}

TEST(Snapshot, VisibleSetInvariantUnderFrames) {
  // The SET of visible robots is a world property; the frame only changes
  // coordinates. Cardinality and lights must match across random frames.
  util::Prng rng{19};
  std::vector<Vec2> pts;
  std::vector<Light> lights;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.uniform(-10, 10), rng.uniform(-10, 10)});
    lights.push_back(kAllLights[rng.next_below(kLightCount)]);
  }
  const LocalFrame identity{pts[0], 0.0, 1.0, false};
  const Snapshot reference = testutil::snapshot_of(pts, lights, 0, identity);
  for (int trial = 0; trial < 20; ++trial) {
    const LocalFrame f = LocalFrame::random(pts[0], rng);
    const Snapshot snap = testutil::snapshot_of(pts, lights, 0, f);
    ASSERT_EQ(snap.visible_count(), reference.visible_count());
    for (std::size_t k = 0; k < snap.visible_count(); ++k) {
      EXPECT_EQ(snap.lights[1 + k], reference.lights[1 + k]);
    }
  }
}

TEST(Snapshot, FillMatchesPerPointTransformBitForBit) {
  // fill_snapshot's pre-sized loop must produce exactly the doubles of a
  // per-point LocalFrame::to_local, including the signs of zeros.
  util::Prng rng{23};
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<Light> lights;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(i % 7 == 0 ? -0.0 : rng.uniform(-10, 10));
    ys.push_back(i % 5 == 0 ? -0.0 : rng.uniform(-10, 10));
    lights.push_back(kAllLights[rng.next_below(kLightCount)]);
  }
  xs[1] = 0.0;
  ys[1] = -0.0;
  std::vector<std::size_t> ids;
  for (std::size_t j = 63; j > 1; j -= 2) ids.push_back(j);
  ids.push_back(1);
  Snapshot out;
  out.positions.assign(100, Vec2{9, 9});  // Stale, longer content.
  for (const bool reflected : {false, true}) {
    for (const double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      for (const double rotation : {0.0, 1.0, 2.5, 4.0}) {
        for (const std::size_t observer : {std::size_t{0}, std::size_t{2}}) {
          const LocalFrame frame{{xs[observer], ys[observer]}, rotation, scale,
                                 reflected};
          const auto visible = std::span{ids}.first(
              observer == 0 ? ids.size() : ids.size() / 2);
          fill_snapshot(xs, ys, lights, observer, visible, frame, out);
          ASSERT_EQ(out.positions.size(), visible.size() + 1);
          ASSERT_EQ(out.lights.size(), visible.size() + 1);
          EXPECT_EQ(out.self_light, lights[observer]);
          EXPECT_EQ(out.lights[0], lights[observer]);
          const Vec2 origin{};
          EXPECT_EQ(0, std::memcmp(&out.positions[0], &origin, sizeof(Vec2)));
          for (std::size_t k = 0; k < visible.size(); ++k) {
            const std::size_t j = visible[k];
            const Vec2 expected = frame.to_local(Vec2{xs[j], ys[j]});
            EXPECT_EQ(0, std::memcmp(&out.positions[k + 1], &expected,
                                     sizeof(Vec2)))
                << "j=" << j << " scale=" << scale
                << " reflected=" << reflected;
            EXPECT_EQ(out.lights[k + 1], lights[j]);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lumen::model
