// Segment intersection/classification tests — the relation behind the
// paper's "paths do not cross" guarantee.
#include "geom/segment.hpp"

#include <gtest/gtest.h>

#include "util/prng.hpp"

namespace lumen::geom {
namespace {

TEST(SegmentClassify, ProperCrossing) {
  const Segment s{{0, 0}, {10, 10}};
  const Segment t{{0, 10}, {10, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kProperCrossing);
  EXPECT_TRUE(segments_intersect(s, t));
  EXPECT_TRUE(segments_cross(s, t));
}

TEST(SegmentClassify, Disjoint) {
  const Segment s{{0, 0}, {1, 0}};
  const Segment t{{0, 1}, {1, 1}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kDisjoint);
  EXPECT_FALSE(segments_intersect(s, t));
  EXPECT_FALSE(segments_cross(s, t));
}

TEST(SegmentClassify, SharedEndpointIsTouchingNotCrossing) {
  const Segment s{{0, 0}, {1, 1}};
  const Segment t{{1, 1}, {2, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kTouching);
  EXPECT_TRUE(segments_intersect(s, t));
  EXPECT_FALSE(segments_cross(s, t));
}

TEST(SegmentClassify, TJunctionIsTouchingAndCrossing) {
  // t's endpoint lands strictly inside s: one shared point, but an interior
  // one — for robot paths this IS a crossing hazard.
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{5, -3}, {5, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kTouching);
  EXPECT_TRUE(segments_cross(s, t));
}

TEST(SegmentClassify, CollinearOverlap) {
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{5, 0}, {15, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kOverlapping);
  EXPECT_TRUE(segments_cross(s, t));
}

TEST(SegmentClassify, CollinearTouchAtEndpointOnly) {
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{10, 0}, {20, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kTouching);
  EXPECT_FALSE(segments_cross(s, t));
}

TEST(SegmentClassify, CollinearDisjoint) {
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{11, 0}, {20, 0}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kDisjoint);
}

TEST(SegmentClassify, DegeneratePointSegments) {
  const Segment point{{3, 3}, {3, 3}};
  const Segment s{{0, 0}, {10, 10}};
  EXPECT_EQ(classify_intersection(point, s), SegmentRelation::kTouching);
  EXPECT_EQ(classify_intersection(s, point), SegmentRelation::kTouching);
  const Segment far_point{{3, 4}, {3, 4}};
  EXPECT_EQ(classify_intersection(far_point, s), SegmentRelation::kDisjoint);
  EXPECT_EQ(classify_intersection(point, point), SegmentRelation::kTouching);
  EXPECT_EQ(classify_intersection(point, far_point), SegmentRelation::kDisjoint);
}

TEST(SegmentClassify, ParallelNonCollinear) {
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{0, 1}, {10, 1}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kDisjoint);
}

TEST(SegmentClassify, NearMissBelowIsNotIntersecting) {
  const Segment s{{0, 0}, {10, 0}};
  const Segment t{{5, -1}, {5, -1e-12}};
  EXPECT_EQ(classify_intersection(s, t), SegmentRelation::kDisjoint);
}

TEST(SegmentDistance, PointToSegment) {
  const Segment s{{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(point_segment_distance(s, {5, 3}), 3.0);
  EXPECT_DOUBLE_EQ(point_segment_distance(s, {-4, 3}), 5.0);
  EXPECT_DOUBLE_EQ(point_segment_distance(s, {14, -3}), 5.0);
  EXPECT_DOUBLE_EQ(point_segment_distance(s, {7, 0}), 0.0);
}

TEST(SegmentDistance, Projection) {
  const Segment s{{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(project_onto_segment(s, {3, 5}), 0.3);
  EXPECT_DOUBLE_EQ(project_onto_segment(s, {-3, 5}), 0.0);
  EXPECT_DOUBLE_EQ(project_onto_segment(s, {13, 5}), 1.0);
  const Segment degenerate{{2, 2}, {2, 2}};
  EXPECT_DOUBLE_EQ(project_onto_segment(degenerate, {5, 5}), 0.0);
}

TEST(SegmentDistance, SegmentToSegment) {
  EXPECT_DOUBLE_EQ(
      segment_segment_distance({{0, 0}, {10, 0}}, {{0, 3}, {10, 3}}), 3.0);
  EXPECT_DOUBLE_EQ(
      segment_segment_distance({{0, 0}, {10, 10}}, {{0, 10}, {10, 0}}), 0.0);
  EXPECT_DOUBLE_EQ(
      segment_segment_distance({{0, 0}, {1, 0}}, {{3, 0}, {4, 0}}), 2.0);
}

TEST(SegmentCross, RandomizedConsistencyWithClassification) {
  util::Prng rng{2024};
  for (int i = 0; i < 5000; ++i) {
    const Segment s{{rng.uniform(-5, 5), rng.uniform(-5, 5)},
                    {rng.uniform(-5, 5), rng.uniform(-5, 5)}};
    const Segment t{{rng.uniform(-5, 5), rng.uniform(-5, 5)},
                    {rng.uniform(-5, 5), rng.uniform(-5, 5)}};
    const auto rel = classify_intersection(s, t);
    if (rel == SegmentRelation::kProperCrossing ||
        rel == SegmentRelation::kOverlapping) {
      EXPECT_TRUE(segments_cross(s, t));
    }
    if (rel == SegmentRelation::kDisjoint) {
      EXPECT_FALSE(segments_cross(s, t));
      EXPECT_GT(segment_segment_distance(s, t), 0.0);
    } else {
      EXPECT_DOUBLE_EQ(segment_segment_distance(s, t), 0.0);
    }
  }
}

}  // namespace
}  // namespace lumen::geom
