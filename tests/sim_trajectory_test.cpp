// Trajectory tests: piecewise-linear motion reconstruction.
#include "sim/trajectory.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace lumen::sim {
namespace {

using geom::Vec2;

/// After every move: a trajectory's final resting position.
constexpr double kForever = std::numeric_limits<double>::infinity();

TEST(MoveSegment, InterpolatesLinearly) {
  const MoveSegment m{0, 2.0, 6.0, {0, 0}, {8, 4}};
  EXPECT_EQ(m.at(1.0), (Vec2{0, 0}));
  EXPECT_EQ(m.at(2.0), (Vec2{0, 0}));
  EXPECT_EQ(m.at(4.0), (Vec2{4, 2}));
  EXPECT_EQ(m.at(6.0), (Vec2{8, 4}));
  EXPECT_EQ(m.at(7.0), (Vec2{8, 4}));
  EXPECT_NEAR(m.length(), std::sqrt(80.0), 1e-12);
}

TEST(MoveSegment, InstantaneousJump) {
  const MoveSegment m{0, 3.0, 3.0, {1, 1}, {5, 5}};
  EXPECT_EQ(m.at(2.9), (Vec2{1, 1}));
  // At or after the (zero-length) window the robot is at the destination...
  EXPECT_EQ(m.at(3.1), (Vec2{5, 5}));
}

TEST(Trajectory, IdleRobotStaysPut) {
  const Trajectory traj({3, 4}, {});
  EXPECT_EQ(traj.at(0.0), (Vec2{3, 4}));
  EXPECT_EQ(traj.at(100.0), (Vec2{3, 4}));
  EXPECT_EQ(traj.at(kForever), (Vec2{3, 4}));
}

TEST(Trajectory, ChainsMovesWithIdleGaps) {
  std::vector<MoveSegment> moves = {
      {0, 1.0, 2.0, {0, 0}, {10, 0}},
      {0, 5.0, 7.0, {10, 0}, {10, 20}},
  };
  const Trajectory traj({0, 0}, std::move(moves));
  EXPECT_EQ(traj.at(0.5), (Vec2{0, 0}));
  EXPECT_EQ(traj.at(1.5), (Vec2{5, 0}));
  EXPECT_EQ(traj.at(3.0), (Vec2{10, 0}));  // Idle between moves.
  EXPECT_EQ(traj.at(6.0), (Vec2{10, 10}));
  EXPECT_EQ(traj.at(9.0), (Vec2{10, 20}));
  EXPECT_EQ(traj.at(kForever), (Vec2{10, 20}));
}

TEST(Trajectory, SortsOutOfOrderInput) {
  std::vector<MoveSegment> moves = {
      {0, 5.0, 6.0, {1, 0}, {2, 0}},
      {0, 1.0, 2.0, {0, 0}, {1, 0}},
  };
  const Trajectory traj({0, 0}, std::move(moves));
  EXPECT_EQ(traj.at(1.5), (Vec2{0.5, 0}));
  EXPECT_EQ(traj.at(5.5), (Vec2{1.5, 0}));
}

TEST(Trajectory, RejectsOverlappingSegments) {
  std::vector<MoveSegment> moves = {
      {0, 1.0, 3.0, {0, 0}, {1, 0}},
      {0, 2.0, 4.0, {1, 0}, {2, 0}},
  };
  EXPECT_THROW(Trajectory({0, 0}, std::move(moves)), std::invalid_argument);
}

TEST(BuildTrajectories, SplitsByRobot) {
  const std::vector<Vec2> initial = {{0, 0}, {10, 10}, {20, 20}};
  const std::vector<MoveSegment> moves = {
      {1, 0.0, 1.0, {10, 10}, {11, 11}},
      {0, 0.0, 2.0, {0, 0}, {5, 5}},
      {1, 3.0, 4.0, {11, 11}, {12, 12}},
  };
  const auto trajs = build_trajectories(initial, moves);
  ASSERT_EQ(trajs.size(), 3u);
  EXPECT_EQ(trajs[0].moves().size(), 1u);
  EXPECT_EQ(trajs[1].moves().size(), 2u);
  EXPECT_EQ(trajs[2].moves().size(), 0u);
  EXPECT_EQ(trajs[1].at(kForever), (Vec2{12, 12}));
  EXPECT_EQ(trajs[2].at(kForever), (Vec2{20, 20}));
}

TEST(BuildTrajectories, RejectsUnknownRobot) {
  const std::vector<Vec2> initial = {{0, 0}};
  const std::vector<MoveSegment> moves = {{3, 0.0, 1.0, {0, 0}, {1, 1}}};
  EXPECT_THROW(build_trajectories(initial, moves), std::out_of_range);
}

}  // namespace
}  // namespace lumen::sim
