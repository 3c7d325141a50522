// Engine tests: determinism, scheduler semantics, epoch accounting, light
// auditing, quiescence detection, and the cycle-cap abort path — exercised
// with both the real algorithms and purpose-built probe algorithms.
#include "sim/monitors.hpp"
#include "sim/run.hpp"

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "gen/generators.hpp"
#include "model/algorithm.hpp"

namespace lumen::sim {
namespace {

using geom::Vec2;
using model::Action;
using model::Light;

/// Probe: never moves, always shows Corner.
class StayAlgorithm final : public model::Algorithm {
 public:
  Action compute(const model::Snapshot&) const override {
    return Action::stay(Light::kCorner);
  }
  std::string_view name() const noexcept override { return "probe-stay"; }
  std::span<const Light> palette() const noexcept override {
    return model::kAllLights;
  }
};

/// Probe: dithers forever (never quiesces) by toggling between two lights.
class DitherAlgorithm final : public model::Algorithm {
 public:
  Action compute(const model::Snapshot& snap) const override {
    return Action::stay(snap.self_light == Light::kLine ? Light::kSide
                                                        : Light::kLine);
  }
  std::string_view name() const noexcept override { return "probe-dither"; }
  std::span<const Light> palette() const noexcept override {
    return model::kAllLights;
  }
};

RunConfig async_config(std::uint64_t seed) {
  RunConfig config;
  config.scheduler = SchedulerKind::kAsync;
  config.seed = seed;
  return config;
}

/// Counts the run-boundary hooks, which must fire exactly once per run.
class RunBoundaryCounter final : public RunObserver {
 public:
  void on_run_begin(const WorldView&) override { ++begins; }
  void on_run_end(const WorldView&) override { ++ends; }
  int begins = 0;
  int ends = 0;
};

TEST(Engine, EmptyAndSingletonConfigurations) {
  const StayAlgorithm algo;
  for (const SchedulerKind kind :
       {SchedulerKind::kAsync, SchedulerKind::kFsync, SchedulerKind::kSsync}) {
    SCOPED_TRACE(to_string(kind));
    RunConfig config = async_config(1);
    config.scheduler = kind;

    RunBoundaryCounter empty_hooks;
    RunObserver* const empty_observers[] = {&empty_hooks};
    const auto empty =
        run_simulation(algo, std::vector<Vec2>{}, config, empty_observers);
    EXPECT_TRUE(empty.converged);
    EXPECT_EQ(empty.total_cycles, 0u);
    EXPECT_EQ(empty.rounds, 0u);
    EXPECT_EQ(empty.epochs, 0u);
    EXPECT_EQ(empty_hooks.begins, 1);
    EXPECT_EQ(empty_hooks.ends, 1);

    RunBoundaryCounter one_hooks;
    RunObserver* const one_observers[] = {&one_hooks};
    const auto one =
        run_simulation(algo, std::vector<Vec2>{{3, 3}}, config, one_observers);
    EXPECT_TRUE(one.converged);
    EXPECT_EQ(one.total_moves, 0u);
    EXPECT_EQ(one.final_positions[0], (Vec2{3, 3}));
    EXPECT_EQ(one_hooks.begins, 1);
    EXPECT_EQ(one_hooks.ends, 1);
  }
}

TEST(Engine, StayAlgorithmQuiescesQuickly) {
  const StayAlgorithm algo;
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 20, 2);
  const auto run = run_simulation(algo, initial, async_config(2));
  EXPECT_TRUE(run.converged);
  EXPECT_EQ(run.total_moves, 0u);
  EXPECT_EQ(run.final_positions, run.initial_positions);
  // Everyone announced Corner once, then one null confirmation cycle each:
  // a handful of cycles per robot, not hundreds.
  EXPECT_LE(run.total_cycles, 20u * 8u);
  EXPECT_LE(run.epochs, 4u);
  // Colors: Off (initial) + Corner.
  EXPECT_EQ(run.distinct_lights_used(), 2u);
}

TEST(Engine, DitherHitsCycleCapWithoutConverging) {
  const DitherAlgorithm algo;
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 5, 2);
  RunConfig config = async_config(2);
  config.max_cycles_per_robot = 50;
  const auto run = run_simulation(algo, initial, config);
  EXPECT_FALSE(run.converged);
  EXPECT_GE(run.total_cycles, 5u * 50u);
}

TEST(Engine, DeterministicInSeed) {
  const auto algo = core::make_algorithm("async-log");
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 24, 3);
  const auto a = run_simulation(*algo, initial, async_config(9));
  const auto b = run_simulation(*algo, initial, async_config(9));
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.final_positions, b.final_positions);
  ASSERT_EQ(a.moves.size(), b.moves.size());
  for (std::size_t i = 0; i < a.moves.size(); ++i) {
    EXPECT_EQ(a.moves[i].robot, b.moves[i].robot);
    EXPECT_EQ(a.moves[i].t0, b.moves[i].t0);
    EXPECT_EQ(a.moves[i].to, b.moves[i].to);
  }
  const auto c = run_simulation(*algo, initial, async_config(10));
  EXPECT_NE(a.final_positions, c.final_positions);
}

TEST(Engine, MoveLogIsConsistentWithFinalPositions) {
  const auto algo = core::make_algorithm("async-log");
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 24, 5);
  const auto run = run_simulation(*algo, initial, async_config(5));
  ASSERT_TRUE(run.converged);
  const auto trajectories = build_trajectories(run.initial_positions, run.moves);
  for (std::size_t i = 0; i < trajectories.size(); ++i) {
    EXPECT_EQ(trajectories[i].at(run.final_time + 1.0), run.final_positions[i]) << i;
  }
  double dist = 0.0;
  for (const auto& m : run.moves) dist += m.length();
  EXPECT_NEAR(dist, run.total_distance, 1e-9);
}

TEST(Engine, FsyncEpochsEqualRoundsForStay) {
  const StayAlgorithm algo;
  RunConfig config;
  config.scheduler = SchedulerKind::kFsync;
  config.seed = 4;
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 10, 4);
  const auto run = run_simulation(algo, initial, config);
  EXPECT_TRUE(run.converged);
  // Round 0 announces Corner (a change); round 1 confirms. FSYNC epochs are
  // rounds up to the last change plus the confirming epoch.
  EXPECT_EQ(run.rounds, 2u);
  EXPECT_EQ(run.epochs, 2u);
}

TEST(Engine, SsyncSingletonActivatesOneRobotPerRound) {
  const StayAlgorithm algo;
  RunConfig config;
  config.scheduler = SchedulerKind::kSsync;
  config.activation = sched::ActivationKind::kSingleton;
  config.seed = 4;
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 6, 4);
  const auto run = run_simulation(algo, initial, config);
  EXPECT_TRUE(run.converged);
  // Each robot needs to announce (6 rounds) then confirm (6 rounds).
  EXPECT_EQ(run.total_cycles, run.rounds);
  EXPECT_GE(run.rounds, 12u);
}

TEST(Engine, HullHistoryRecordedWhenRequested) {
  const auto algo = core::make_algorithm("async-log");
  const auto initial = gen::generate(gen::ConfigFamily::kRingWithCore, 32, 6);
  HullHistoryRecorder recorder;
  RunObserver* observers[] = {&recorder};
  const auto run = run_simulation(*algo, initial, async_config(6), observers);
  ASSERT_TRUE(run.converged);
  const auto& history = recorder.samples();
  ASSERT_GE(history.size(), 2u);
  // Corner census ends with everyone a corner.
  EXPECT_EQ(history.back().corners, initial.size());
  EXPECT_EQ(history.back().non_corners, 0u);
  // Epoch labels are strictly increasing.
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_LT(history[i - 1].epoch, history[i].epoch);
  }
}

TEST(Engine, LightsSeenAuditsPalette) {
  const auto algo = core::make_algorithm("async-log");
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 32, 7);
  const auto run = run_simulation(*algo, initial, async_config(7));
  ASSERT_TRUE(run.converged);
  EXPECT_TRUE(run.lights_seen[static_cast<std::size_t>(Light::kOff)]);
  EXPECT_TRUE(run.lights_seen[static_cast<std::size_t>(Light::kCorner)]);
  EXPECT_LE(run.distinct_lights_used(), model::kLightCount);
  EXPECT_GE(run.distinct_lights_used(), 2u);
}

TEST(Engine, FixedFramesAlsoConverge) {
  const auto algo = core::make_algorithm("async-log");
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 24, 8);
  RunConfig config = async_config(8);
  config.refresh_frames_each_look = false;
  const auto run = run_simulation(*algo, initial, config);
  EXPECT_TRUE(run.converged);
}

TEST(Engine, NonRigidMovesStopShortButProgress) {
  // Under the non-rigid adversary every recorded move is a PREFIX of the
  // intended one, at least the non-rigid delta (0.5) long (or the full hop).
  const auto algo = core::make_algorithm("async-log");
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 24, 9);
  RunConfig config = async_config(9);
  config.rigid_moves = false;
  const auto run = run_simulation(*algo, initial, config);
  EXPECT_TRUE(run.converged);
  std::size_t stopped_short = 0;
  for (const auto& m : run.moves) {
    // Zero-length moves are filtered by the engine.
    EXPECT_GT(m.length(), 0.0);
    if (m.length() < 0.5 - 1e-12) {
      // Short hops are allowed only when the INTENT itself was short; we
      // cannot see intents here, but a hop shorter than the floor must at
      // least be rare (line escapes and tiny retries).
      ++stopped_short;
    }
  }
  EXPECT_LT(stopped_short, run.moves.size() / 2);
  // Non-rigid runs need more moves than robots (retries happen).
  EXPECT_GT(run.total_moves, 24u);
}

TEST(Engine, NonRigidStillSolvesCompleteVisibility) {
  const auto algo = core::make_algorithm("async-log");
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 32, seed);
    RunConfig config = async_config(seed);
    config.rigid_moves = false;
    const auto run = run_simulation(*algo, initial, config);
    EXPECT_TRUE(run.converged) << seed;
    EXPECT_TRUE(verify_complete_visibility(run.final_positions).complete()) << seed;
    const auto report =
        check_collisions(run.initial_positions, run.moves, run.final_time);
    EXPECT_TRUE(report.hazard_free(1e-9)) << seed;
  }
}

TEST(Engine, NonRigidSyncEnginesConvergeToo) {
  const auto algo = core::make_algorithm("ssync-parallel");
  RunConfig config;
  config.scheduler = SchedulerKind::kFsync;
  config.seed = 5;
  config.rigid_moves = false;
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, 20, 5);
  const auto run = run_simulation(*algo, initial, config);
  EXPECT_TRUE(run.converged);
  EXPECT_TRUE(verify_complete_visibility(run.final_positions).complete());
}

TEST(Engine, SchedulerNamesRoundTrip) {
  EXPECT_EQ(to_string(SchedulerKind::kFsync), "FSYNC");
  EXPECT_EQ(to_string(SchedulerKind::kSsync), "SSYNC");
  EXPECT_EQ(to_string(SchedulerKind::kAsync), "ASYNC");
}

}  // namespace
}  // namespace lumen::sim
