// Cross-cutting property sweeps over full executions: invariants that must
// hold for EVERY (algorithm, scheduler, family) combination the system
// supports, checked over seeded campaigns. These are the "laws of the
// simulator" rather than per-module behaviours.
#include <gtest/gtest.h>

#include <limits>

#include "core/registry.hpp"
#include "gen/generators.hpp"
#include "geom/hull.hpp"
#include "sim/monitors.hpp"
#include "sim/run.hpp"

namespace lumen {
namespace {

using sim::RunConfig;
using sim::SchedulerKind;

struct Combo {
  std::string algorithm;
  SchedulerKind scheduler;
  gen::ConfigFamily family;
};

class ExecutionLawsTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, SchedulerKind, gen::ConfigFamily>> {};

TEST_P(ExecutionLawsTest, InvariantsHoldOverSeeds) {
  const auto [algorithm, scheduler, family] = GetParam();
  const auto algo = core::make_algorithm(algorithm);
  for (std::uint64_t seed = 40; seed < 43; ++seed) {
    const auto initial = gen::generate(family, 20, seed);
    RunConfig config;
    config.scheduler = scheduler;
    config.seed = seed;
    const auto run = sim::run_simulation(*algo, initial, config);

    // Law 1: initial positions are preserved verbatim in the result.
    EXPECT_EQ(run.initial_positions, initial);

    // Law 2: move segments chain — each robot's moves start where the
    // previous one ended (build_trajectories throws otherwise).
    const auto trajectories =
        sim::build_trajectories(run.initial_positions, run.moves);
    for (std::size_t i = 0; i < trajectories.size(); ++i) {
      // After its last move a robot rests where the run left it.
      EXPECT_EQ(trajectories[i].at(std::numeric_limits<double>::infinity()),
                run.final_positions[i]);
      const auto& moves = trajectories[i].moves();
      for (std::size_t k = 1; k < moves.size(); ++k) {
        EXPECT_EQ(moves[k].from, moves[k - 1].to);
      }
      if (!moves.empty()) {
        EXPECT_EQ(moves.front().from, initial[i]);
      }
    }

    // Law 3: time is sane — move windows are positive (sync rounds are
    // unit-length) and within [0, final_time].
    for (const auto& m : run.moves) {
      EXPECT_LT(m.t0, m.t1);
      EXPECT_GE(m.t0, 0.0);
      EXPECT_LE(m.t1, run.final_time + 1e-9);
    }

    // Law 4: epoch count is positive and bounded by total cycles.
    if (run.converged && run.total_cycles > 0) {
      EXPECT_GE(run.epochs, 1u);
      EXPECT_LE(run.epochs, run.total_cycles);
    }

    // Law 5: colors stay within the algorithm's palette size.
    EXPECT_LE(run.distinct_lights_used(), algo->palette().size());

    // Law 6 (solver correctness on its home scheduler): converged runs end
    // in strictly convex position with full mutual visibility.
    if (run.converged) {
      EXPECT_TRUE(
          sim::verify_complete_visibility(run.final_positions).complete())
          << algorithm << "/" << to_string(scheduler) << "/"
          << gen::to_string(family) << " seed " << seed;
    } else {
      ADD_FAILURE() << "non-convergence: " << algorithm << "/"
                    << to_string(scheduler) << "/" << gen::to_string(family)
                    << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AsyncLogEverywhere, ExecutionLawsTest,
    ::testing::Combine(::testing::Values(std::string("async-log")),
                       ::testing::Values(SchedulerKind::kAsync,
                                         SchedulerKind::kSsync,
                                         SchedulerKind::kFsync),
                       ::testing::Values(gen::ConfigFamily::kUniformDisk,
                                         gen::ConfigFamily::kMultiCluster,
                                         gen::ConfigFamily::kCollinear,
                                         gen::ConfigFamily::kGrid)));

INSTANTIATE_TEST_SUITE_P(
    BaselineAsync, ExecutionLawsTest,
    ::testing::Combine(::testing::Values(std::string("seq-baseline")),
                       ::testing::Values(SchedulerKind::kAsync),
                       ::testing::Values(gen::ConfigFamily::kUniformDisk,
                                         gen::ConfigFamily::kRingWithCore)));

INSTANTIATE_TEST_SUITE_P(
    SsyncParallelHome, ExecutionLawsTest,
    ::testing::Combine(::testing::Values(std::string("ssync-parallel")),
                       ::testing::Values(SchedulerKind::kFsync,
                                         SchedulerKind::kSsync),
                       ::testing::Values(gen::ConfigFamily::kUniformDisk)));

TEST(ExecutionLaws, NonRigidAcrossFamilies) {
  const auto algo = core::make_algorithm("async-log");
  for (const auto family :
       {gen::ConfigFamily::kUniformDisk, gen::ConfigFamily::kCollinear,
        gen::ConfigFamily::kRingWithCore}) {
    const auto initial = gen::generate(family, 20, 51);
    RunConfig config;
    config.seed = 51;
    config.rigid_moves = false;
    const auto run = sim::run_simulation(*algo, initial, config);
    EXPECT_TRUE(run.converged) << gen::to_string(family);
    EXPECT_TRUE(sim::verify_complete_visibility(run.final_positions).complete())
        << gen::to_string(family);
  }
}

TEST(ExecutionLaws, EpochsGrowWithNInExpectation) {
  const auto algo = core::make_algorithm("async-log");
  double small_sum = 0.0, large_sum = 0.0;
  for (std::uint64_t seed = 60; seed < 64; ++seed) {
    RunConfig config;
    config.seed = seed;
    small_sum += static_cast<double>(
        sim::run_simulation(
            *algo, gen::generate(gen::ConfigFamily::kUniformDisk, 8, seed),
            config)
            .epochs);
    large_sum += static_cast<double>(
        sim::run_simulation(
            *algo, gen::generate(gen::ConfigFamily::kUniformDisk, 96, seed),
            config)
            .epochs);
  }
  EXPECT_LT(small_sum, large_sum);
}

}  // namespace
}  // namespace lumen
