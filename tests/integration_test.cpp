// End-to-end integration tests: the paper's claims, executed.
//
// Each test runs full simulations and checks the machine-verifiable
// postconditions: convergence, complete visibility (C1), collision freedom
// (C4), O(1) colors (C3), and the relative behaviour of the baseline (C5).
// The parameterized matrix covers configuration families x schedulers x
// adversaries.
#include <gtest/gtest.h>

#include "analysis/campaign.hpp"
#include "core/registry.hpp"
#include "gen/generators.hpp"
#include "geom/hull.hpp"
#include "sim/monitors.hpp"
#include "sim/run.hpp"

namespace lumen {
namespace {

using sim::RunConfig;
using sim::SchedulerKind;

struct Outcome {
  sim::RunResult run;
  sim::VisibilityVerdict visibility;
  sim::CollisionReport collisions;
};

Outcome execute(std::string_view algorithm, gen::ConfigFamily family,
                std::size_t n, std::uint64_t seed, const RunConfig& base,
                std::span<sim::RunObserver* const> observers = {}) {
  const auto algo = core::make_algorithm(algorithm);
  const auto initial = gen::generate(family, n, seed);
  RunConfig config = base;
  config.seed = seed;
  Outcome out{sim::run_simulation(*algo, initial, config, observers), {}, {}};
  out.visibility = sim::verify_complete_visibility(out.run.final_positions);
  out.collisions = sim::check_collisions(out.run.initial_positions, out.run.moves,
                                         out.run.final_time);
  return out;
}

// ---------------------------------------------------------------------------
// The full ASYNC matrix for the paper's algorithm.
// ---------------------------------------------------------------------------

class AsyncMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<gen::ConfigFamily, sched::AdversaryKind, std::size_t>> {};

TEST_P(AsyncMatrixTest, SolvesCompleteVisibilityCollisionFree) {
  const auto [family, adversary, n] = GetParam();
  RunConfig config;
  config.scheduler = SchedulerKind::kAsync;
  config.adversary = adversary;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Outcome out = execute("async-log", family, n, seed, config);
    EXPECT_TRUE(out.run.converged) << "seed " << seed;
    EXPECT_TRUE(out.visibility.complete()) << "seed " << seed;
    EXPECT_TRUE(out.collisions.hazard_free(1e-9))
        << "seed " << seed << " crossings=" << out.collisions.path_crossings
        << " collisions=" << out.collisions.position_collisions
        << " minsep=" << out.collisions.min_separation;
    EXPECT_LE(out.run.distinct_lights_used(), model::kLightCount);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAdversaries, AsyncMatrixTest,
    ::testing::Combine(
        ::testing::Values(gen::ConfigFamily::kUniformDisk,
                          gen::ConfigFamily::kGaussianBlob,
                          gen::ConfigFamily::kMultiCluster,
                          gen::ConfigFamily::kRingWithCore,
                          gen::ConfigFamily::kGrid, gen::ConfigFamily::kCollinear,
                          gen::ConfigFamily::kNearCollinear,
                          gen::ConfigFamily::kDenseDiameter),
        ::testing::Values(sched::AdversaryKind::kUniform,
                          sched::AdversaryKind::kBursty),
        ::testing::Values(std::size_t{24})));

INSTANTIATE_TEST_SUITE_P(
    HardAdversaries, AsyncMatrixTest,
    ::testing::Combine(::testing::Values(gen::ConfigFamily::kUniformDisk,
                                         gen::ConfigFamily::kRingWithCore),
                       ::testing::Values(sched::AdversaryKind::kStallOne,
                                         sched::AdversaryKind::kLockstep),
                       ::testing::Values(std::size_t{32})));

// ---------------------------------------------------------------------------
// Tiny configurations and degenerate cases.
// ---------------------------------------------------------------------------

class TinyNTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TinyNTest, AsyncLogHandlesSmallSwarms) {
  RunConfig config;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Outcome out =
        execute("async-log", gen::ConfigFamily::kUniformDisk, GetParam(), seed,
                config);
    EXPECT_TRUE(out.run.converged);
    EXPECT_TRUE(out.visibility.complete());
    EXPECT_TRUE(out.collisions.hazard_free(1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TinyNTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{3}, std::size_t{4},
                                           std::size_t{5}, std::size_t{7}));

TEST(Integration, ExactlyCollinearStartIsEscapedAndSolved) {
  RunConfig config;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Outcome out =
        execute("async-log", gen::ConfigFamily::kCollinear, 20, seed, config);
    EXPECT_TRUE(out.run.converged) << seed;
    EXPECT_TRUE(out.visibility.complete()) << seed;
    EXPECT_TRUE(out.collisions.hazard_free(1e-9)) << seed;
  }
}

// ---------------------------------------------------------------------------
// All three algorithms under their home schedulers.
// ---------------------------------------------------------------------------

TEST(Integration, BaselineSolvesAsyncCorrectly) {
  RunConfig config;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Outcome out =
        execute("seq-baseline", gen::ConfigFamily::kUniformDisk, 24, seed, config);
    EXPECT_TRUE(out.run.converged);
    EXPECT_TRUE(out.visibility.complete());
    // The fully serialized baseline DOES guarantee strict path disjointness.
    EXPECT_TRUE(out.collisions.clean());
  }
}

TEST(Integration, SsyncParallelSolvesUnderFsync) {
  RunConfig config;
  config.scheduler = SchedulerKind::kFsync;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Outcome out = execute("ssync-parallel", gen::ConfigFamily::kUniformDisk,
                                24, seed, config);
    EXPECT_TRUE(out.run.converged);
    EXPECT_TRUE(out.visibility.complete());
  }
}

TEST(Integration, AsyncLogSolvesUnderSsyncToo) {
  RunConfig config;
  config.scheduler = SchedulerKind::kSsync;
  config.activation = sched::ActivationKind::kRandomHalf;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Outcome out =
        execute("async-log", gen::ConfigFamily::kUniformDisk, 24, seed, config);
    EXPECT_TRUE(out.run.converged);
    EXPECT_TRUE(out.visibility.complete());
    EXPECT_TRUE(out.collisions.hazard_free(1e-9));
  }
}

// ---------------------------------------------------------------------------
// Claim-level properties.
// ---------------------------------------------------------------------------

TEST(Claims, ColorCountIndependentOfN) {
  // C3: the number of distinct colors displayed must not grow with N.
  RunConfig config;
  std::size_t colors_small = 0, colors_large = 0;
  {
    const Outcome out =
        execute("async-log", gen::ConfigFamily::kUniformDisk, 8, 3, config);
    colors_small = out.run.distinct_lights_used();
  }
  {
    const Outcome out =
        execute("async-log", gen::ConfigFamily::kUniformDisk, 96, 3, config);
    colors_large = out.run.distinct_lights_used();
  }
  EXPECT_LE(colors_large, model::kLightCount);
  EXPECT_LE(colors_large, colors_small + 2);
}

TEST(Claims, BaselineGrowsLinearlyAsyncLogDoesNot) {
  // C2 vs C5 in miniature: between N=16 and N=64 the baseline's epochs grow
  // about 4x; the paper algorithm's grow far slower.
  analysis::CampaignSpec spec;
  spec.runs = 4;
  spec.audit_collisions = false;
  // Mean epochs at N = 64 over those at N = 16.
  const auto growth = [&spec](const char* algorithm) {
    spec.algorithm = algorithm;
    spec.n = 16;
    const double small = analysis::run_campaign(spec).epochs().mean;
    spec.n = 64;
    return analysis::run_campaign(spec).epochs().mean / std::max(1.0, small);
  };
  const double fast_ratio = growth("async-log");
  const double slow_ratio = growth("seq-baseline");
  EXPECT_GT(slow_ratio, 2.5);
  EXPECT_LT(fast_ratio, slow_ratio);
}

TEST(Claims, HandshakeSerializesSameGate) {
  // C4 ablation: under identical ASYNC schedules, ssync-parallel (no
  // handshake) accumulates incidents across seeds where async-log stays
  // clean. (Any single seed may be lucky; the aggregate must separate.)
  RunConfig config;
  std::size_t ablation_incidents = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Outcome guarded =
        execute("async-log", gen::ConfigFamily::kUniformDisk, 48, seed, config);
    EXPECT_TRUE(guarded.collisions.hazard_free(1e-9)) << seed;
    const Outcome unguarded = execute("ssync-parallel",
                                      gen::ConfigFamily::kUniformDisk, 48, seed,
                                      config);
    ablation_incidents += unguarded.collisions.path_crossings +
                          unguarded.collisions.position_collisions;
  }
  EXPECT_GT(ablation_incidents, 0u);
}

/// Strict-hull corner count at run begin and after every move completion,
/// with the robots still in flight at their interpolated positions.
class PerMoveCornerCensus final : public sim::RunObserver {
 public:
  void on_run_begin(const sim::WorldView& world) override {
    census(world, 0.0);
  }
  void on_move_complete(const sim::MoveSegment& move,
                        const sim::WorldView& world) override {
    census(world, move.t1);
  }

  std::vector<std::size_t> corners;

 private:
  void census(const sim::WorldView& world, double t) {
    std::vector<geom::Vec2> positions(world.size());
    for (std::size_t j = 0; j < world.size(); ++j) {
      positions[j] = world.position_at(j, t);
    }
    corners.push_back(geom::convex_hull_indices(positions).size());
  }
};

TEST(Claims, CornerCountIsMonotoneNonDecreasing) {
  // Supporting invariant for C6: corners never lose corner status.
  PerMoveCornerCensus census;
  sim::RunObserver* observers[] = {&census};
  const std::size_t n = 48;
  const Outcome out = execute("async-log", gen::ConfigFamily::kRingWithCore,
                              n, 2, RunConfig{}, observers);
  ASSERT_TRUE(out.run.converged);
  const auto& history = census.corners;
  ASSERT_EQ(history.size(), 1 + out.run.total_moves);
  ASSERT_GE(history.size(), 2u);
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i] + 1, history[i - 1]) << "at sample " << i;
  }
  EXPECT_EQ(history.back(), n);
}

TEST(Claims, FinalLightsAreAllCornerLike) {
  const Outcome out = execute("async-log", gen::ConfigFamily::kUniformDisk, 32,
                              11, RunConfig{});
  ASSERT_TRUE(out.run.converged);
  for (const auto light : out.run.final_lights) {
    EXPECT_TRUE(light == model::Light::kCorner || light == model::Light::kLineEnd)
        << to_string(light);
  }
}

}  // namespace
}  // namespace lumen
