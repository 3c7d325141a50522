// Fault injection through the engines: the determinism contract (an
// INACTIVE plan is bit-identical to a fault-free run; active plans are
// bit-identical across pool sizes and repetitions), crash-stop semantics
// (dead bodies keep obstructing, survivors quiesce around them), outcome
// classification, fault event recording, and SafetyMonitor parity with the
// bare collision monitor on fault-free runs.
#include "core/registry.hpp"
#include "fault/plan.hpp"
#include "gen/generators.hpp"
#include "sim/monitors.hpp"
#include "sim/run.hpp"
#include "sim/streaming_collision.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

namespace lumen::sim {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t bits(double d) noexcept {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Digests every RunResult field bit-for-bit, fault fields included.
std::uint64_t run_digest(const RunResult& r) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, r.converged ? 1 : 0);
  h = mix(h, bits(r.final_time));
  h = mix(h, r.epochs);
  h = mix(h, r.rounds);
  h = mix(h, r.total_cycles);
  h = mix(h, r.total_moves);
  h = mix(h, bits(r.total_distance));
  for (const auto& p : r.final_positions) {
    h = mix(h, bits(p.x));
    h = mix(h, bits(p.y));
  }
  for (const model::Light l : r.final_lights) {
    h = mix(h, static_cast<std::uint64_t>(l));
  }
  for (const auto& m : r.moves) {
    h = mix(h, m.robot);
    h = mix(h, bits(m.t0));
    h = mix(h, bits(m.t1));
    h = mix(h, bits(m.from.x));
    h = mix(h, bits(m.from.y));
    h = mix(h, bits(m.to.x));
    h = mix(h, bits(m.to.y));
  }
  h = mix(h, static_cast<std::uint64_t>(r.outcome));
  h = mix(h, r.faults.crashes);
  h = mix(h, r.faults.corrupted_reads);
  h = mix(h, r.faults.dropped_observations);
  h = mix(h, r.faults.perturbed_observations);
  for (const std::uint8_t c : r.crashed) h = mix(h, c);
  for (const auto& e : r.fault_events) {
    h = mix(h, static_cast<std::uint64_t>(e.channel));
    h = mix(h, e.robot);
    h = mix(h, bits(e.time));
    h = mix(h, e.corrupted_reads);
    h = mix(h, e.dropped);
    h = mix(h, e.perturbed);
  }
  return h;
}

struct Case {
  const char* label;
  const char* algorithm;
  SchedulerKind scheduler;
  std::size_t n;
  std::uint64_t seed;
};

const Case kCases[] = {
    {"fsync", "ssync-parallel", SchedulerKind::kFsync, 24, 5},
    {"ssync", "ssync-parallel", SchedulerKind::kSsync, 24, 5},
    {"async", "async-log", SchedulerKind::kAsync, 16, 7},
};

RunResult run_case(const Case& c, const fault::FaultPlan& plan,
                   util::ThreadPool* pool = nullptr) {
  RunConfig config;
  config.scheduler = c.scheduler;
  config.seed = c.seed;
  config.fault = plan;
  config.pool = pool;
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, c.n, c.seed);
  const auto algo = core::make_algorithm(c.algorithm);
  return run_simulation(*algo, initial, config);
}

/// An active plan exercising every channel at once.
fault::FaultPlan all_channels_plan() {
  fault::FaultPlan plan;
  plan.crash.count = 2;
  plan.crash.rate = 0.02;
  plan.light.probability = 0.05;
  plan.noise.sigma = 1e-4;
  plan.noise.dropout = 0.01;
  return plan;
}

// ---------------------------------------------------------------------------
// Determinism.

TEST(SimFault, InactivePlanIsBitIdenticalToFaultFreeRun) {
  // Non-default but INACTIVE channels (zero rate / probability / sigma)
  // must leave every PRNG stream and result bit untouched.
  fault::FaultPlan inactive;
  inactive.crash.count = 4;          // rate stays 0 -> channel inert.
  inactive.light.mode = fault::CorruptionMode::kFlip;  // probability 0.
  for (const Case& c : kCases) {
    const RunResult plain = run_case(c, fault::FaultPlan{});
    const RunResult planned = run_case(c, inactive);
    EXPECT_EQ(run_digest(planned), run_digest(plain)) << c.label;
    EXPECT_FALSE(planned.faults.any()) << c.label;
    EXPECT_EQ(planned.outcome, RunOutcome::kConverged) << c.label;
  }
}

TEST(SimFault, FaultedRunsAreBitIdenticalForAnyPoolSize) {
  const std::size_t hw =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  std::vector<std::size_t> sizes = {1, 2};
  if (hw > 2) sizes.push_back(hw);
  for (const Case& c : kCases) {
    const std::uint64_t serial = run_digest(run_case(c, all_channels_plan()));
    for (const std::size_t workers : sizes) {
      util::ThreadPool pool{workers};
      const std::uint64_t pooled =
          run_digest(run_case(c, all_channels_plan(), &pool));
      EXPECT_EQ(pooled, serial) << c.label << " pool=" << workers;
    }
  }
}

TEST(SimFault, FaultedRunsAreRepeatable) {
  for (const Case& c : kCases) {
    const std::uint64_t first = run_digest(run_case(c, all_channels_plan()));
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(run_digest(run_case(c, all_channels_plan())), first)
          << c.label << " repetition " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Crash-stop semantics.

fault::FaultPlan boot_crash_plan() {
  fault::FaultPlan plan;
  plan.crash.count = 1;
  plan.crash.schedule = fault::CrashScheduleKind::kTimes;
  plan.crash.times = {0.0};  // The first robot to start a cycle dies.
  return plan;
}

TEST(SimFault, CrashedRobotKeepsBodyAndLastLight) {
  for (const Case& c : kCases) {
    const RunResult run = run_case(c, boot_crash_plan());
    ASSERT_EQ(run.crashed.size(), c.n) << c.label;
    const std::size_t dead = static_cast<std::size_t>(
        std::find(run.crashed.begin(), run.crashed.end(), 1) -
        run.crashed.begin());
    ASSERT_LT(dead, c.n) << c.label;
    EXPECT_EQ(std::count(run.crashed.begin(), run.crashed.end(), 1), 1)
        << c.label;
    EXPECT_EQ(run.faults.crashes, 1u) << c.label;
    // Dead at its very first cycle start: it never moved and never changed
    // its light, but its body stayed in the configuration.
    EXPECT_EQ(run.final_positions[dead], run.initial_positions[dead]) << c.label;
    EXPECT_EQ(run.final_lights[dead], model::Light::kOff) << c.label;
    // Survivors still reached a fixpoint around the dead body.
    EXPECT_TRUE(run.converged) << c.label;
    EXPECT_EQ(run.outcome, RunOutcome::kStalled) << c.label;
  }
}

TEST(SimFault, FaultEventsAreRecordedWhenTracing) {
  Case c = kCases[2];  // ASYNC.
  RunConfig config;
  config.scheduler = c.scheduler;
  config.seed = c.seed;
  config.fault = all_channels_plan();
  config.record_moves = true;
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, c.n, c.seed);
  const auto algo = core::make_algorithm(c.algorithm);
  const RunResult run = run_simulation(*algo, initial, config);
  ASSERT_FALSE(run.fault_events.empty());
  std::uint64_t crashes = 0, corrupted = 0, dropped = 0, perturbed = 0;
  for (const auto& e : run.fault_events) {
    ASSERT_NE(e.channel, fault::FaultChannel::kNone);
    ASSERT_LT(e.robot, c.n);
    crashes += e.channel == fault::FaultChannel::kCrash ? 1 : 0;
    corrupted += e.corrupted_reads;
    dropped += e.dropped;
    perturbed += e.perturbed;
  }
  // The event log and the streaming counters tell one consistent story.
  EXPECT_EQ(crashes, run.faults.crashes);
  EXPECT_EQ(corrupted, run.faults.corrupted_reads);
  EXPECT_EQ(dropped, run.faults.dropped_observations);
  EXPECT_EQ(perturbed, run.faults.perturbed_observations);

  // A fault-free traced run records no events at all.
  config.fault = fault::FaultPlan{};
  EXPECT_TRUE(run_simulation(*algo, initial, config).fault_events.empty());
}

// ---------------------------------------------------------------------------
// Outcome classification.

TEST(SimFault, OutcomeClassification) {
  const Case& c = kCases[2];
  EXPECT_EQ(run_case(c, fault::FaultPlan{}).outcome, RunOutcome::kConverged);
  EXPECT_EQ(run_case(c, boot_crash_plan()).outcome, RunOutcome::kStalled);

  RunConfig config;
  config.scheduler = c.scheduler;
  config.seed = c.seed;
  config.max_cycles_per_robot = 1;  // Far too small to converge.
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, c.n, c.seed);
  const auto algo = core::make_algorithm(c.algorithm);
  EXPECT_EQ(run_simulation(*algo, initial, config).outcome,
            RunOutcome::kBudgetExhausted);
}

TEST(SimFault, OutcomeStringsRoundTrip) {
  for (const auto o : {RunOutcome::kConverged, RunOutcome::kStalled,
                       RunOutcome::kCollision, RunOutcome::kBudgetExhausted}) {
    const auto parsed = outcome_from_string(to_string(o));
    ASSERT_TRUE(parsed.has_value()) << to_string(o);
    EXPECT_EQ(*parsed, o);
  }
  EXPECT_EQ(outcome_from_string("STALLED"), RunOutcome::kStalled);
  EXPECT_EQ(outcome_from_string("Budget-Exhausted"),
            RunOutcome::kBudgetExhausted);
  EXPECT_EQ(outcome_from_string("exploded"), std::nullopt);
}

// ---------------------------------------------------------------------------
// SafetyMonitor.

TEST(SimFault, SafetyMonitorMatchesBareMonitorOnFaultFreeRun) {
  const Case& c = kCases[1];
  const auto initial = gen::generate(gen::ConfigFamily::kUniformDisk, c.n, c.seed);
  const auto algo = core::make_algorithm(c.algorithm);
  RunConfig config;
  config.scheduler = c.scheduler;
  config.seed = c.seed;

  StreamingCollisionMonitor bare;
  SafetyMonitor safety;
  RunObserver* observers[] = {&bare, &safety};
  (void)run_simulation(*algo, initial, config, observers);

  EXPECT_EQ(safety.report().position_collisions, bare.report().position_collisions);
  EXPECT_EQ(safety.report().path_crossings, bare.report().path_crossings);
  EXPECT_EQ(bits(safety.report().min_separation),
            bits(bare.report().min_separation));
  // The run is incident-free, so no channel (not even the pre-fault kNone
  // bucket) has anything to be blamed for.
  EXPECT_EQ(safety.report().position_collisions + safety.report().path_crossings, 0u);
  EXPECT_EQ(safety.dominant_channel(), fault::FaultChannel::kNone);
}

}  // namespace
}  // namespace lumen::sim
