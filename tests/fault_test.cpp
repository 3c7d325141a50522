// lumen_fault unit tests: enum string round-trips, FaultPlan JSON
// serialization (byte-identical round-trip, strict parse errors) and the
// FaultState channel semantics in isolation (crash budget/schedules, noisy
// views, light corruption, per-Look stream determinism).
#include "fault/plan.hpp"
#include "fault/state.hpp"

#include "model/frame.hpp"
#include "util/fields.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace lumen::fault {
namespace {

/// Reads a plan the way a spec's run.fault is read: its field list, then
/// its range rules.
std::optional<FaultPlan> read_plan(const util::JsonValue& json,
                                   std::string* error) {
  FaultPlan plan;
  std::string problem = util::read_fields(json, plan, "fault");
  if (problem.empty()) {
    problem = validate_fault_plan(plan);
    if (!problem.empty()) problem = "fault." + problem;
  }
  if (problem.empty()) return plan;
  *error = problem;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Enum round-trips (satellite: from_string/to_string follow the repo's
// case-insensitive parser convention).

TEST(FaultEnums, CrashScheduleRoundTrips) {
  for (const auto k : {CrashScheduleKind::kRate, CrashScheduleKind::kTimes}) {
    const auto parsed = crash_schedule_from_string(to_string(k));
    ASSERT_TRUE(parsed.has_value()) << to_string(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_EQ(crash_schedule_from_string("RATE"), CrashScheduleKind::kRate);
  EXPECT_EQ(crash_schedule_from_string("Times"), CrashScheduleKind::kTimes);
  EXPECT_EQ(crash_schedule_from_string("sometimes"), std::nullopt);
  EXPECT_EQ(crash_schedule_from_string(""), std::nullopt);
}

TEST(FaultEnums, CorruptionModeRoundTrips) {
  for (const auto m :
       {CorruptionMode::kStuck, CorruptionMode::kFlip, CorruptionMode::kRandom}) {
    const auto parsed = corruption_mode_from_string(to_string(m));
    ASSERT_TRUE(parsed.has_value()) << to_string(m);
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_EQ(corruption_mode_from_string("STUCK"), CorruptionMode::kStuck);
  EXPECT_EQ(corruption_mode_from_string("Flip"), CorruptionMode::kFlip);
  EXPECT_EQ(corruption_mode_from_string("garbled"), std::nullopt);
}

TEST(FaultEnums, ChannelNamesAreStable) {
  EXPECT_EQ(to_string(FaultChannel::kNone), "none");
  EXPECT_EQ(to_string(FaultChannel::kCrash), "crash");
  EXPECT_EQ(to_string(FaultChannel::kLight), "light");
  EXPECT_EQ(to_string(FaultChannel::kNoise), "noise");
}

// ---------------------------------------------------------------------------
// Plan JSON.

FaultPlan sample_plan() {
  FaultPlan plan;
  plan.crash.count = 3;
  plan.crash.schedule = CrashScheduleKind::kTimes;
  plan.crash.times = {0.5, 2.0, 7.25};
  plan.light.probability = 0.125;
  plan.light.mode = CorruptionMode::kFlip;
  plan.noise.sigma = 0.01;
  plan.noise.dropout = 0.0625;
  return plan;
}

TEST(FaultPlanJson, RoundTripsByteIdentically) {
  for (const FaultPlan& plan : {FaultPlan{}, sample_plan()}) {
    const std::string text = util::json_write(util::write_fields(plan));
    const auto json = util::json_parse(text);
    ASSERT_TRUE(json.has_value());
    std::string error;
    const auto parsed = read_plan(*json, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, plan);
    EXPECT_EQ(util::json_write(util::write_fields(*parsed)), text);
  }
}

TEST(FaultPlanJson, MissingKeysKeepDefaults) {
  const auto json = util::json_parse(R"({"light": {"probability": 0.5}})");
  ASSERT_TRUE(json.has_value());
  std::string error;
  const auto parsed = read_plan(*json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->light.probability, 0.5);
  EXPECT_EQ(parsed->light.mode, CorruptionMode::kRandom);
  EXPECT_EQ(parsed->crash, CrashPlan{});
  EXPECT_EQ(parsed->noise, SensorNoisePlan{});
}

TEST(FaultPlanJson, RejectsBadDocuments) {
  const char* bad[] = {
      R"("not an object")",
      R"({"bogus": 1})",
      R"({"crash": {"count": -1}})",
      R"({"crash": {"rate": 1.5}})",
      R"({"crash": {"times": [-0.5]}})",
      R"({"crash": {"schedule": "sometimes"}})",
      R"({"light": {"probability": 2.0}})",
      R"({"light": {"mode": "garbled"}})",
      R"({"noise": {"sigma": -1.0}})",
      R"({"noise": {"dropout": -0.1}})",
  };
  for (const char* text : bad) {
    const auto json = util::json_parse(text);
    ASSERT_TRUE(json.has_value()) << text;
    std::string error;
    EXPECT_EQ(read_plan(*json, &error), std::nullopt) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(FaultPlan, ActivityPredicates) {
  EXPECT_FALSE(FaultPlan{}.any());
  FaultPlan count_without_rate;
  count_without_rate.crash.count = 2;  // rate 0 -> channel still inert.
  EXPECT_FALSE(count_without_rate.any());
  FaultPlan rate_without_count;
  rate_without_count.crash.rate = 0.5;  // count 0 -> budget empty.
  EXPECT_FALSE(rate_without_count.any());
  EXPECT_TRUE(sample_plan().any());
}

// ---------------------------------------------------------------------------
// FaultState: crash channel.

TEST(FaultState, InactivePlanNeverCrashes) {
  FaultState state;
  state.init(FaultPlan{}, util::Prng{42}, 8);
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_FALSE(state.try_crash(r, 0.0));
    EXPECT_FALSE(state.crashed(r));
  }
  EXPECT_EQ(state.crash_count(), 0u);
  EXPECT_FALSE(state.counters().any());
}

TEST(FaultState, RateScheduleRespectsBudget) {
  FaultPlan plan;
  plan.crash.count = 2;
  plan.crash.rate = 1.0;  // Every check crashes, until the budget runs out.
  FaultState state;
  state.init(plan, util::Prng{42}, 8);
  EXPECT_TRUE(state.try_crash(3, 0.0));
  EXPECT_TRUE(state.crashed(3));
  EXPECT_FALSE(state.try_crash(3, 1.0));  // Already dead: no double kill.
  EXPECT_TRUE(state.try_crash(5, 1.0));
  EXPECT_EQ(state.crash_count(), 2u);
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_FALSE(state.try_crash(r, 2.0)) << r;  // Budget exhausted.
  }
  EXPECT_EQ(state.counters().crashes, 2u);
}

TEST(FaultState, TimesScheduleFiresAtInstants) {
  FaultPlan plan;
  plan.crash.count = 2;
  plan.crash.schedule = CrashScheduleKind::kTimes;
  plan.crash.times = {5.0, 1.0};  // Unsorted on purpose; sorted on init.
  FaultState state;
  state.init(plan, util::Prng{42}, 4);
  EXPECT_FALSE(state.try_crash(0, 0.5));  // Before the first instant.
  EXPECT_TRUE(state.try_crash(1, 1.0));   // Claims the t=1 entry.
  EXPECT_FALSE(state.try_crash(2, 2.0));  // Next entry is t=5.
  EXPECT_TRUE(state.try_crash(3, 6.0));   // Claims the t=5 entry.
  EXPECT_FALSE(state.try_crash(0, 100.0));
  EXPECT_EQ(state.crash_count(), 2u);
}

// ---------------------------------------------------------------------------
// FaultState: view channels.

TEST(FaultState, LookRngIsDeterministicPerRobotAndSeq) {
  FaultPlan plan;
  plan.noise.sigma = 0.1;
  FaultState state;
  state.init(plan, util::Prng{7}, 4);
  util::Prng a = state.look_rng(2, 17);
  util::Prng b = state.look_rng(2, 17);
  util::Prng c = state.look_rng(2, 18);
  util::Prng d = state.look_rng(3, 17);
  const std::uint64_t va = a(), vb = b();
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, c());
  EXPECT_NE(va, d());
}

TEST(FaultState, NoisyViewKeepsObserverExactAndCountsPerturbations) {
  FaultPlan plan;
  plan.noise.sigma = 0.25;
  FaultState state;
  state.init(plan, util::Prng{7}, 4);
  const std::vector<double> xs = {0, 1, 0, 1};
  const std::vector<double> ys = {0, 0, 1, 1};
  const std::vector<model::Light> lights(4, model::Light::kCorner);
  ViewScratch view;
  LookFaultStats stats;
  util::Prng rng = state.look_rng(1, 0);
  const std::size_t self =
      state.make_noisy_view(1, rng, xs, ys, lights, view, stats);
  ASSERT_EQ(view.xs.size(), 4u);
  ASSERT_EQ(view.ys.size(), 4u);
  EXPECT_EQ(view.xs[self], xs[1]);  // Observer untouched.
  EXPECT_EQ(view.ys[self], ys[1]);
  EXPECT_EQ(stats.dropped, 0u);     // dropout == 0: nobody vanishes.
  EXPECT_EQ(stats.perturbed, 3u);
  for (std::size_t j = 0; j < 4; ++j) {
    if (j == self) continue;
    EXPECT_TRUE(view.xs[j] != xs[j] || view.ys[j] != ys[j]) << j;
  }
}

TEST(FaultState, FullDropoutLeavesOnlyTheObserver) {
  FaultPlan plan;
  plan.noise.dropout = 1.0;
  FaultState state;
  state.init(plan, util::Prng{7}, 5);
  const std::vector<double> xs = {0, 1, 2, 3, 4};
  const std::vector<double> ys = {0, 0, 0, 0, 0};
  const std::vector<model::Light> lights(5, model::Light::kOff);
  ViewScratch view;
  LookFaultStats stats;
  util::Prng rng = state.look_rng(2, 0);
  const std::size_t self =
      state.make_noisy_view(2, rng, xs, ys, lights, view, stats);
  ASSERT_EQ(view.xs.size(), 1u);
  EXPECT_EQ(self, 0u);
  EXPECT_EQ(view.xs[0], xs[2]);
  EXPECT_EQ(view.ys[0], ys[2]);
  EXPECT_EQ(stats.dropped, 4u);
}

TEST(FaultState, CorruptLightsAlwaysMisreadsUnderCertainty) {
  for (const auto mode :
       {CorruptionMode::kStuck, CorruptionMode::kFlip, CorruptionMode::kRandom}) {
    FaultPlan plan;
    plan.light.probability = 1.0;
    plan.light.mode = mode;
    FaultState state;
    state.init(plan, util::Prng{11}, 4);
    model::Snapshot snap;
    snap.reset(model::Light::kCorner);
    snap.push_visible(geom::Vec2{1, 0}, model::Light::kCorner);
    snap.push_visible(geom::Vec2{0, 1}, model::Light::kSide);
    snap.push_visible(geom::Vec2{1, 1}, model::Light::kOff);
    LookFaultStats stats;
    util::Prng rng = state.look_rng(0, 0);
    state.corrupt_lights(rng, snap, stats);
    EXPECT_EQ(stats.corrupted, 3u) << to_string(mode);
    EXPECT_EQ(snap.self_light, model::Light::kCorner);  // Never the self light.
    // The visible robots' lights: lights[0] repeats the self light.
    const auto others = std::span<const model::Light>{snap.lights}.subspan(1);
    // A corrupted read is an actual MISREAD, never the original color...
    EXPECT_NE(others[0], model::Light::kCorner) << to_string(mode);
    EXPECT_NE(others[1], model::Light::kSide) << to_string(mode);
    if (mode == CorruptionMode::kStuck) {
      // ...except kStuck, which pins everything at kOff by definition.
      for (const auto l : others) EXPECT_EQ(l, model::Light::kOff);
    } else {
      EXPECT_NE(others[2], model::Light::kOff) << to_string(mode);
    }
  }
}

TEST(FaultState, AccountSumsIntoCounters) {
  FaultPlan plan;
  plan.noise.sigma = 0.1;
  FaultState state;
  state.init(plan, util::Prng{3}, 2);
  state.account(LookFaultStats{2, 3, 4});
  state.account(LookFaultStats{1, 0, 5});
  const FaultCounters c = state.counters();
  EXPECT_EQ(c.corrupted_reads, 3u);
  EXPECT_EQ(c.dropped_observations, 3u);
  EXPECT_EQ(c.perturbed_observations, 9u);
  EXPECT_EQ(c.crashes, 0u);
}

}  // namespace
}  // namespace lumen::fault
