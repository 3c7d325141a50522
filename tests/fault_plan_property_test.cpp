// FaultPlan serialization under adversarial inputs (the hunt mutates and
// journals plans by the thousand, so the parse boundary must be total):
// randomly generated valid plans round-trip byte-identically; corrupted /
// mutated documents either fail JSON parsing, fail the plan's field-list
// reader or validate_fault_plan with a field-naming error, or parse to a
// plan whose canonical form round-trips byte-identically. Also covers the
// campaign validator's
// finiteness checks — infinities and NaNs must be rejected before they can
// poison a journal or a regression scenario.
#include "analysis/campaign.hpp"
#include "fault/plan.hpp"
#include "util/fields.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
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

FaultPlan random_valid_plan(util::Prng& rng) {
  FaultPlan plan;
  if (rng.bernoulli(0.6)) {
    plan.crash.count = rng.next_below(5);
    if (rng.bernoulli(0.5)) {
      plan.crash.schedule = CrashScheduleKind::kRate;
      plan.crash.rate = rng.next_double();
    } else {
      plan.crash.schedule = CrashScheduleKind::kTimes;
      const std::size_t k = rng.next_below(6);
      for (std::size_t i = 0; i < k; ++i) {
        plan.crash.times.push_back(rng.next_double() * 64.0);
      }
    }
  }
  if (rng.bernoulli(0.6)) {
    plan.light.probability = rng.next_double();
    const auto mode = rng.next_below(3);
    plan.light.mode = mode == 0   ? CorruptionMode::kStuck
                      : mode == 1 ? CorruptionMode::kFlip
                                  : CorruptionMode::kRandom;
  }
  if (rng.bernoulli(0.6)) {
    plan.noise.sigma = rng.next_double() * 0.1;
    plan.noise.dropout = rng.next_double();
  }
  return plan;
}

// The invariant every accepted document must satisfy: its canonical form is
// a fixed point of serialize -> parse -> serialize.
void expect_canonical_fixed_point(const FaultPlan& plan) {
  const std::string canonical = util::json_write(util::write_fields(plan));
  const auto doc = util::json_parse(canonical);
  ASSERT_TRUE(doc.has_value()) << canonical;
  std::string error;
  const auto parsed = read_plan(*doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << canonical;
  EXPECT_EQ(*parsed, plan);
  EXPECT_EQ(util::json_write(util::write_fields(*parsed)), canonical);
}

TEST(FaultPlanProperty, RandomValidPlansRoundTripByteIdentically) {
  util::Prng rng(2024);
  for (int i = 0; i < 500; ++i) {
    expect_canonical_fixed_point(random_valid_plan(rng));
  }
}

// ---------------------------------------------------------------------------
// Adversarially mutated documents.

// Deterministic byte-level mutation of a serialized plan: splice random
// characters from a JSON-flavored alphabet over random positions. Most
// results are garbage (must fail cleanly); the rest must round-trip.
std::string mutate_text(std::string text, util::Prng& rng) {
  static const char kAlphabet[] = "0123456789.eE+-{}[]\",:truefalsnl ";
  const std::size_t edits = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < edits && !text.empty(); ++i) {
    const std::size_t at = rng.next_below(text.size());
    text[at] = kAlphabet[rng.next_below(sizeof kAlphabet - 1)];
  }
  return text;
}

TEST(FaultPlanProperty, MutatedDocumentsAreRejectedOrRoundTrip) {
  util::Prng rng(7);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    const FaultPlan base = random_valid_plan(rng);
    const std::string mutated =
        mutate_text(util::json_write(util::write_fields(base)), rng);
    const auto doc = util::json_parse(mutated);
    if (!doc.has_value()) {
      ++rejected;  // Rejected at the parse boundary: fine.
      continue;
    }
    std::string error;
    const auto parsed = read_plan(*doc, &error);
    if (!parsed.has_value()) {
      ++rejected;
      // The plan-level rejection must name a field, not be a blank error.
      EXPECT_FALSE(error.empty()) << mutated;
      continue;
    }
    ++accepted;
    expect_canonical_fixed_point(*parsed);
  }
  // The mutation alphabet is JSON-flavored, so both branches must be
  // exercised for the property to mean anything.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(FaultPlanProperty, CraftedCorruptionsFailWithFieldNamingErrors) {
  const auto error_of = [](std::string_view text) {
    const auto doc = util::json_parse(text);
    if (!doc.has_value()) return std::string("<json parse error>");
    std::string error;
    const auto plan = read_plan(*doc, &error);
    EXPECT_FALSE(plan.has_value()) << text;
    return error;
  };
  EXPECT_NE(error_of(R"({"bogus": {}})").find("bogus"), std::string::npos);
  EXPECT_NE(error_of(R"({"crash": 3})").find("crash"), std::string::npos);
  EXPECT_NE(error_of(R"({"crash": {"count": -1}})").find("count"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"crash": {"schedule": "sometimes"}})")
                .find("schedule"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"crash": {"times": [1.0, -2.0]}})").find("times"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"light": {"probability": 1.5}})").find("probability"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"light": {"mode": 7}})").find("mode"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"noise": {"sigma": -0.1}})").find("sigma"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"noise": {"dropout": 2.0}})").find("dropout"),
            std::string::npos);
}

TEST(FaultPlanProperty, OverflowingNumbersAreRejectedAtTheParseBoundary) {
  // 1e999 overflows to infinity, which the deterministic writer cannot
  // represent — the JSON layer itself must reject it so the byte-exact
  // round-trip guarantee stays total over accepted documents.
  EXPECT_FALSE(util::json_parse("1e999").has_value());
  EXPECT_FALSE(util::json_parse("-1e999").has_value());
  EXPECT_FALSE(
      util::json_parse(R"({"crash": {"rate": 1e999}})").has_value());
  // Large-but-finite stays accepted.
  EXPECT_TRUE(util::json_parse("1e308").has_value());
}

// ---------------------------------------------------------------------------
// Campaign-validator finiteness.

TEST(FaultPlanProperty, ValidatorRejectsNonFiniteKnobs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  analysis::CampaignSpec spec;
  spec.min_separation = inf;
  EXPECT_NE(analysis::validate_campaign_spec(spec).find("finite"),
            std::string::npos);
  spec = {};
  spec.collision_tolerance = nan;
  EXPECT_NE(analysis::validate_campaign_spec(spec).find("finite"),
            std::string::npos);
  spec = {};
  spec.run.fault.crash.count = 1;
  spec.run.fault.crash.schedule = CrashScheduleKind::kTimes;
  spec.run.fault.crash.times = {1.0, inf};
  EXPECT_NE(analysis::validate_campaign_spec(spec).find("crash.times"),
            std::string::npos);
  spec = {};
  spec.run.fault.noise.sigma = nan;
  EXPECT_NE(analysis::validate_campaign_spec(spec).find("noise.sigma"),
            std::string::npos);
  EXPECT_TRUE(analysis::validate_campaign_spec(analysis::CampaignSpec{})
                  .empty());
}

}  // namespace
}  // namespace lumen::fault
