// ScenarioSpec serialization tests: the round-trip guarantee (serialize ->
// parse -> serialize is byte-identical), default handling for terse specs,
// and strict rejection of malformed documents.
#include "analysis/scenario.hpp"

#include <gtest/gtest.h>

#include <functional>

#include <string>

namespace lumen::analysis {
namespace {

ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.algorithm = "seq-baseline";
  spec.family = gen::ConfigFamily::kRingWithCore;
  spec.ns = {8, 16, 32};
  spec.baseline_ns = {8, 16};
  spec.runs = 4;
  spec.seed_base = 1000;
  spec.min_separation = 0.0025;
  spec.audit_collisions = false;
  spec.collision_tolerance = 0.125;
  spec.shard_index = 1;
  spec.shard_count = 3;
  spec.max_attempts = 3;
  spec.retry_backoff_ms = 25;
  spec.abort_on_collision = true;
  spec.run.scheduler = sim::SchedulerKind::kSsync;
  spec.run.adversary = sched::AdversaryKind::kBursty;
  spec.run.max_cycles_per_robot = 512;
  spec.run.refresh_frames_each_look = false;
  spec.run.rigid_moves = false;
  spec.run.nonrigid_min_progress = 0.25;
  return spec;
}

TEST(Scenario, DefaultSpecRoundTripsByteIdentically) {
  const std::string text = scenario_to_json(ScenarioSpec{});
  const auto parsed = scenario_from_json(text);
  ASSERT_TRUE(parsed.spec.has_value()) << parsed.error;
  EXPECT_EQ(scenario_to_json(*parsed.spec), text);
}

TEST(Scenario, FullyCustomizedSpecRoundTripsByteIdentically) {
  const std::string text = scenario_to_json(full_spec());
  const auto parsed = scenario_from_json(text);
  ASSERT_TRUE(parsed.spec.has_value()) << parsed.error;
  EXPECT_EQ(scenario_to_json(*parsed.spec), text);
}

TEST(Scenario, ParsePreservesEveryField) {
  const auto parsed = scenario_from_json(scenario_to_json(full_spec()));
  ASSERT_TRUE(parsed.spec.has_value()) << parsed.error;
  const ScenarioSpec& spec = *parsed.spec;
  EXPECT_EQ(spec.algorithm, "seq-baseline");
  EXPECT_EQ(spec.family, gen::ConfigFamily::kRingWithCore);
  EXPECT_EQ(spec.ns, (std::vector<std::size_t>{8, 16, 32}));
  EXPECT_EQ(spec.baseline_ns, (std::vector<std::size_t>{8, 16}));
  EXPECT_EQ(spec.runs, 4u);
  EXPECT_EQ(spec.seed_base, 1000u);
  EXPECT_DOUBLE_EQ(spec.min_separation, 0.0025);
  EXPECT_FALSE(spec.audit_collisions);
  EXPECT_DOUBLE_EQ(spec.collision_tolerance, 0.125);
  EXPECT_EQ(spec.shard_index, 1u);
  EXPECT_EQ(spec.shard_count, 3u);
  EXPECT_EQ(spec.max_attempts, 3u);
  EXPECT_EQ(spec.retry_backoff_ms, 25u);
  EXPECT_TRUE(spec.abort_on_collision);
  EXPECT_EQ(spec.run.scheduler, sim::SchedulerKind::kSsync);
  EXPECT_EQ(spec.run.adversary, sched::AdversaryKind::kBursty);
  EXPECT_EQ(spec.run.max_cycles_per_robot, 512u);
  EXPECT_FALSE(spec.run.refresh_frames_each_look);
  EXPECT_FALSE(spec.run.rigid_moves);
  EXPECT_DOUBLE_EQ(spec.run.nonrigid_min_progress, 0.25);
}

TEST(Scenario, MissingKeysKeepDefaults) {
  const auto parsed = scenario_from_json(
      R"({"type": "lumen-scenario", "version": 1, "runs": 7})");
  ASSERT_TRUE(parsed.spec.has_value()) << parsed.error;
  EXPECT_EQ(parsed.spec->runs, 7u);
  const ScenarioSpec defaults;
  EXPECT_EQ(parsed.spec->algorithm, defaults.algorithm);
  EXPECT_EQ(parsed.spec->family, defaults.family);
  EXPECT_EQ(parsed.spec->ns, defaults.ns);
  EXPECT_EQ(parsed.spec->seed_base, defaults.seed_base);
  EXPECT_EQ(parsed.spec->run.scheduler, defaults.run.scheduler);
}

TEST(Scenario, PluginAlgorithmNamesRoundTrip) {
  for (const char* name : {"grid-cv", "mutual-vis"}) {
    ScenarioSpec spec;
    spec.algorithm = name;
    if (std::string(name) == "grid-cv") {
      spec.family = gen::ConfigFamily::kLattice;
    }
    const std::string text = scenario_to_json(spec);
    const auto parsed = scenario_from_json(text);
    ASSERT_TRUE(parsed.spec.has_value()) << parsed.error;
    EXPECT_EQ(parsed.spec->algorithm, name);
    EXPECT_EQ(scenario_to_json(*parsed.spec), text);
  }
}

TEST(Scenario, UnknownAlgorithmIsRejectedAtParseTimeWithValidList) {
  const auto parsed = scenario_from_json(
      R"({"type": "lumen-scenario", "version": 1, "algorithm": "bogus"})");
  ASSERT_FALSE(parsed.spec.has_value());
  EXPECT_NE(parsed.error.find("unknown algorithm \"bogus\""),
            std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find("valid:"), std::string::npos) << parsed.error;
  for (const char* name :
       {"async-log", "seq-baseline", "ssync-parallel", "grid-cv",
        "mutual-vis"}) {
    EXPECT_NE(parsed.error.find(name), std::string::npos)
        << "error must list " << name << ": " << parsed.error;
  }
}

TEST(Scenario, RejectsMalformedDocuments) {
  struct Row {
    const char* text;
    /// For a domain error: the same change applied to the default campaign.
    /// validate_campaign_spec owns the range rules, so the parser must
    /// report exactly its message.
    std::function<void(CampaignSpec&)> domain;
  };
  const Row rows[] = {
      {"not json at all", {}},
      {R"({"type": "other-doc", "version": 1})", {}},
      {R"({"type": "lumen-scenario", "version": 99})", {}},
      {R"({"type": "lumen-scenario", "version": 1, "typo_key": 1})", {}},
      {R"({"type": "lumen-scenario", "version": 1, "family": "bogus"})", {}},
      {R"({"type": "lumen-scenario", "version": 1, "runs": 0})",
       [](CampaignSpec& s) { s.runs = 0; }},
      {R"({"type": "lumen-scenario", "version": 1, "ns": []})", {}},
      {R"({"type": "lumen-scenario", "version": 1, "ns": [8, -4]})", {}},
      {R"({"type": "lumen-scenario", "version": 1, "ns": [8.5]})", {}},
      {R"({"type": "lumen-scenario", "version": 1, "min_separation": 0})",
       [](CampaignSpec& s) { s.min_separation = 0.0; }},
      {R"({"type": "lumen-scenario", "version": 1, "shard_index": 2, "shard_count": 2})",
       [](CampaignSpec& s) {
         s.shard_index = 2;
         s.shard_count = 2;
       }},
      {R"({"type": "lumen-scenario", "version": 1, "max_attempts": 0})",
       [](CampaignSpec& s) { s.max_attempts = 0; }},
      {R"({"type": "lumen-scenario", "version": 1, "retry_backoff_ms": -5})", {}},
      {R"({"type": "lumen-scenario", "version": 1, "abort_on_collision": 1})", {}},
      {R"({"type": "lumen-scenario", "version": 1, "run": {"scheduler": "NOPE"}})", {}},
      {R"({"type": "lumen-scenario", "version": 1, "run": {"adversary": "nope"}})", {}},
      {R"({"type": "lumen-scenario", "version": 1, "run": {"max_cycles_per_robot": 0}})",
       [](CampaignSpec& s) { s.run.max_cycles_per_robot = 0; }},
      {R"({"type": "lumen-scenario", "version": 1, "run": {"nonrigid_min_progress": -1}})",
       [](CampaignSpec& s) { s.run.nonrigid_min_progress = -1.0; }},
      {R"([1, 2, 3])", {}},
  };
  for (const Row& row : rows) {
    const auto parsed = scenario_from_json(row.text);
    EXPECT_FALSE(parsed.spec.has_value()) << row.text;
    EXPECT_FALSE(parsed.error.empty()) << row.text;
    if (row.domain) {
      const ScenarioSpec defaults;
      CampaignSpec spec = defaults.campaign(defaults.ns.front());
      row.domain(spec);
      EXPECT_EQ(parsed.error, validate_campaign_spec(spec)) << row.text;
    }
  }
}

TEST(Scenario, CampaignProjectionCopiesEveryKnob) {
  const ScenarioSpec spec = full_spec();
  const CampaignSpec campaign = spec.campaign(64);
  EXPECT_EQ(campaign.n, 64u);
  EXPECT_EQ(campaign.algorithm, spec.algorithm);
  EXPECT_EQ(campaign.family, spec.family);
  EXPECT_EQ(campaign.runs, spec.runs);
  EXPECT_EQ(campaign.seed_base, spec.seed_base);
  EXPECT_DOUBLE_EQ(campaign.min_separation, spec.min_separation);
  EXPECT_EQ(campaign.audit_collisions, spec.audit_collisions);
  EXPECT_DOUBLE_EQ(campaign.collision_tolerance, spec.collision_tolerance);
  EXPECT_EQ(campaign.shard_index, spec.shard_index);
  EXPECT_EQ(campaign.shard_count, spec.shard_count);
  EXPECT_EQ(campaign.max_attempts, spec.max_attempts);
  EXPECT_EQ(campaign.retry_backoff_ms, spec.retry_backoff_ms);
  EXPECT_EQ(campaign.abort_on_collision, spec.abort_on_collision);
  EXPECT_EQ(campaign.run.scheduler, spec.run.scheduler);
  EXPECT_EQ(campaign.run.adversary, spec.run.adversary);
}

TEST(Scenario, BaselineSizesDefaultToNs) {
  ScenarioSpec spec;
  spec.ns = {8, 16};
  EXPECT_EQ(spec.baseline_sizes(), spec.ns);
  spec.baseline_ns = {4};
  EXPECT_EQ(spec.baseline_sizes(), (std::vector<std::size_t>{4}));
}

TEST(Scenario, SaveAndLoadRoundTripThroughFile) {
  const std::string path = testing::TempDir() + "/scenario_roundtrip.json";
  const ScenarioSpec spec = full_spec();
  ASSERT_TRUE(save_scenario(spec, path));
  const auto loaded = load_scenario(path);
  ASSERT_TRUE(loaded.spec.has_value()) << loaded.error;
  EXPECT_EQ(scenario_to_json(*loaded.spec), scenario_to_json(spec));
}

TEST(Scenario, LoadReportsMissingFile) {
  const auto loaded = load_scenario("/nonexistent/scenario.json");
  EXPECT_FALSE(loaded.spec.has_value());
  EXPECT_FALSE(loaded.error.empty());
}

}  // namespace
}  // namespace lumen::analysis
