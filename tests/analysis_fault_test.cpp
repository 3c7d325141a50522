// Fault campaigns and degradation experiments: ScenarioSpec round-trip with
// an embedded fault plan, shard-merge invariance for fault-injected
// campaigns (outcomes and counters included), registry entries for E9-E11,
// and a tiny end-to-end E9 execution.
#include "analysis/campaign.hpp"
#include "analysis/experiments.hpp"
#include "analysis/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace lumen::analysis {
namespace {

fault::FaultPlan mixed_plan() {
  fault::FaultPlan plan;
  plan.crash.count = 2;
  plan.crash.rate = 0.05;
  plan.light.probability = 0.02;
  plan.noise.sigma = 1e-4;
  return plan;
}

// ---------------------------------------------------------------------------
// ScenarioSpec embedding.

TEST(FaultScenario, SpecWithFaultPlanRoundTripsByteIdentically) {
  ScenarioSpec spec;
  spec.ns = {12};
  spec.runs = 3;
  spec.run.fault = mixed_plan();
  const std::string text = scenario_to_json(spec);
  EXPECT_NE(text.find("\"fault\""), std::string::npos);
  const auto parsed = scenario_from_json(text);
  ASSERT_TRUE(parsed.spec.has_value()) << parsed.error;
  EXPECT_EQ(parsed.spec->run.fault, spec.run.fault);
  EXPECT_EQ(scenario_to_json(*parsed.spec), text);
}

TEST(FaultScenario, FaultFreeSpecOmitsTheFaultKey) {
  // The default plan is not serialized, keeping pre-fault spec documents
  // and their golden serializations unchanged.
  const std::string text = scenario_to_json(ScenarioSpec{});
  EXPECT_EQ(text.find("\"fault\""), std::string::npos);
}

TEST(FaultScenario, BadFaultPlanIsARunError) {
  const std::string text =
      R"({"run": {"fault": {"light": {"probability": 7.0}}}})";
  const auto parsed = scenario_from_json(text);
  EXPECT_FALSE(parsed.spec.has_value());
  EXPECT_NE(parsed.error.find("run.fault"), std::string::npos) << parsed.error;
}

// ---------------------------------------------------------------------------
// Sharded fault campaigns.

CampaignSpec small_fault_campaign() {
  CampaignSpec spec;
  spec.n = 12;
  spec.runs = 9;
  spec.seed_base = 21;
  spec.run.max_cycles_per_robot = 128;
  spec.run.fault = mixed_plan();
  spec.audit_collisions = true;
  return spec;
}

void expect_same_metrics(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.distance, b.distance);
  EXPECT_EQ(a.visibility_ok, b.visibility_ok);
  EXPECT_EQ(a.collision_free, b.collision_free);
  EXPECT_EQ(a.min_observed_separation, b.min_observed_separation);
  EXPECT_EQ(a.path_crossings, b.path_crossings);
  EXPECT_EQ(a.position_collisions, b.position_collisions);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.collision_channel, b.collision_channel);
}

TEST(FaultCampaign, ShardsMergeToTheUnshardedCampaign) {
  const CampaignSpec whole = small_fault_campaign();
  const CampaignResult unsharded = run_campaign(whole);
  ASSERT_EQ(unsharded.runs.size(), whole.runs);

  std::vector<RunMetrics> merged;
  constexpr std::size_t kShards = 3;
  for (std::size_t s = 0; s < kShards; ++s) {
    CampaignSpec shard = whole;
    shard.shard_index = s;
    shard.shard_count = kShards;
    const CampaignResult part = run_campaign(shard);
    merged.insert(merged.end(), part.runs.begin(), part.runs.end());
  }
  ASSERT_EQ(merged.size(), unsharded.runs.size());
  std::sort(merged.begin(), merged.end(),
            [](const RunMetrics& a, const RunMetrics& b) { return a.seed < b.seed; });
  for (std::size_t i = 0; i < merged.size(); ++i) {
    expect_same_metrics(merged[i], unsharded.runs[i]);
  }
}

TEST(FaultCampaign, AggregatesCountOutcomesAndFaults) {
  const CampaignResult r = run_campaign(small_fault_campaign());
  const std::size_t classified = r.outcome_count(sim::RunOutcome::kConverged) +
                                 r.outcome_count(sim::RunOutcome::kStalled) +
                                 r.outcome_count(sim::RunOutcome::kCollision) +
                                 r.outcome_count(sim::RunOutcome::kBudgetExhausted);
  EXPECT_EQ(classified, r.runs.size());
  // The rate-scheduled crash channel with a generous budget should have
  // fired at least once across 9 runs; view-channel counters accumulate on
  // every Look, so they are certainly nonzero.
  const fault::FaultCounters totals = r.fault_totals();
  EXPECT_GT(totals.corrupted_reads + totals.perturbed_observations, 0u);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(FaultExperiments, RegisteredAndFindable) {
  const auto& registry = ExperimentRegistry::instance();
  const struct {
    const char* name;
    const char* id;
  } entries[] = {{"crash-tolerance", "E9"},
                 {"light-corruption", "E10"},
                 {"sensor-noise", "E11"}};
  for (const auto& entry : entries) {
    const Experiment* by_name = registry.find(entry.name);
    const Experiment* by_id = registry.find(entry.id);
    ASSERT_NE(by_name, nullptr) << entry.name;
    EXPECT_EQ(by_name, by_id) << entry.name;
    EXPECT_FALSE(by_name->description.empty());
    EXPECT_TRUE(by_name->run != nullptr);
  }
}

TEST(FaultExperiments, TinyCrashToleranceRuns) {
  const Experiment* e = ExperimentRegistry::instance().find("E9");
  ASSERT_NE(e, nullptr);
  ScenarioSpec spec = e->defaults;
  spec.ns = {10};
  spec.runs = 2;
  spec.run.max_cycles_per_robot = 64;
  const ExperimentResult result = e->run(spec, ExperimentContext{});
  EXPECT_EQ(result.experiment, "crash-tolerance");
  ASSERT_FALSE(result.rows.empty());
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.size(), result.columns.size());
  }
  // f in {0, 1, 2, 4, 8} at N=10: the f >= n guard keeps all five rows.
  EXPECT_EQ(result.rows.size(), 5u);
  ASSERT_FALSE(result.checks.empty());
  EXPECT_EQ(result.checks.front().verdict, Verdict::kPass);
}

}  // namespace
}  // namespace lumen::analysis
