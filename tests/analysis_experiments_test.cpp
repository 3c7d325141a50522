// ExperimentRegistry tests: registry contents and lookup, shape invariants
// for every registered experiment on a tiny spec, legacy-parity spot checks
// (the E1 and E4 bodies must compute exactly the metric values the former
// bench_time_vs_n / bench_collisions binaries printed), and the reporters.
#include "analysis/experiments.hpp"
#include "analysis/reporter.hpp"
#include "core/registry.hpp"
#include "gen/generators.hpp"
#include "sim/run.hpp"
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace lumen::analysis {
namespace {

// ---------------------------------------------------------------------------
// Registry contents.

TEST(Registry, ListsAllPaperExperiments) {
  const auto& experiments = ExperimentRegistry::instance().experiments();
  ASSERT_EQ(experiments.size(), 11u);
  const char* names[] = {"time-vs-n", "convergence", "colors",
                         "collisions", "doubling",   "summary",
                         "ablation",   "crash-tolerance",
                         "light-corruption", "sensor-noise",
                         "cross-algorithm"};
  const char* ids[] = {"E1", "E2", "E3", "E4", "E5",
                       "E6", "E8", "E9", "E10", "E11", "E12"};
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    EXPECT_EQ(experiments[i].name, names[i]);
    EXPECT_EQ(experiments[i].id, ids[i]);
    EXPECT_FALSE(experiments[i].description.empty());
    EXPECT_TRUE(experiments[i].run != nullptr);
  }
}

TEST(Registry, FindsByNameAndById) {
  const auto& registry = ExperimentRegistry::instance();
  const auto* by_name = registry.find("collisions");
  const auto* by_id = registry.find("E4");
  ASSERT_NE(by_name, nullptr);
  EXPECT_EQ(by_name, by_id);
  EXPECT_EQ(registry.find("bogus"), nullptr);
  EXPECT_EQ(registry.find("E7"), nullptr);  // bench_micro is not registered.
}

TEST(Registry, CrossAlgorithmExperimentCoversEveryPluginAndScheduler) {
  const auto* e = ExperimentRegistry::instance().find("cross-algorithm");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e, ExperimentRegistry::instance().find("E12"));

  ScenarioSpec spec = e->defaults;
  spec.ns = {8};
  spec.runs = 2;
  const ExperimentResult result = e->run(spec, ExperimentContext{});

  // One row per (registered algorithm, scheduler).
  EXPECT_EQ(result.rows.size(), 5u * 3u);
  ASSERT_GE(result.columns.size(), 4u);
  EXPECT_EQ(result.columns[0], "algorithm");
  for (const char* algorithm :
       {"async-log", "seq-baseline", "ssync-parallel", "grid-cv",
        "mutual-vis"}) {
    std::size_t rows = 0;
    for (const auto& row : result.rows) {
      if (row[0].text == algorithm) ++rows;
    }
    EXPECT_EQ(rows, 3u) << algorithm;
  }
}

TEST(Registry, DefaultSpecsRoundTripByteIdentically) {
  for (const auto& e : ExperimentRegistry::instance().experiments()) {
    const std::string text = scenario_to_json(e.defaults);
    const auto parsed = scenario_from_json(text);
    ASSERT_TRUE(parsed.spec.has_value()) << e.name << ": " << parsed.error;
    EXPECT_EQ(scenario_to_json(*parsed.spec), text) << e.name;
  }
}

// ---------------------------------------------------------------------------
// Shape invariants: every experiment, run on a seconds-scale spec, produces
// a well-formed result (rows as wide as the header, at least one check).

ScenarioSpec tiny(ScenarioSpec spec) {
  if (spec.ns.size() > 2) spec.ns.resize(2);
  for (auto& n : spec.ns) n = std::min<std::size_t>(n, 12);
  if (spec.baseline_ns.size() > 2) spec.baseline_ns.resize(2);
  for (auto& n : spec.baseline_ns) n = std::min<std::size_t>(n, 12);
  spec.runs = std::min<std::size_t>(spec.runs, 2);
  return spec;
}

TEST(Experiments, EveryExperimentProducesWellFormedResult) {
  for (const auto& e : ExperimentRegistry::instance().experiments()) {
    SCOPED_TRACE(e.name);
    const ExperimentResult result = e.run(tiny(e.defaults), ExperimentContext{});
    EXPECT_EQ(result.experiment, e.name);
    EXPECT_FALSE(result.title.empty());
    EXPECT_FALSE(result.columns.empty());
    EXPECT_FALSE(result.rows.empty());
    for (const auto& row : result.rows) {
      EXPECT_EQ(row.size(), result.columns.size());
    }
    EXPECT_FALSE(result.checks.empty());
  }
}

// ---------------------------------------------------------------------------
// Legacy parity: E1's table rows must carry exactly the campaign metrics the
// old bench_time_vs_n printed — same seeds, aggregation and formatting.

TEST(Experiments, TimeVsNMatchesDirectCampaignMetrics) {
  const auto* e = ExperimentRegistry::instance().find("E1");
  ASSERT_NE(e, nullptr);
  ScenarioSpec spec;
  spec.ns = {8, 16};
  spec.baseline_ns = {8};
  spec.runs = 3;
  spec.audit_collisions = false;
  const ExperimentResult result = e->run(spec, ExperimentContext{});

  // Rows: async-log at 8 and 16, then seq-baseline at 8.
  ASSERT_EQ(result.rows.size(), 3u);
  const struct {
    const char* algorithm;
    std::size_t n;
  } expected[] = {{"async-log", 8}, {"async-log", 16}, {"seq-baseline", 8}};
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    CampaignSpec campaign = spec.campaign(expected[i].n);
    campaign.algorithm = expected[i].algorithm;
    const auto direct = run_campaign(campaign);
    const auto epochs = direct.epochs();
    const auto& row = result.rows[i];
    ASSERT_EQ(row.size(), 8u);
    EXPECT_EQ(row[0].text, expected[i].algorithm);
    EXPECT_EQ(row[1].value, static_cast<double>(expected[i].n));
    EXPECT_EQ(row[2].value, static_cast<double>(direct.converged_count()));
    EXPECT_EQ(row[3].value, static_cast<double>(direct.runs.size()));
    EXPECT_EQ(row[4].value, epochs.mean);
    EXPECT_EQ(row[4].text, util::format_number(epochs.mean, 1));
    EXPECT_EQ(row[5].value, epochs.stddev);
    EXPECT_EQ(row[6].value, epochs.min);
    EXPECT_EQ(row[7].value, epochs.max);
  }
}

// A smoke-sized sweep has one doubling per series, too few to read either
// growth claim: both are undecided and the result still passes.
TEST(Experiments, TimeVsNSmokeSweepLeavesBothClaimsUndecided) {
  const auto* e = ExperimentRegistry::instance().find("E1");
  ASSERT_NE(e, nullptr);
  ScenarioSpec spec = e->defaults;
  spec.ns = {8, 16};
  spec.baseline_ns = {8, 16};
  spec.runs = 2;
  const ExperimentResult result = e->run(spec, ExperimentContext{});
  ASSERT_EQ(result.checks.size(), 2u);
  for (const auto& check : result.checks) {
    EXPECT_EQ(check.verdict, Verdict::kUndecided) << check.label;
  }
  EXPECT_TRUE(result.passed());
  EXPECT_NE(result.checks[0].label.find("async-log"), std::string::npos);
}

// E1 runs every requested seed at N >= 512 too; one cycle keeps it cheap.
TEST(Experiments, TimeVsNRunsEveryRequestedSeedAtLargeN) {
  const auto* e = ExperimentRegistry::instance().find("E1");
  ASSERT_NE(e, nullptr);
  ScenarioSpec spec;
  spec.ns = {512};
  spec.baseline_ns = {8};
  spec.runs = 4;
  spec.run.max_cycles_per_robot = 1;
  const ExperimentResult result = e->run(spec, ExperimentContext{});
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][1].value, 512.0);
  EXPECT_EQ(result.rows[0][3].value, 4.0);
}

// E4 parity: the first table row aggregates position collisions, closest
// approach, and phantom crossings over the same audited campaign the old
// bench_collisions ran.

TEST(Experiments, CollisionsMatchesDirectCampaignMetrics) {
  const auto* e = ExperimentRegistry::instance().find("E4");
  ASSERT_NE(e, nullptr);
  ScenarioSpec spec = e->defaults;
  spec.ns = {12};
  spec.runs = 2;
  const ExperimentResult result = e->run(spec, ExperimentContext{});
  ASSERT_GE(result.rows.size(), 1u);

  CampaignSpec campaign = spec.campaign(12);
  campaign.run.adversary = sched::AdversaryKind::kUniform;
  campaign.audit_collisions = true;
  const auto direct = run_campaign(campaign);
  std::size_t collisions = 0, crossings = 0;
  double min_sep = std::numeric_limits<double>::infinity();
  for (const auto& m : direct.runs) {
    collisions += m.position_collisions;
    crossings += m.path_crossings;
    min_sep = std::min(min_sep, m.min_observed_separation);
  }

  const auto& row = result.rows[0];
  ASSERT_EQ(row.size(), 7u);
  EXPECT_EQ(row[0].text, "async-log");
  EXPECT_EQ(row[1].text, "uniform");
  EXPECT_EQ(row[2].text, "uniform-disk");
  EXPECT_EQ(row[3].value, static_cast<double>(direct.runs.size()));
  EXPECT_EQ(row[4].value, static_cast<double>(collisions));
  EXPECT_EQ(row[5].text, util::format_number(min_sep, 4));
  EXPECT_EQ(row[6].value, static_cast<double>(crossings));
}

// E5 drives its runs itself, so it must honour --shard exactly as
// run_campaign does: the two halves are disjoint and together are the
// unsharded table.
TEST(Experiments, DoublingShardsPartitionTheUnshardedRows) {
  const auto* e = ExperimentRegistry::instance().find("E5");
  ASSERT_NE(e, nullptr);
  ScenarioSpec spec = e->defaults;
  spec.ns = {8};
  spec.runs = 4;
  const auto row_texts = [&](std::size_t index, std::size_t count) {
    ScenarioSpec shard = spec;
    shard.shard_index = index;
    shard.shard_count = count;
    std::multiset<std::string> texts;
    for (const auto& row : e->run(shard, ExperimentContext{}).rows) {
      std::string text;
      for (const MetricCell& c : row) text += c.text + "|";
      texts.insert(text);
    }
    return texts;
  };
  const auto whole = row_texts(0, 1);
  const auto first = row_texts(0, 2);
  const auto second = row_texts(1, 2);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  std::vector<std::string> shared;
  std::set_intersection(first.begin(), first.end(), second.begin(),
                        second.end(), std::back_inserter(shared));
  EXPECT_TRUE(shared.empty());
  std::multiset<std::string> both = first;
  both.insert(second.begin(), second.end());
  EXPECT_EQ(both, whole);
}

// E5 reads C6 only from runs whose corner count reaches both N/2 and N as
// thresholds; those are powers of two, so N = 24 measures no run and the
// check cannot pass on it.
TEST(Experiments, DoublingWithNoMeasuredRunIsUndecided) {
  const auto* e = ExperimentRegistry::instance().find("E5");
  ASSERT_NE(e, nullptr);
  ScenarioSpec spec = e->defaults;
  spec.ns = {24};
  spec.runs = 2;
  const ExperimentResult result = e->run(spec, ExperimentContext{});
  ASSERT_FALSE(result.rows.empty());
  ASSERT_EQ(result.checks.size(), 1u);
  EXPECT_EQ(result.checks[0].verdict, Verdict::kUndecided);
  EXPECT_TRUE(result.passed());
}

// E5 reports claim C6 in the paper's unit of ASYNC time: each trajectory
// entry `threshold@epoch` is a whole epoch count, and no threshold is
// reached later than the epoch the run converged in.
TEST(Experiments, DoublingReportsEpochs) {
  const auto* e = ExperimentRegistry::instance().find("E5");
  ASSERT_NE(e, nullptr);
  ScenarioSpec spec = e->defaults;
  spec.ns = {16};
  spec.runs = 2;
  const ExperimentResult result = e->run(spec, ExperimentContext{});
  ASSERT_EQ(result.rows.size(), 4u);  // Two families x two seeds.
  const auto algo = core::make_algorithm(spec.algorithm);
  for (const auto& row : result.rows) {
    ASSERT_EQ(row.size(), 5u);
    const auto family = gen::family_from_string(row[0].text);
    ASSERT_TRUE(family.has_value()) << row[0].text;
    const std::uint64_t seed = std::stoull(row[2].text);
    sim::RunConfig config = spec.run;
    config.seed = seed;
    config.record_moves = false;
    const sim::RunResult run = sim::run_simulation(
        *algo, gen::generate(*family, 16, seed, spec.min_separation), config);
    ASSERT_TRUE(run.converged) << row[0].text << " seed " << seed;

    std::istringstream entries(row[4].text);
    std::string entry;
    std::size_t count = 0;
    while (entries >> entry) {
      const std::size_t at = entry.find('@');
      ASSERT_NE(at, std::string::npos) << entry;
      const std::string epoch = entry.substr(at + 1);
      ASSERT_FALSE(epoch.empty()) << entry;
      EXPECT_TRUE(std::all_of(epoch.begin(), epoch.end(),
                              [](char c) { return c >= '0' && c <= '9'; }))
          << "not a whole epoch count: " << entry;
      EXPECT_LE(std::stoull(epoch), run.epochs) << entry;
      ++count;
    }
    EXPECT_GT(count, 0u) << row[4].text;
  }
}

// ---------------------------------------------------------------------------
// Reporters.

ExperimentResult sample_result() {
  ExperimentResult result;
  result.experiment = "sample";
  result.title = "Sample experiment";
  result.columns = {"name", "value"};
  result.row() = {cell("alpha"), cell(std::size_t{42})};
  result.row() = {cell("beta"), cell(2.5, 1)};
  result.notes.push_back("a note");
  result.checks.push_back({"always true", Verdict::kPass});
  result.checks.push_back({"too few sizes", Verdict::kUndecided});
  result.checks.push_back({"always false", Verdict::kFail});
  return result;
}

TEST(Reporter, PassedMeansNoCheckFailed) {
  ExperimentResult result = sample_result();
  EXPECT_FALSE(result.passed());
  result.checks.pop_back();
  EXPECT_TRUE(result.passed());  // An undecided check does not fail.
  result.checks.erase(result.checks.begin());
  EXPECT_TRUE(result.passed());
  result.checks.clear();
  EXPECT_TRUE(result.passed());  // Vacuously true.
}

TEST(Reporter, PrettyShowsTableNotesAndVerdicts) {
  std::ostringstream os;
  write_report(sample_result(), ReportFormat::kPretty, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Sample experiment"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("a note"), std::string::npos);
  EXPECT_NE(text.find("[PASS] always true"), std::string::npos);
  EXPECT_NE(text.find("[UNDECIDED] too few sizes"), std::string::npos);
  EXPECT_NE(text.find("[FAIL] always false"), std::string::npos);
}

TEST(Reporter, CsvEmitsHeaderAndDataRows) {
  std::ostringstream os;
  write_report(sample_result(), ReportFormat::kCsv, os);
  EXPECT_EQ(os.str(), "name,value\nalpha,42\nbeta,2.5\n");
}

TEST(Reporter, JsonKeepsNumbersAsNumbersAndTextAsStrings) {
  const util::JsonValue doc = result_to_json(sample_result());
  ASSERT_TRUE(doc.is_object());
  const auto* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items().size(), 2u);
  EXPECT_TRUE(rows->items()[0].items()[0].is_string());
  EXPECT_TRUE(rows->items()[0].items()[1].is_number());
  EXPECT_EQ(rows->items()[0].items()[1].as_double(), 42.0);
  const auto* checks = doc.find("checks");
  ASSERT_NE(checks, nullptr);
  ASSERT_EQ(checks->items().size(), 3u);
  const char* verdicts[] = {"pass", "undecided", "fail"};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto* verdict = checks->items()[i].find("verdict");
    ASSERT_NE(verdict, nullptr) << i;
    EXPECT_EQ(verdict->as_string(), verdicts[i]);
    EXPECT_EQ(checks->items()[i].find("passed"), nullptr) << i;
  }
  const auto* passed = doc.find("passed");
  ASSERT_NE(passed, nullptr);
  EXPECT_FALSE(passed->as_bool());
  // The JSON document round-trips through the parser.
  const auto reparsed = util::json_parse(util::json_write(doc), nullptr);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(util::json_write(*reparsed), util::json_write(doc));
  // The json format writes exactly this document, one line.
  std::ostringstream os;
  write_report(sample_result(), ReportFormat::kJson, os);
  EXPECT_EQ(os.str(), util::json_write(doc) + "\n");
}

TEST(Reporter, FormatListNamesEveryAcceptedFormat) {
  ASSERT_EQ(kReportFormatNames.size(), 3u);
  EXPECT_EQ(to_string(ReportFormat::kPretty), "pretty");
  EXPECT_EQ(to_string(ReportFormat::kCsv), "csv");
  EXPECT_EQ(to_string(ReportFormat::kJson), "json");
}

TEST(Reporter, UnknownFormatReturnsNull) {
  EXPECT_EQ(report_format_from_string("xml"), std::nullopt);
  EXPECT_EQ(report_format_from_string("pretty"), ReportFormat::kPretty);
  EXPECT_EQ(report_format_from_string("csv"), ReportFormat::kCsv);
  EXPECT_EQ(report_format_from_string("json"), ReportFormat::kJson);
}

}  // namespace
}  // namespace lumen::analysis
