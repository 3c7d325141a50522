// Harness-resilience tests (DESIGN.md §12): the checkpoint journal, the
// resume merge's byte-identity guarantee, the retry/error taxonomy, spec
// validation, and the cooperative stop. The central property pinned here:
// a campaign interrupted after ANY prefix of cells and resumed from its
// journal serializes byte-identically to the uninterrupted campaign, across
// pool sizes and shard counts.
#include "analysis/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

namespace lumen::analysis {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.algorithm = "async-log";
  spec.family = gen::ConfigFamily::kUniformDisk;
  spec.n = 12;
  spec.runs = 6;
  spec.seed_base = 100;
  return spec;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "lumen_resilience_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::trunc);
  f << content;
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line)) lines.push_back(line);
  return lines;
}

RunMetrics sample_metrics() {
  RunMetrics m;
  m.seed = 42;
  m.converged = true;
  m.epochs = 17;
  m.cycles = 1234;
  m.moves = 56;
  m.distance = 3.14159265358979;
  m.colors = 5;
  m.visibility_ok = true;
  m.collision_free = false;
  m.min_observed_separation = 1.25e-4;
  m.path_crossings = 2;
  m.position_collisions = 1;
  m.outcome = sim::RunOutcome::kCollision;
  m.faults.crashes = 3;
  m.faults.corrupted_reads = 7;
  m.faults.dropped_observations = 11;
  m.faults.perturbed_observations = 13;
  m.collision_channel = fault::FaultChannel::kLight;
  return m;
}

// ---------------------------------------------------------------------------
// Record round-trips.

TEST(Journal, RunMetricsJsonRoundTrip) {
  const RunMetrics m = sample_metrics();
  std::string error;
  const auto back = run_metrics_from_json(run_metrics_to_json(m), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, m);
}

TEST(Journal, CampaignErrorJsonRoundTrip) {
  const CampaignError e{CampaignErrorKind::kDeadline, 7, 3,
                        "run exceeded deadline_ms=50"};
  std::string error;
  const auto back = campaign_error_from_json(campaign_error_to_json(e), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, e);
}

TEST(Journal, RejectsMalformedRecords) {
  struct Row {
    const char* text;
    const char* field;  ///< The error must name it.
  };
  const Row metrics_rows[] = {
      {R"({"bogus": 1})", "bogus"},
      {R"({"converged": 1})", "converged"},
      {R"({"distance": "far"})", "distance"},
      {R"({"epochs": -1})", "epochs"},
      {R"({"seed": 1.5})", "seed"},
      {R"({"cache_rebuilds": -3})", "cache_rebuilds"},
      {R"({"outcome": "nope"})", "outcome"},
      {R"({"collision_channel": "nope"})", "collision_channel"},
      {R"({"faults": 3})", "faults"},
      {R"({"faults": {"crashes": -1}})", "crashes"},
      {R"({"faults": {"bogus": 1}})", "bogus"},
  };
  for (const Row& row : metrics_rows) {
    const auto json = util::json_parse(row.text);
    ASSERT_TRUE(json.has_value()) << row.text;
    std::string error;
    EXPECT_FALSE(run_metrics_from_json(*json, &error).has_value()) << row.text;
    EXPECT_NE(error.find(row.field), std::string::npos)
        << row.text << ": " << error;
  }
  const Row error_rows[] = {
      {R"({"extra": 1})", "extra"},
      {R"({"kind": "nope"})", "kind"},
      {R"({"seed": -1})", "seed"},
      {R"({"attempts": -2})", "attempts"},
      {R"({"detail": 5})", "detail"},
  };
  for (const Row& row : error_rows) {
    const auto json = util::json_parse(row.text);
    ASSERT_TRUE(json.has_value()) << row.text;
    std::string error;
    EXPECT_FALSE(campaign_error_from_json(*json, &error).has_value())
        << row.text;
    EXPECT_NE(error.find(row.field), std::string::npos)
        << row.text << ": " << error;
  }
  std::string error;
  EXPECT_FALSE(run_metrics_from_json(util::JsonValue::integer(1), &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(campaign_error_from_json(util::JsonValue::array(), &error));
  EXPECT_FALSE(error.empty());

  // null is the writer's form of +inf (an audited run with no robot pair).
  const auto json = util::json_parse(R"({"min_observed_separation": null})");
  ASSERT_TRUE(json.has_value());
  const auto m = run_metrics_from_json(*json, &error);
  ASSERT_TRUE(m.has_value()) << error;
  EXPECT_EQ(m->min_observed_separation,
            std::numeric_limits<double>::infinity());
}

TEST(Journal, ErrorKindStringsRoundTrip) {
  for (const auto k :
       {CampaignErrorKind::kSpecInvalid, CampaignErrorKind::kDeadline,
        CampaignErrorKind::kException, CampaignErrorKind::kJournalMismatch}) {
    EXPECT_EQ(campaign_error_kind_from_string(to_string(k)), k);
  }
  EXPECT_FALSE(campaign_error_kind_from_string("bogus").has_value());
}

// ---------------------------------------------------------------------------
// Campaign identity: the key covers the physics, not the scheduling.

TEST(Journal, CampaignKeyIgnoresSchedulingFieldsButNotPhysics) {
  const CampaignSpec base = small_spec();
  const std::string key = campaign_key(base);

  CampaignSpec sharded = base;
  sharded.shard_index = 1;
  sharded.shard_count = 4;
  sharded.runs = 100;
  sharded.seed_base = 999;
  sharded.max_attempts = 5;
  sharded.retry_backoff_ms = 10;
  sharded.run.seed = 77;
  sharded.run.record_moves = false;
  EXPECT_EQ(campaign_key(sharded), key)
      << "sharding / seed range / retry policy / recording must not change "
         "the key";

  CampaignSpec other_n = base;
  other_n.n = base.n + 1;
  EXPECT_NE(campaign_key(other_n), key);

  CampaignSpec other_algo = base;
  other_algo.algorithm = "seq-baseline";
  EXPECT_NE(campaign_key(other_algo), key);

  CampaignSpec other_run = base;
  other_run.run.rigid_moves = false;
  EXPECT_NE(campaign_key(other_run), key);
}

// ---------------------------------------------------------------------------
// Journaling + resume.

TEST(Journal, RecordsEveryCellDurably) {
  const std::string path = temp_path("records_every_cell.jsonl");
  std::remove(path.c_str());
  const CampaignSpec spec = small_spec();
  {
    CampaignJournal journal(path);
    ASSERT_TRUE(journal.ok());
    CampaignControl control;
    control.journal = &journal;
    const auto result = run_campaign(spec, nullptr, control);
    ASSERT_EQ(result.runs.size(), 6u);
  }
  const auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.snapshot.has_value()) << loaded.error;
  EXPECT_EQ(loaded.dropped_partial_lines, 0u);
  EXPECT_EQ(loaded.snapshot->cell_count(), 6u);
  const std::string key = campaign_key(spec);
  for (std::size_t i = 0; i < 6; ++i) {
    const JournalCell* cell = loaded.snapshot->find(key, spec.seed_base + i);
    ASSERT_NE(cell, nullptr) << "seed " << spec.seed_base + i;
    ASSERT_TRUE(cell->metrics.has_value());
    EXPECT_EQ(cell->metrics->seed, spec.seed_base + i);
  }
}

// The tentpole property: kill after k cells (simulated by truncating the
// journal to its first k cell records — exactly what a SIGKILL mid-campaign
// leaves, since every record is fsync'd before the next), resume, and the
// merged result must serialize BYTE-identically to the uninterrupted run.
TEST(Journal, ResumeAfterAnyPrefixIsByteIdentical) {
  const std::string path = temp_path("resume_prefix.jsonl");
  std::remove(path.c_str());
  const CampaignSpec spec = small_spec();
  const std::string uninterrupted =
      campaign_result_to_json(run_campaign(spec));
  {
    CampaignJournal journal(path);
    CampaignControl control;
    control.journal = &journal;
    (void)run_campaign(spec, nullptr, control);
  }
  const auto lines = file_lines(path);
  ASSERT_EQ(lines.size(), 8u);  // header + campaign declaration + 6 cells.

  for (const std::size_t k : {0u, 1u, 3u, 6u}) {
    SCOPED_TRACE("resume after " + std::to_string(k) + " journaled cells");
    const std::string partial = temp_path("resume_prefix_partial.jsonl");
    std::string content;
    for (std::size_t i = 0; i < 2 + k; ++i) content += lines[i] + "\n";
    write_file(partial, content);

    const auto loaded = load_journal(partial);
    ASSERT_TRUE(loaded.snapshot.has_value()) << loaded.error;
    ASSERT_EQ(loaded.snapshot->cell_count(), k);
    CampaignControl control;
    control.resume = &*loaded.snapshot;
    const auto resumed = run_campaign(spec, nullptr, control);
    EXPECT_EQ(resumed.cells_resumed, k);
    EXPECT_EQ(campaign_result_to_json(resumed), uninterrupted);
  }
}

TEST(Journal, ResumeIsByteIdenticalAcrossPoolSizes) {
  const std::string path = temp_path("resume_pools.jsonl");
  std::remove(path.c_str());
  const CampaignSpec spec = small_spec();
  util::ThreadPool serial{1};
  util::ThreadPool wide{8};
  const std::string uninterrupted =
      campaign_result_to_json(run_campaign(spec, &wide));
  {
    CampaignJournal journal(path);
    CampaignControl control;
    control.journal = &journal;
    (void)run_campaign(spec, &wide, control);
  }
  const auto lines = file_lines(path);
  ASSERT_EQ(lines.size(), 8u);
  const std::string partial = temp_path("resume_pools_partial.jsonl");
  write_file(partial,
             lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n" + lines[3] +
                 "\n");
  const auto loaded = load_journal(partial);
  ASSERT_TRUE(loaded.snapshot.has_value()) << loaded.error;
  CampaignControl control;
  control.resume = &*loaded.snapshot;
  const auto resumed = run_campaign(spec, &serial, control);
  EXPECT_EQ(resumed.cells_resumed, 2u);
  EXPECT_EQ(campaign_result_to_json(resumed), uninterrupted);
}

// Shards share the campaign key (sharding is scheduling, not physics), so
// any shard can resume from a journal written by the unsharded run — and
// the merged shard results still reassemble the whole.
TEST(Journal, ShardsResumeFromUnshardedJournal) {
  const std::string path = temp_path("resume_shards.jsonl");
  std::remove(path.c_str());
  CampaignSpec spec = small_spec();
  spec.runs = 7;  // Deliberately not divisible by the shard count.
  const auto whole = run_campaign(spec);
  {
    CampaignJournal journal(path);
    CampaignControl control;
    control.journal = &journal;
    (void)run_campaign(spec, nullptr, control);
  }
  const auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.snapshot.has_value()) << loaded.error;

  std::vector<RunMetrics> merged;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    CampaignSpec part = spec;
    part.shard_index = shard;
    part.shard_count = 3;
    CampaignControl control;
    control.resume = &*loaded.snapshot;
    const auto result = run_campaign(part, nullptr, control);
    // Every cell was journaled by the unsharded run, so nothing re-runs.
    EXPECT_EQ(result.cells_resumed, result.runs.size());
    merged.insert(merged.end(), result.runs.begin(), result.runs.end());
  }
  ASSERT_EQ(merged.size(), whole.runs.size());
  std::sort(merged.begin(), merged.end(),
            [](const RunMetrics& a, const RunMetrics& b) {
              return a.seed < b.seed;
            });
  for (std::size_t i = 0; i < merged.size(); ++i) {
    SCOPED_TRACE(merged[i].seed);
    EXPECT_EQ(merged[i], whole.runs[i]);
  }
}

// An audited swarm of one has no robot pair, so its min_observed_separation
// is +inf. JSON has no literal for it: the journal writes null and reads it
// back as +inf, so the cell reloads and resumes byte-identically.
TEST(Journal, AuditedSingleRobotCellResumesByteIdentically) {
  const std::string path = temp_path("single_robot.jsonl");
  std::remove(path.c_str());
  CampaignSpec spec = small_spec();
  spec.n = 1;
  spec.runs = 1;
  spec.audit_collisions = true;
  const CampaignResult uninterrupted = run_campaign(spec);
  ASSERT_EQ(uninterrupted.runs.size(), 1u);
  ASSERT_EQ(uninterrupted.runs.front().min_observed_separation,
            std::numeric_limits<double>::infinity());
  {
    CampaignJournal journal(path);
    ASSERT_TRUE(journal.ok());
    CampaignControl control;
    control.journal = &journal;
    (void)run_campaign(spec, nullptr, control);
  }
  const auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.snapshot.has_value()) << loaded.error;
  ASSERT_EQ(loaded.snapshot->cell_count(), 1u);
  CampaignControl control;
  control.resume = &*loaded.snapshot;
  const CampaignResult resumed = run_campaign(spec, nullptr, control);
  EXPECT_EQ(resumed.cells_resumed, 1u);
  EXPECT_EQ(resumed.runs, uninterrupted.runs);
  EXPECT_EQ(campaign_result_to_json(resumed),
            campaign_result_to_json(uninterrupted));
}

// ---------------------------------------------------------------------------
// Loader robustness.

TEST(Journal, TornFinalLineIsDropped) {
  const std::string path = temp_path("torn_final.jsonl");
  std::remove(path.c_str());
  const CampaignSpec spec = small_spec();
  {
    CampaignJournal journal(path);
    CampaignControl control;
    control.journal = &journal;
    (void)run_campaign(spec, nullptr, control);
  }
  // Simulate a kill mid-append: a prefix of a real record, no newline.
  std::ofstream(path, std::ios::app) << R"({"type":"cell","key":"dead)";
  const auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.snapshot.has_value()) << loaded.error;
  EXPECT_EQ(loaded.dropped_partial_lines, 1u);
  EXPECT_EQ(loaded.snapshot->cell_count(), 6u);
}

TEST(Journal, AppendingAfterATornFinalLineStartsAFreshLine) {
  const std::string path = temp_path("torn_then_appended.jsonl");
  std::remove(path.c_str());
  CampaignSpec spec = small_spec();
  for (const std::uint64_t seed_base : {100u, 200u}) {
    spec.seed_base = seed_base;
    CampaignJournal journal(path);
    ASSERT_TRUE(journal.ok());
    CampaignControl control;
    control.journal = &journal;
    (void)run_campaign(spec, nullptr, control);
    std::ofstream(path, std::ios::app) << R"({"type":"cell","key":"dead)";
  }
  const auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.snapshot.has_value()) << loaded.error;
  EXPECT_EQ(loaded.dropped_partial_lines, 1u);
  EXPECT_EQ(loaded.snapshot->cell_count(), 12u);
}

TEST(Journal, MalformedMiddleLineIsAnError) {
  const std::string path = temp_path("malformed_middle.jsonl");
  write_file(path,
             "{\"type\":\"lumen-journal\",\"version\":1}\n"
             "not json at all\n"
             "{\"type\":\"campaign\",\"key\":\"x\",\"signature\":{}}\n");
  const auto loaded = load_journal(path);
  EXPECT_FALSE(loaded.snapshot.has_value());
  EXPECT_NE(loaded.error.find(":2:"), std::string::npos) << loaded.error;
}

TEST(Journal, CellForUndeclaredCampaignIsAnError) {
  const std::string path = temp_path("undeclared.jsonl");
  write_file(path,
             "{\"type\":\"lumen-journal\",\"version\":1}\n"
             "{\"type\":\"cell\",\"key\":\"nope\",\"seed\":1,\"metrics\":{}}\n"
             "{\"type\":\"campaign\",\"key\":\"x\",\"signature\":{}}\n");
  const auto loaded = load_journal(path);
  EXPECT_FALSE(loaded.snapshot.has_value());
  EXPECT_NE(loaded.error.find("undeclared"), std::string::npos) << loaded.error;
}

TEST(Journal, NonJournalFileIsRejected) {
  const std::string path = temp_path("not_a_journal.jsonl");
  write_file(path, "{\"type\":\"lumen-scenario\",\"version\":1}\n");
  const auto loaded = load_journal(path);
  EXPECT_FALSE(loaded.snapshot.has_value());
}

TEST(Journal, EmptyFileIsAnEmptySnapshot) {
  const std::string path = temp_path("empty.jsonl");
  write_file(path, "");
  const auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.snapshot.has_value()) << loaded.error;
  EXPECT_EQ(loaded.snapshot->cell_count(), 0u);
}

// ---------------------------------------------------------------------------
// Multi-writer merging: overlapping shards, duplicate cells, key guards.
// These are the properties the fabric coordinator's journal merge rests on
// (DESIGN.md §17): duplicates are detected, counted and dropped first-write-
// wins, and a journal written for a DIFFERENT campaign is refused by name.

TEST(Journal, LoaderCountsAndDropsDuplicateCells) {
  const std::string path = temp_path("dup_cells.jsonl");
  std::remove(path.c_str());
  const CampaignSpec spec = small_spec();
  RunMetrics first = sample_metrics();
  first.seed = spec.seed_base;
  RunMetrics dup = first;
  dup.epochs = first.epochs + 99;  // A (hypothetical) conflicting rewrite.
  {
    CampaignJournal journal(path);
    ASSERT_TRUE(journal.ok());
    journal.append_cell(spec, first);
    journal.append_cell(spec, dup);
    journal.append_cell(spec, dup);
  }
  const auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.snapshot.has_value()) << loaded.error;
  EXPECT_EQ(loaded.duplicate_cells, 2u);
  EXPECT_EQ(loaded.snapshot->cell_count(), 1u);
  const JournalCell* cell =
      loaded.snapshot->find(campaign_key(spec), first.seed);
  ASSERT_NE(cell, nullptr);
  ASSERT_TRUE(cell->metrics.has_value());
  EXPECT_EQ(cell->metrics->epochs, first.epochs) << "first write must win";
}

// Two shard journals whose seed ranges OVERLAP (shard 0/2 and the unsharded
// whole) merge to exactly the whole campaign: the overlap is counted as
// duplicates, dropped first-write-wins, and the merged snapshot resumes
// byte-identically.
TEST(Journal, OverlappingShardJournalsMergeFirstWriteWins) {
  const CampaignSpec spec = small_spec();
  const std::string key = campaign_key(spec);
  const std::string uninterrupted =
      campaign_result_to_json(run_campaign(spec));

  const std::string whole_path = temp_path("overlap_whole.jsonl");
  const std::string shard_path = temp_path("overlap_shard.jsonl");
  std::remove(whole_path.c_str());
  std::remove(shard_path.c_str());
  {
    CampaignJournal journal(whole_path);
    CampaignControl control;
    control.journal = &journal;
    (void)run_campaign(spec, nullptr, control);
  }
  {
    CampaignSpec half = spec;
    half.shard_index = 0;
    half.shard_count = 2;
    CampaignJournal journal(shard_path);
    CampaignControl control;
    control.journal = &journal;
    (void)run_campaign(half, nullptr, control);
  }
  auto whole = load_journal(whole_path);
  auto shard = load_journal(shard_path);
  ASSERT_TRUE(whole.snapshot.has_value()) << whole.error;
  ASSERT_TRUE(shard.snapshot.has_value()) << shard.error;
  ASSERT_EQ(whole.snapshot->cell_count(), 6u);
  ASSERT_EQ(shard.snapshot->cell_count(), 3u);

  JournalSnapshot merged = *shard.snapshot;
  std::string merge_error;
  const std::size_t dropped =
      merge_snapshots(merged, *whole.snapshot, &merge_error);
  EXPECT_EQ(merge_error, "");
  EXPECT_EQ(dropped, 3u) << "the shard's 3 cells overlap the whole run";
  EXPECT_EQ(merged.cell_count(), 6u);

  CampaignControl control;
  control.resume = &merged;
  const auto resumed = run_campaign(spec, nullptr, control);
  EXPECT_EQ(resumed.cells_resumed, 6u);
  EXPECT_EQ(campaign_result_to_json(resumed), uninterrupted);
}

TEST(Journal, MergeRejectsConflictingSignaturesForOneKey) {
  JournalSnapshot a;
  a.signatures["k"] = R"({"n":12})";
  a.cells["k"][1] = JournalCell{sample_metrics(), std::nullopt};
  JournalSnapshot b;
  b.signatures["k"] = R"({"n":13})";
  b.cells["k"][2] = JournalCell{sample_metrics(), std::nullopt};
  std::string error;
  (void)merge_snapshots(a, b, &error);
  EXPECT_NE(error.find("signature"), std::string::npos) << error;
  EXPECT_EQ(a.cells["k"].count(2), 0u)
      << "cells under a conflicting signature must not merge";
}

TEST(Journal, KeyMismatchGuardNamesTheField) {
  const CampaignSpec spec = small_spec();
  JournalSnapshot empty;
  EXPECT_EQ(journal_key_mismatch(empty, spec), "");

  JournalSnapshot matching;
  matching.signatures[campaign_key(spec)] = "{}";
  EXPECT_EQ(journal_key_mismatch(matching, spec), "");

  JournalSnapshot foreign;
  foreign.signatures["deadbeefdeadbeef"] = "{}";
  const std::string message = journal_key_mismatch(foreign, spec);
  EXPECT_NE(message.find("journal.key"), std::string::npos) << message;
  EXPECT_NE(message.find(campaign_key(spec)), std::string::npos) << message;
  EXPECT_NE(message.find("deadbeefdeadbeef"), std::string::npos) << message;
}

// ---------------------------------------------------------------------------
// Retry backoff: deterministic, jittered, capped.

TEST(Resilience, RetryBackoffIsDeterministicJitteredAndCapped) {
  EXPECT_EQ(retry_backoff_delay_ms(0, 1, 42), 0u) << "base 0 = immediate";
  // Pure function of (base, attempts, seed).
  EXPECT_EQ(retry_backoff_delay_ms(100, 2, 7), retry_backoff_delay_ms(100, 2, 7));
  // Jitter lands in [delay/2, delay] where delay doubles per failed attempt.
  for (std::size_t attempts = 1; attempts <= 12; ++attempts) {
    std::uint64_t delay = 100;
    for (std::size_t i = 1; i < attempts && delay < 5000; ++i) delay *= 2;
    delay = std::min<std::uint64_t>(delay, 5000);
    for (const std::uint64_t seed : {1u, 2u, 99u}) {
      const std::uint64_t d = retry_backoff_delay_ms(100, attempts, seed);
      EXPECT_GE(d, delay / 2) << attempts << "/" << seed;
      EXPECT_LE(d, delay) << attempts << "/" << seed;
    }
  }
  // Different seeds decorrelate (not all equal for the same attempt count).
  bool varied = false;
  const std::uint64_t first = retry_backoff_delay_ms(1000, 3, 0);
  for (std::uint64_t seed = 1; seed < 32 && !varied; ++seed) {
    varied = retry_backoff_delay_ms(1000, 3, seed) != first;
  }
  EXPECT_TRUE(varied) << "jitter must actually depend on the seed";
}

// ---------------------------------------------------------------------------
// Spec validation -> structured errors, never throws.

TEST(Resilience, InvalidSpecsAreRecordedNotThrown) {
  const struct {
    const char* field;
    void (*mutate)(CampaignSpec&);
  } cases[] = {
      {"algorithm", [](CampaignSpec& s) { s.algorithm = "bogus"; }},
      {"n", [](CampaignSpec& s) { s.n = 0; }},
      {"runs", [](CampaignSpec& s) { s.runs = 0; }},
      {"min_separation", [](CampaignSpec& s) { s.min_separation = 0.0; }},
      {"collision_tolerance",
       [](CampaignSpec& s) { s.collision_tolerance = -1.0; }},
      {"shard_index", [](CampaignSpec& s) { s.shard_index = 9; }},
      {"max_attempts", [](CampaignSpec& s) { s.max_attempts = 0; }},
      {"run.fault.crash.rate",
       [](CampaignSpec& s) { s.run.fault.crash.rate = 1.5; }},
      {"run.fault.light.probability",
       [](CampaignSpec& s) { s.run.fault.light.probability = -0.1; }},
      {"run.fault.noise.sigma",
       [](CampaignSpec& s) { s.run.fault.noise.sigma = -1.0; }},
      {"run.fault.noise.dropout",
       [](CampaignSpec& s) { s.run.fault.noise.dropout = 2.0; }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    CampaignSpec spec = small_spec();
    c.mutate(spec);
    const auto result = run_campaign(spec);
    EXPECT_TRUE(result.runs.empty());
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].kind, CampaignErrorKind::kSpecInvalid);
    // The message must name the offending field.
    EXPECT_NE(result.errors[0].detail.find(c.field), std::string::npos)
        << result.errors[0].detail;
  }
}

TEST(Resilience, ValidSpecPassesValidation) {
  EXPECT_EQ(validate_campaign_spec(small_spec()), "");
}

TEST(Resilience, UnknownAlgorithmMessageListsRegisteredNames) {
  CampaignSpec spec = small_spec();
  spec.algorithm = "bogus";
  const std::string error = validate_campaign_spec(spec);
  EXPECT_NE(error.find("unknown algorithm \"bogus\""), std::string::npos)
      << error;
  EXPECT_NE(error.find("valid:"), std::string::npos) << error;
  for (const char* name :
       {"async-log", "seq-baseline", "ssync-parallel", "grid-cv",
        "mutual-vis"}) {
    EXPECT_NE(error.find(name), std::string::npos)
        << "message must list " << name << ": " << error;
  }
}

// ---------------------------------------------------------------------------
// Cooperative stop.

TEST(Resilience, StopFlagSkipsUntouchedCells) {
  std::atomic<bool> stop{true};
  CampaignControl control;
  control.stop = &stop;
  const auto result = run_campaign(small_spec(), nullptr, control);
  EXPECT_TRUE(result.runs.empty());
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(result.cells_skipped, 6u);
  EXPECT_FALSE(result.complete());
}

// The per-cell progress hook fires exactly once per EXECUTED cell (after
// its journal record) and never for resumed cells — the contract the fabric
// worker's event stream is built on.
TEST(Resilience, OnCellFiresOncePerExecutedCellNotForResumed) {
  const std::string path = temp_path("on_cell.jsonl");
  std::remove(path.c_str());
  const CampaignSpec spec = small_spec();
  std::mutex mutex;
  std::vector<std::uint64_t> seen;
  {
    CampaignJournal journal(path);
    CampaignControl control;
    control.journal = &journal;
    control.on_cell = [&](std::uint64_t seed) {
      std::lock_guard lock(mutex);
      seen.push_back(seed);
    };
    (void)run_campaign(spec, nullptr, control);
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 6u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], spec.seed_base + i);
  }

  const auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.snapshot.has_value()) << loaded.error;
  seen.clear();
  CampaignControl control;
  control.resume = &*loaded.snapshot;
  control.on_cell = [&](std::uint64_t seed) {
    std::lock_guard lock(mutex);
    seen.push_back(seed);
  };
  const auto resumed = run_campaign(spec, nullptr, control);
  EXPECT_EQ(resumed.cells_resumed, 6u);
  EXPECT_TRUE(seen.empty()) << "resumed cells must not announce";
}

// ---------------------------------------------------------------------------
// Retry + error taxonomy.

// A deliberately impossible generator request (8 robots 150 apart in a
// 100-radius disk) throws deterministically in every attempt, so the cell
// must be retried max_attempts times and then recorded as kException —
// without aborting the other cells.
TEST(Resilience, ThrowingCellIsRetriedThenRecorded) {
  CampaignSpec spec = small_spec();
  spec.runs = 2;
  spec.min_separation = 150.0;
  spec.max_attempts = 3;
  const auto result = run_campaign(spec);
  EXPECT_TRUE(result.runs.empty());
  ASSERT_EQ(result.errors.size(), 2u);
  for (const auto& e : result.errors) {
    EXPECT_EQ(e.kind, CampaignErrorKind::kException);
    EXPECT_EQ(e.attempts, 3u);
    EXPECT_NE(e.detail.find("cannot fit"), std::string::npos) << e.detail;
  }
  EXPECT_EQ(result.errors[0].seed, spec.seed_base);
  EXPECT_EQ(result.errors[1].seed, spec.seed_base + 1);
}

// With a 1 ms watchdog a 64-robot run cannot finish (it needs thousands of
// Look/Compute cycles), so the deadline fires at a cycle boundary, the cell
// is retried, and the failure lands in the kDeadline bucket.
TEST(Resilience, DeadlineExceededCellIsRetriedThenRecorded) {
  CampaignSpec spec = small_spec();
  spec.n = 64;
  spec.runs = 1;
  spec.audit_collisions = false;
  spec.run.deadline_ms = 1;
  spec.max_attempts = 2;
  const auto result = run_campaign(spec);
  EXPECT_TRUE(result.runs.empty());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].kind, CampaignErrorKind::kDeadline);
  EXPECT_EQ(result.errors[0].attempts, 2u);
}

// Failed cells are journaled too: resuming must not re-run a cell that
// already failed after its retries (a hung cell must not wedge every
// resume attempt of a long campaign).
TEST(Resilience, FailedCellsAreJournaledAndResumed) {
  const std::string path = temp_path("failed_cells.jsonl");
  std::remove(path.c_str());
  CampaignSpec spec = small_spec();
  spec.runs = 2;
  spec.min_separation = 150.0;  // Every cell throws deterministically.
  {
    CampaignJournal journal(path);
    CampaignControl control;
    control.journal = &journal;
    const auto result = run_campaign(spec, nullptr, control);
    ASSERT_EQ(result.errors.size(), 2u);
  }
  const auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.snapshot.has_value()) << loaded.error;
  ASSERT_EQ(loaded.snapshot->cell_count(), 2u);
  CampaignControl control;
  control.resume = &*loaded.snapshot;
  const auto resumed = run_campaign(spec, nullptr, control);
  EXPECT_EQ(resumed.cells_resumed, 2u);
  ASSERT_EQ(resumed.errors.size(), 2u);
  EXPECT_EQ(resumed.errors[0].kind, CampaignErrorKind::kException);
}

}  // namespace
}  // namespace lumen::analysis
