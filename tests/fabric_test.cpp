// Fabric unit tests (DESIGN.md §17): lease documents (round trip, checksum,
// validation), the worker event protocol, POSIX child-process plumbing, and
// the coordinator's local-fallback behavior. The end-to-end chaos property
// (random SIGKILLs, byte-identical merged report) lives in
// fabric_chaos_test.cpp because it needs the real lumen-bench binary.
#include "fabric/coordinator.hpp"
#include "fabric/lease.hpp"
#include "fabric/process.hpp"
#include "fabric/protocol.hpp"

#include "analysis/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace lumen::fabric {
namespace {

Lease sample_lease() {
  Lease lease;
  lease.scenario.algorithm = "async-log";
  lease.scenario.ns = {12};
  lease.scenario.runs = 8;
  lease.scenario.seed_base = 100;
  lease.scenario.shard_index = 1;
  lease.scenario.shard_count = 4;
  lease.campaign_key = analysis::campaign_key(lease_campaign(lease));
  lease.token = 7;
  lease.journal_path = "/tmp/shard-0-t7.jsonl";
  lease.resume_paths = {"/tmp/canonical.jsonl", "/tmp/shard-0-t3.jsonl"};
  lease.heartbeat_ms = 125;
  return lease;
}

// ---------------------------------------------------------------------------
// Lease documents.

TEST(Lease, JsonRoundTripIsByteIdentical) {
  const Lease lease = sample_lease();
  const std::string text = lease_to_json(lease);
  const LeaseParse back = lease_from_json(text);
  ASSERT_TRUE(back.lease.has_value()) << back.error;
  EXPECT_EQ(lease_to_json(*back.lease), text);
  EXPECT_EQ(back.lease->token, 7u);
  EXPECT_EQ(back.lease->journal_path, lease.journal_path);
  EXPECT_EQ(back.lease->resume_paths, lease.resume_paths);
  EXPECT_EQ(back.lease->heartbeat_ms, 125u);
  EXPECT_EQ(back.lease->scenario.shard_index, 1u);
  EXPECT_EQ(back.lease->scenario.shard_count, 4u);
}

TEST(Lease, FileRoundTrip) {
  const std::string path = testing::TempDir() + "lumen_fabric_lease.json";
  std::remove(path.c_str());
  const Lease lease = sample_lease();
  ASSERT_TRUE(save_lease(lease, path));
  const LeaseParse back = load_lease(path);
  ASSERT_TRUE(back.lease.has_value()) << back.error;
  EXPECT_EQ(lease_to_json(*back.lease), lease_to_json(lease));
}

// The campaign key doubles as a checksum: a lease whose embedded scenario
// does not hash to its declared key (stale file, manual edit) must not run
// the wrong cells under the right journal name.
TEST(Lease, KeyChecksumMismatchIsRejected) {
  Lease lease = sample_lease();
  lease.campaign_key = "0000000000000000";
  const LeaseParse back = lease_from_json(lease_to_json(lease));
  EXPECT_FALSE(back.lease.has_value());
  EXPECT_NE(back.error.find("campaign_key"), std::string::npos) << back.error;
}

TEST(Lease, RejectsMalformedDocuments) {
  EXPECT_FALSE(lease_from_json("not json").lease.has_value());
  EXPECT_FALSE(lease_from_json("[1,2]").lease.has_value());
  // Unknown keys are errors, same as every other spec document.
  Lease lease = sample_lease();
  std::string text = lease_to_json(lease);
  text.insert(text.find("\"token\""), "\"bogus\":1,");
  const LeaseParse unknown = lease_from_json(text);
  EXPECT_FALSE(unknown.lease.has_value());
  EXPECT_NE(unknown.error.find("bogus"), std::string::npos) << unknown.error;
  // A lease must carry exactly one sweep size: its shard IS one campaign.
  Lease two_ns = sample_lease();
  two_ns.scenario.ns = {12, 16};
  EXPECT_FALSE(lease_from_json(lease_to_json(two_ns)).lease.has_value());
  // And a journal to append to.
  Lease no_journal = sample_lease();
  no_journal.journal_path.clear();
  EXPECT_FALSE(lease_from_json(lease_to_json(no_journal)).lease.has_value());
}

// ---------------------------------------------------------------------------
// Worker event protocol.

TEST(Protocol, EventRoundTrips) {
  const WorkerEvent events[] = {
      {WorkerEventKind::kHello, 3, 0, 0, 0, 4242},
      {WorkerEventKind::kHeartbeat, 3, 0, 17, 0, 0},
      {WorkerEventKind::kCell, 3, 105, 18, 0, 0},
      {WorkerEventKind::kDone, 3, 0, 20, 2, 0},
  };
  for (const WorkerEvent& event : events) {
    SCOPED_TRACE(std::string(to_string(event.kind)));
    std::string error;
    const auto back = worker_event_from_line(worker_event_to_line(event), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->kind, event.kind);
    EXPECT_EQ(back->token, event.token);
    EXPECT_EQ(back->seed, event.seed);
    EXPECT_EQ(back->cells, event.cells);
    EXPECT_EQ(back->errors, event.errors);
    EXPECT_EQ(back->pid, event.pid);
  }
}

TEST(Protocol, RejectsMalformedLines) {
  EXPECT_FALSE(worker_event_from_line("").has_value());
  EXPECT_FALSE(worker_event_from_line("not json").has_value());
  EXPECT_FALSE(worker_event_from_line(R"({"type":"other"})").has_value());
  EXPECT_FALSE(worker_event_from_line(
                   R"({"type":"lumen-worker","event":"nope","token":1})")
                   .has_value());
  // A cell event without its seed is useless to the coordinator.
  EXPECT_FALSE(
      worker_event_from_line(
          R"({"type":"lumen-worker","event":"cell","token":1,"cells":2})")
          .has_value());
  // Tokens are fencing state; an event without one cannot be attributed.
  EXPECT_FALSE(worker_event_from_line(
                   R"({"type":"lumen-worker","event":"heartbeat","cells":0})")
                   .has_value());
}

// ---------------------------------------------------------------------------
// Child processes.

TEST(Process, SpawnReadReap) {
  std::string error;
  auto child = ChildProcess::spawn({"/bin/sh", "-c", "echo one; echo two"},
                                   &error);
  ASSERT_TRUE(child.has_value()) << error;
  std::vector<std::string> lines;
  bool closed = false;
  while (!closed) {
    for (auto& line : child->read_lines(&closed)) {
      lines.push_back(std::move(line));
    }
  }
  child->reap_with_timeout(5000);
  ASSERT_TRUE(child->exit_status().has_value());
  EXPECT_FALSE(child->exit_status()->signaled);
  EXPECT_EQ(child->exit_status()->code, 0);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "two");
}

TEST(Process, ExecFailureReportsConventional127) {
  std::string error;
  auto child = ChildProcess::spawn({"/nonexistent/definitely-not-a-binary"},
                                   &error);
  ASSERT_TRUE(child.has_value()) << error;  // fork succeeds; exec fails.
  child->reap_with_timeout(5000);
  ASSERT_TRUE(child->exit_status().has_value());
  EXPECT_FALSE(child->exit_status()->signaled);
  EXPECT_EQ(child->exit_status()->code, 127);
}

TEST(Process, KillIsReportedAsSignaled) {
  std::string error;
  auto child = ChildProcess::spawn({"/bin/sh", "-c", "sleep 30"}, &error);
  ASSERT_TRUE(child.has_value()) << error;
  child->kill(SIGKILL);
  child->reap_with_timeout(5000);
  ASSERT_TRUE(child->exit_status().has_value());
  EXPECT_TRUE(child->exit_status()->signaled);
  EXPECT_EQ(child->exit_status()->code, SIGKILL);
}

// ---------------------------------------------------------------------------
// Coordinator fallbacks: with no worker fleet configured the fabric must
// degrade to a plain in-process run — same bytes, honest stats.

TEST(Coordinator, NoWorkersFallsBackToLocalRun) {
  analysis::CampaignSpec spec;
  spec.n = 12;
  spec.runs = 4;
  spec.seed_base = 50;
  const std::string direct =
      analysis::campaign_result_to_json(analysis::run_campaign(spec));

  FabricConfig config;
  config.workers = 0;
  const FabricResult result = run_fabric_campaign(spec, config);
  EXPECT_FALSE(result.stopped);
  EXPECT_EQ(analysis::campaign_result_to_json(result.result), direct);
  EXPECT_EQ(result.stats.leases_granted, 0u);
}

// An unspawnable worker binary burns the lease budget and then every cell
// falls back to local recomputation — the report is still byte-identical.
TEST(Coordinator, UnspawnableWorkersDegradeToLocalRecompute) {
  analysis::CampaignSpec spec;
  spec.n = 12;
  spec.runs = 4;
  spec.seed_base = 50;
  const std::string direct =
      analysis::campaign_result_to_json(analysis::run_campaign(spec));

  FabricConfig config;
  config.workers = 2;
  config.worker_argv = {"/nonexistent/definitely-not-a-binary", "work"};
  config.lease_ttl_ms = 1000;
  config.dir = testing::TempDir() + "lumen_fabric_unspawnable";
  const FabricResult result = run_fabric_campaign(spec, config);
  EXPECT_FALSE(result.stopped);
  EXPECT_EQ(analysis::campaign_result_to_json(result.result), direct);
  EXPECT_EQ(result.stats.shards_failed, result.stats.shards);
  EXPECT_EQ(result.stats.cells_recomputed_locally, 4u);
}

// A worker that never speaks (frozen, not dead) is caught by the lease TTL
// alone: every grant expires, is SIGKILLed and re-granted until the shard's
// budget runs out, and then its cells are recomputed locally. `exec` makes
// the sleeper the worker process itself, so the SIGKILL leaves nothing
// behind.
TEST(Coordinator, SilentWorkerLeaseExpiresAndFallsBackLocally) {
  analysis::CampaignSpec spec;
  spec.n = 12;
  spec.runs = 4;
  spec.seed_base = 50;
  const std::string direct =
      analysis::campaign_result_to_json(analysis::run_campaign(spec));

  FabricConfig config;
  config.workers = 2;
  config.worker_argv = {"/bin/sh", "-c", "exec sleep 30", "sh"};
  config.lease_ttl_ms = 200;
  config.dir = testing::TempDir() + "lumen_fabric_silent";
  const FabricResult result = run_fabric_campaign(spec, config);
  EXPECT_FALSE(result.stopped);
  EXPECT_GE(result.stats.leases_expired, result.stats.shards);
  EXPECT_EQ(result.stats.shards_failed, result.stats.shards);
  EXPECT_EQ(result.stats.cells_recomputed_locally, 4u);
  EXPECT_EQ(analysis::campaign_result_to_json(result.result), direct);
}

}  // namespace
}  // namespace lumen::fabric
