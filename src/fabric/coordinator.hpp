// lumen_fabric: the lease-based campaign coordinator (DESIGN.md §17).
//
// run_fabric_campaign decomposes one campaign's cell grid into seed-range
// shards (composed on top of any sharding the spec already carries, so the
// union of shard cell sets IS the spec's cell set), grants each shard as a
// fenced lease to a `lumen-bench work` subprocess, and supervises the fleet:
//
//   - liveness by heartbeat: a worker silent past lease_ttl_ms is presumed
//     dead/frozen; its lease is reclaimed (SIGKILL + re-grant under a fresh
//     fencing token and a fresh journal file);
//   - crash tolerance: a worker that exits nonzero or dies by signal is
//     re-granted (up to four grants per shard) with deterministic jittered
//     backoff; its journaled cells are never redone (the new lease resumes
//     from every prior grant's journal);
//   - fencing: every event and journal is tied to one token; anything from
//     a reclaimed grant is counted and dropped, and duplicate cell records
//     merge first-write-wins, so stale workers are harmless by construction.
//
// The final report is produced by the ordinary in-process run_campaign with
// the merged shard journals as its resume snapshot: cells the fleet failed
// to deliver (crashed past retry budget, stopped early) are recomputed
// locally, so the fabric's answer is BYTE-IDENTICAL to the single-process
// answer no matter which workers died — graceful degradation is the
// correctness proof, not an error path. Newly-delivered cells are copied
// into the caller's canonical journal, so a coordinator killed mid-campaign
// resumes exactly like an interrupted single-process run.
#pragma once

#include "analysis/campaign.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace lumen::fabric {

struct FabricConfig {
  /// Worker processes to keep running concurrently (>= 1). The grid splits
  /// into workers x 2 sub-shards, so a crash loses a smaller lease.
  std::size_t workers = 2;
  /// A worker silent (no event of any kind) this long is presumed dead and
  /// its lease reclaimed. 0 disables expiry. Keep this several heartbeats
  /// (100 ms each) wide — expiry of a merely-slow worker is safe (fencing)
  /// but wasteful.
  std::uint64_t lease_ttl_ms = 5000;
  /// Worker command prefix, e.g. {"/path/to/lumen-bench", "work"}; the
  /// coordinator appends the lease file path.
  std::vector<std::string> worker_argv;
  /// Directory for lease documents and shard journals (created if absent).
  std::string dir = ".lumen-fabric";
  /// Extra resume journals handed to every lease (the canonical journal of
  /// an interrupted earlier run): cells found there are never re-executed.
  std::vector<std::string> resume_paths;
  /// Fault injection for the chaos harness: after each finished cell the
  /// owning worker is SIGKILLed with this probability, drawn from a
  /// deterministic splitmix64 stream over chaos_seed.
  double chaos_kill_rate = 0.0;
  std::uint64_t chaos_seed = 0;
  /// Progress/diagnostic lines (lease grants, expiries, crashes); null = silent.
  std::function<void(std::string_view)> log;
};

/// What the fleet went through; reported, never part of the result bytes.
struct FabricStats {
  std::size_t shards = 0;             ///< Seed-range shards the grid split into.
  std::size_t leases_granted = 0;     ///< Grants incl. re-grants.
  std::size_t workers_crashed = 0;    ///< Signal deaths + nonzero retriable exits.
  std::size_t leases_expired = 0;     ///< TTL reclaims of silent workers.
  std::size_t chaos_kills = 0;        ///< SIGKILLs injected by the chaos knob.
  std::size_t stale_events_fenced = 0;   ///< Events carrying a superseded token.
  std::size_t duplicate_cells_dropped = 0;  ///< First-write-wins merge drops.
  std::size_t shards_failed = 0;      ///< Shards past the lease-attempt budget.
  std::size_t cells_recomputed_locally = 0;  ///< Fallback cells run in-process.
};

struct FabricResult {
  analysis::CampaignResult result;
  FabricStats stats;
  bool stopped = false;  ///< Drained early on the caller's stop flag.
};

/// Runs `spec` across a fleet of worker subprocesses (see file comment).
/// `control` is the caller's ordinary campaign control: its journal becomes
/// the canonical merged journal, its resume snapshot seeds every lease, its
/// stop flag drains the fleet (workers get SIGTERM, finish their cell, and
/// their partial journals still merge), and its on_cell hook fires once per
/// newly-delivered cell. Blocks until the grid is complete or drained.
[[nodiscard]] FabricResult run_fabric_campaign(
    const analysis::CampaignSpec& spec, const FabricConfig& config,
    const analysis::CampaignControl& control = {});

}  // namespace lumen::fabric
