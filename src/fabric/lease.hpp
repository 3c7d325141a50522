// lumen_fabric: seed-range leases (DESIGN.md §17).
//
// A lease is the coordinator's grant of one shard of a campaign's cell grid
// to one worker process: the shard coordinates (composed on top of whatever
// sharding the base spec already carries), a FENCING TOKEN, the shard
// journal the worker may append to, prior journals it should resume from,
// and the full scenario so the lease document is self-contained (a worker
// needs nothing but the lease file to do its work).
//
// Fencing: tokens are allocated strictly increasing per coordinator run.
// A reclaimed lease (crash or expiry) is re-granted
// under a NEW token with a NEW journal path, so a resurrected stale worker
// can only ever append to its own token's file; the coordinator's merge is
// first-write-wins per (campaign key, seed), so those late appends are
// duplicates — counted, dropped, harmless.
#pragma once

#include "analysis/scenario.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lumen::fabric {

struct Lease {
  /// FNV-1a campaign key the shard journal must declare (fencing scope;
  /// also a checksum: a lease whose scenario hashes differently is rejected).
  std::string campaign_key;
  /// Strictly-increasing fencing token; ties every worker event and journal
  /// file to one specific grant.
  std::uint64_t token = 0;
  /// The shard journal this grant may append to (unique per token).
  std::string journal_path;
  /// Journals of earlier grants of overlapping cells (prior tokens of this
  /// shard, the canonical resume journal): the worker merges whatever loads
  /// and skips those cells — reclaiming a lease never redoes finished work.
  std::vector<std::string> resume_paths;
  /// The leased workload: ns = [n], shard_index/shard_count composed so
  /// that scenario.campaign(ns[0]) IS the shard's cell set.
  analysis::ScenarioSpec scenario;
};

/// Deterministic JSON document (type lumen-lease, version 1), trailing
/// newline; round-trips byte-identically through lease_from_json.
[[nodiscard]] std::string lease_to_json(const Lease& lease);

struct LeaseParse {
  std::optional<Lease> lease;
  std::string error;  ///< Reason when lease is nullopt.
};

/// Parses and validates a lease document: a scenario that passes
/// validate_scenario with exactly one sweep size, a non-empty journal
/// path, and campaign_key matching the scenario's FNV-1a key.
[[nodiscard]] LeaseParse lease_from_json(std::string_view text);

bool save_lease(const Lease& lease, const std::string& path);
[[nodiscard]] LeaseParse load_lease(const std::string& path);

/// The campaign the lease's worker actually runs:
/// scenario.campaign(scenario.ns[0]).
[[nodiscard]] analysis::CampaignSpec lease_campaign(const Lease& lease);

}  // namespace lumen::fabric
