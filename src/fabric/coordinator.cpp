#include "fabric/coordinator.hpp"

#include "analysis/journal.hpp"
#include "analysis/scenario.hpp"
#include "fabric/lease.hpp"
#include "fabric/process.hpp"
#include "fabric/protocol.hpp"
#include "util/prng.hpp"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <thread>

namespace lumen::fabric {

namespace {

using Clock = std::chrono::steady_clock;

/// Sub-shards per worker slot: finer-grained reclamation (a crash loses a
/// smaller lease) at the cost of more journal files.
constexpr std::size_t kLeasesPerWorker = 2;
/// Worker liveness cadence (Lease::heartbeat_ms).
constexpr std::uint64_t kHeartbeatMs = 100;
/// Grants per shard (initial + re-grants) before the shard is declared
/// failed and its cells fall back to local recomputation.
constexpr std::size_t kMaxLeaseAttempts = 4;
/// Base backoff before re-granting a failed shard; jittered per shard by
/// analysis::retry_backoff_delay_ms.
constexpr std::uint64_t kRelaunchBackoffMs = 50;

std::uint64_t ms_since(Clock::time_point then, Clock::time_point now) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - then).count();
  return ms > 0 ? static_cast<std::uint64_t>(ms) : 0;
}

struct Shard {
  enum class State { kPending, kRunning, kDone, kFailed };

  std::size_t id = 0;
  std::size_t shard_index = 0;  ///< Composed index in the sub-sharded grid.
  std::vector<std::uint64_t> seeds;  ///< The cells this shard owns.
  State state = State::kPending;
  std::size_t attempts = 0;
  std::uint64_t token = 0;  ///< Current grant's fencing token.
  std::vector<std::string> journals;  ///< Every grant's journal, oldest first.
  ChildProcess worker;
  Clock::time_point last_event;  ///< Any event under the current token.
  Clock::time_point next_grant;  ///< Backoff gate for the next grant.
};

}  // namespace

FabricResult run_fabric_campaign(const analysis::CampaignSpec& spec,
                                 const FabricConfig& config,
                                 const analysis::CampaignControl& control) {
  FabricResult out;
  const auto say = [&](const std::string& line) {
    if (config.log) config.log(line);
  };
  const auto run_locally = [&](const char* why) {
    say(std::string("fabric: running in-process (") + why + ")");
    out.result = analysis::run_campaign(spec, nullptr, control);
    out.stopped = out.result.cells_skipped > 0;
    return out;
  };
  if (config.workers == 0 || config.worker_argv.empty()) {
    return run_locally("no workers configured");
  }
  if (!analysis::validate_campaign_spec(spec).empty()) {
    // Let run_campaign produce its canonical kSpecInvalid record.
    return run_locally("invalid spec");
  }

  std::error_code fs_error;
  std::filesystem::create_directories(config.dir, fs_error);
  if (fs_error) return run_locally("cannot create fabric dir");

  const std::string key = analysis::campaign_key(spec);
  // The spec as a one-size scenario: the lease document embeds the workload
  // via the scenario round-trip guarantee.
  const analysis::ScenarioSpec base_scenario{spec, {spec.n}, {}};

  // Decompose the spec's cell set {i : i % c == s} into S sub-shards
  // {i : i % (cS) == s + c*j}; their union is exactly the original set, so
  // the merged shard journals cover precisely the spec's grid.
  const std::size_t sub_shards = config.workers * kLeasesPerWorker;
  const std::size_t total_count = spec.shard_count * sub_shards;
  std::vector<Shard> shards(sub_shards);
  for (std::size_t j = 0; j < sub_shards; ++j) {
    shards[j].id = j;
    shards[j].shard_index = spec.shard_index + spec.shard_count * j;
  }
  for (std::size_t i = 0; i < spec.runs; ++i) {
    if (i % spec.shard_count != spec.shard_index) continue;
    const std::size_t j = (i / spec.shard_count) % sub_shards;
    shards[j].seeds.push_back(spec.seed_base + i);
  }
  for (Shard& shard : shards) {
    // A shard fully covered by the caller's resume snapshot (or owning no
    // cells at all) never needs a worker.
    const bool covered =
        std::all_of(shard.seeds.begin(), shard.seeds.end(),
                    [&](std::uint64_t seed) {
                      return control.resume != nullptr &&
                             control.resume->find(key, seed) != nullptr;
                    });
    if (shard.seeds.empty() || covered) shard.state = Shard::State::kDone;
  }
  out.stats.shards = shards.size();

  std::uint64_t next_token = 1;
  std::uint64_t chaos_state = config.chaos_seed;
  const auto chaos_roll = [&]() {
    chaos_state = util::splitmix64(chaos_state);
    return static_cast<double>(chaos_state >> 11) * 0x1.0p-53 <
           config.chaos_kill_rate;
  };
  std::set<std::uint64_t> announced;  ///< Seeds already sent to on_cell.

  const auto grant = [&](Shard& shard) {
    const std::uint64_t token = next_token++;
    const std::string tag =
        std::to_string(shard.id) + "-t" + std::to_string(token);
    Lease lease;
    lease.campaign_key = key;
    lease.token = token;
    lease.journal_path = config.dir + "/shard-" + tag + ".jsonl";
    lease.resume_paths = config.resume_paths;
    lease.resume_paths.insert(lease.resume_paths.end(),
                              shard.journals.begin(), shard.journals.end());
    lease.heartbeat_ms = kHeartbeatMs;
    lease.scenario = base_scenario;
    lease.scenario.shard_index = shard.shard_index;
    lease.scenario.shard_count = total_count;
    const std::string lease_path = config.dir + "/lease-" + tag + ".json";
    if (!save_lease(lease, lease_path)) {
      say("fabric: cannot write lease " + lease_path);
      return false;
    }
    std::vector<std::string> argv = config.worker_argv;
    argv.push_back(lease_path);
    std::string error;
    auto child = ChildProcess::spawn(argv, &error);
    if (!child) {
      say("fabric: spawn failed: " + error);
      return false;
    }
    shard.worker = std::move(*child);
    shard.token = token;
    shard.journals.push_back(lease.journal_path);
    shard.state = Shard::State::kRunning;
    shard.attempts += 1;
    shard.last_event = Clock::now();
    out.stats.leases_granted += 1;
    say("fabric: granted shard " + std::to_string(shard.id) + " token " +
        std::to_string(token) + " (attempt " + std::to_string(shard.attempts) +
        ", pid " + std::to_string(shard.worker.pid()) + ")");
    return true;
  };

  // Reclaim a running shard's lease: the worker (dead or presumed dead) is
  // detached, and the shard re-queued behind a jittered backoff or declared
  // failed once past its grant budget. The grant's journal stays on the
  // shard — whatever it durably finished is never redone.
  const auto reclaim = [&](Shard& shard, const std::string& why) {
    say("fabric: reclaiming shard " + std::to_string(shard.id) + " token " +
        std::to_string(shard.token) + " (" + why + ")");
    if (shard.attempts >= kMaxLeaseAttempts) {
      shard.state = Shard::State::kFailed;
      out.stats.shards_failed += 1;
      say("fabric: shard " + std::to_string(shard.id) +
          " failed after " + std::to_string(shard.attempts) +
          " grants; its cells will be recomputed locally");
      return;
    }
    shard.state = Shard::State::kPending;
    const std::uint64_t delay = analysis::retry_backoff_delay_ms(
        kRelaunchBackoffMs, shard.attempts,
        static_cast<std::uint64_t>(shard.id));
    shard.next_grant = Clock::now() + std::chrono::milliseconds(
                                          static_cast<std::int64_t>(delay));
  };

  const auto handle_event = [&](Shard& shard, const WorkerEvent& event,
                                Clock::time_point now) {
    if (event.token != shard.token) {
      out.stats.stale_events_fenced += 1;
      return;
    }
    shard.last_event = now;
    if (event.kind != WorkerEventKind::kCell) return;
    if (control.on_cell && announced.insert(event.seed).second) {
      control.on_cell(event.seed);
    }
    if (config.chaos_kill_rate > 0.0 && chaos_roll()) {
      say("fabric: chaos kill of shard " + std::to_string(shard.id) +
          " pid " + std::to_string(shard.worker.pid()));
      shard.worker.kill(SIGKILL);
      out.stats.chaos_kills += 1;
    }
  };

  // ---- The supervision loop ------------------------------------------------
  while (!control.stop_requested()) {
    bool open_work = false;
    const auto now = Clock::now();
    for (Shard& shard : shards) {
      if (shard.state == Shard::State::kRunning) {
        open_work = true;
        std::string error;
        for (const std::string& line : shard.worker.read_lines()) {
          if (const auto event = worker_event_from_line(line, &error)) {
            handle_event(shard, *event, now);
          }
        }
        shard.worker.try_reap();
        if (!shard.worker.running()) {
          const auto& exit = shard.worker.exit_status();
          if (exit && !exit->signaled && exit->code == 0) {
            shard.state = Shard::State::kDone;
            say("fabric: shard " + std::to_string(shard.id) + " complete");
          } else if (exit && !exit->signaled &&
                     (exit->code == 2 || exit->code == 127)) {
            // Unusable lease / unexecutable worker: retrying reproduces the
            // same verdict, so fail fast to the local fallback.
            shard.state = Shard::State::kFailed;
            out.stats.shards_failed += 1;
            say("fabric: shard " + std::to_string(shard.id) +
                " worker exit " + std::to_string(exit->code) +
                " (not retriable); its cells will be recomputed locally");
          } else {
            out.stats.workers_crashed += 1;
            reclaim(shard, exit && exit->signaled
                               ? "worker killed by signal " +
                                     std::to_string(exit->code)
                               : "worker exit " +
                                     std::to_string(exit ? exit->code : -1));
          }
          continue;
        }
        // Liveness: a worker heartbeats even mid-cell, so TTL silence means
        // the PROCESS is gone or frozen, not merely slow.
        if (config.lease_ttl_ms > 0 &&
            ms_since(shard.last_event, now) > config.lease_ttl_ms) {
          shard.worker.kill(SIGKILL);
          shard.worker.reap_with_timeout(100);
          out.stats.leases_expired += 1;
          out.stats.workers_crashed += 1;
          reclaim(shard, "lease expired");
          continue;
        }
      }
    }
    std::size_t running = 0;
    for (const Shard& shard : shards) {
      if (shard.state == Shard::State::kRunning) ++running;
    }
    for (Shard& shard : shards) {
      if (running >= config.workers) break;
      if (shard.state != Shard::State::kPending || now < shard.next_grant) {
        if (shard.state == Shard::State::kPending) open_work = true;
        continue;
      }
      open_work = true;
      if (grant(shard)) {
        ++running;
      } else if (shard.attempts + 1 >= kMaxLeaseAttempts) {
        // Grant machinery itself failing (unwritable dir, unspawnable
        // binary) burns the same budget as a crash.
        shard.attempts += 1;
        shard.state = Shard::State::kFailed;
        out.stats.shards_failed += 1;
      } else {
        shard.attempts += 1;
        shard.next_grant =
            now + std::chrono::milliseconds(static_cast<std::int64_t>(
                      analysis::retry_backoff_delay_ms(
                          kRelaunchBackoffMs, shard.attempts,
                          static_cast<std::uint64_t>(shard.id))));
      }
    }
    if (!open_work) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // ---- Drain ---------------------------------------------------------------
  if (control.stop_requested()) {
    out.stopped = true;
    say("fabric: stop requested; draining workers");
    for (Shard& shard : shards) {
      if (shard.state == Shard::State::kRunning) shard.worker.kill(SIGTERM);
    }
    for (Shard& shard : shards) {
      if (shard.state == Shard::State::kRunning) {
        shard.worker.reap_with_timeout(5000);
        shard.state = Shard::State::kPending;
      }
    }
  }

  // ---- Merge and finish ----------------------------------------------------
  // First-write-wins merge of every journal any grant ever produced; late
  // work from fenced-off grants surfaces here as counted duplicates.
  analysis::JournalSnapshot merged;
  if (control.resume != nullptr) merged = *control.resume;
  for (const Shard& shard : shards) {
    for (const std::string& path : shard.journals) {
      auto load = analysis::load_journal(path);
      if (!load.snapshot) {
        say("fabric: skipping unloadable shard journal " + path + ": " +
            load.error);
        continue;
      }
      out.stats.duplicate_cells_dropped += load.duplicate_cells;
      std::string merge_error;
      out.stats.duplicate_cells_dropped +=
          merge_snapshots(merged, *load.snapshot, &merge_error);
      if (!merge_error.empty()) say("fabric: " + path + ": " + merge_error);
    }
  }

  // Copy newly-delivered cells into the caller's canonical journal, in seed
  // order, so the canonical file resumes exactly like an interrupted
  // single-process run. Cells the caller already had are not re-appended.
  if (control.journal != nullptr) {
    if (const auto it = merged.cells.find(key); it != merged.cells.end()) {
      for (const auto& [seed, cell] : it->second) {
        if (control.resume != nullptr &&
            control.resume->find(key, seed) != nullptr) {
          continue;
        }
        if (cell.metrics) control.journal->append_cell(spec, *cell.metrics);
        if (cell.error) control.journal->append_error(spec, *cell.error);
      }
    }
  }

  // The answer itself: an ordinary in-process run over the merged snapshot.
  // Cells the fleet delivered resume bit-identically; cells it failed to
  // deliver (failed shards, early stop) are recomputed right here — so the
  // fabric's report equals the single-process report BY CONSTRUCTION, no
  // matter what the fleet went through.
  analysis::CampaignControl final_control;
  final_control.journal = control.journal;
  final_control.resume = &merged;
  final_control.stop = control.stop;
  final_control.on_cell = control.on_cell;
  out.result = analysis::run_campaign(spec, nullptr, final_control);
  const std::size_t records = out.result.runs.size() + out.result.errors.size();
  out.stats.cells_recomputed_locally =
      records > out.result.cells_resumed ? records - out.result.cells_resumed
                                         : 0;
  out.stopped = out.stopped || out.result.cells_skipped > 0;
  say("fabric: done (" + std::to_string(out.stats.leases_granted) +
      " leases, " + std::to_string(out.stats.workers_crashed) + " crashes, " +
      std::to_string(out.stats.duplicate_cells_dropped) +
      " duplicate cells dropped, " +
      std::to_string(out.stats.cells_recomputed_locally) +
      " cells recomputed locally)");
  return out;
}

}  // namespace lumen::fabric
