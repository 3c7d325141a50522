// lumen_analysis: campaigns — many independent runs, reduced to the rows the
// benches print.
//
// A campaign fixes (algorithm, scheduler, adversary, family, N) and sweeps
// seeds; runs execute in parallel on the shared thread pool (each run is
// fully deterministic in its own seed, so parallel and serial campaigns
// produce identical metrics). Verification (complete visibility, collision
// audit) is part of the per-run metrics so that every table in
// EXPERIMENTS.md carries its own evidence.
//
// Resilience (DESIGN.md §12): a campaign is a grid of independent CELLS,
// one per (campaign, seed). A cell that hangs past the per-run watchdog or
// throws is retried up to CampaignSpec::max_attempts times and then recorded
// as a structured CampaignError on the result instead of aborting the whole
// campaign. A CampaignControl can attach a checkpoint journal (every
// finished cell is durably appended), a resume snapshot (journaled cells are
// skipped and their recorded metrics merged back bit-identically), and a
// cooperative stop flag (in-flight cells drain, untouched cells are counted
// as skipped).
#pragma once

#include "fault/events.hpp"
#include "gen/generators.hpp"
#include "sim/run.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lumen::analysis {

class CampaignJournal;
struct JournalSnapshot;

struct CampaignSpec {
  std::string algorithm = "async-log";
  sim::RunConfig run;  ///< Scheduler/adversary template; seed is per-run.
  gen::ConfigFamily family = gen::ConfigFamily::kUniformDisk;
  std::size_t n = 32;
  std::size_t runs = 20;           ///< Number of seeds.
  std::uint64_t seed_base = 1;     ///< Run i uses seed seed_base + i.
  double min_separation = 1e-3;
  /// Streaming continuous collision audit (StreamingCollisionMonitor);
  /// off for big sweeps where only convergence metrics matter.
  bool audit_collisions = true;
  double collision_tolerance = 0.0;
  /// Deterministic seed-range sharding: shard j of k executes exactly the
  /// runs whose index i (seed seed_base + i) satisfies i % shard_count ==
  /// shard_index. Each run is deterministic in its seed, so the k shard
  /// results, merged by seed, are bit-identical to the unsharded campaign —
  /// big sweeps split across machines without changing a single metric.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Retry policy for retriable cell failures (deadline-exceeded runs and
  /// thrown exceptions): each cell is attempted up to max_attempts times
  /// before a CampaignError is recorded. 1 = no retries.
  std::size_t max_attempts = 1;
  /// Base backoff between a cell's attempts; attempt k sleeps
  /// retry_backoff_ms * 2^(k-1), capped at 5000 ms. 0 = retry immediately.
  std::uint64_t retry_backoff_ms = 0;
};

/// Why a cell (or the whole campaign) failed. The taxonomy drives retry:
/// only timing-dependent failures (kDeadline) and exceptions (kException,
/// which may be environmental — allocation, file descriptors) are retried;
/// kSpecInvalid is a deterministic verdict.
enum class CampaignErrorKind {
  kSpecInvalid,      ///< The spec failed validation; campaign-wide, no cells ran.
  kDeadline,         ///< Every attempt ended RunOutcome::kDeadlineExceeded.
  kException,        ///< Every attempt threw; detail carries the last what().
  kJournalMismatch,  ///< A journal declared a different campaign key than the
                     ///< spec (multi-writer guard); campaign-wide, no cells ran.
};

inline constexpr auto kCampaignErrorKindNames =
    std::to_array<util::Named<CampaignErrorKind>>({
        {CampaignErrorKind::kSpecInvalid, "spec-invalid"},
        {CampaignErrorKind::kDeadline, "deadline"},
        {CampaignErrorKind::kException, "exception"},
        {CampaignErrorKind::kJournalMismatch, "journal-mismatch"},
    });

[[nodiscard]] constexpr std::string_view to_string(CampaignErrorKind k) noexcept {
  return util::name_of(kCampaignErrorKindNames, k);
}

[[nodiscard]] constexpr std::optional<CampaignErrorKind>
campaign_error_kind_from_string(std::string_view name) noexcept {
  return util::parse_name(kCampaignErrorKindNames, name);
}

struct CampaignError {
  CampaignErrorKind kind = CampaignErrorKind::kException;
  /// The failed cell's seed; 0 for the campaign-wide kSpecInvalid record.
  std::uint64_t seed = 0;
  /// How many attempts were made before giving up (0 for kSpecInvalid).
  std::size_t attempts = 0;
  std::string detail;  ///< Human-readable reason (validator/exception text).

  friend bool operator==(const CampaignError&, const CampaignError&) = default;
};

/// The one home of the campaign's range rules: known algorithm name, n,
/// runs, shard_count and max_attempts >= 1, a last cell seed
/// (seed_base + runs - 1) of at most 2^63 - 1, shard_index < shard_count,
/// min_separation > 0, collision_tolerance >= 0, the run's cycle cap, and
/// fault::validate_fault_plan. The JSON loaders check only types, enum
/// names and signs, then call this. Returns the first problem as a
/// field-naming message, or an empty string when the spec is valid.
/// run_campaign records the message as a kSpecInvalid CampaignError
/// instead of running anything.
[[nodiscard]] std::string validate_campaign_spec(const CampaignSpec& spec);

/// The seeds the spec's shard owns, ascending: seed_base + i for every run
/// index i < runs with i % shard_count == shard_index. The one home of the
/// shard rule; shard_count must be >= 1.
[[nodiscard]] std::vector<std::uint64_t> shard_seeds(const CampaignSpec& spec);

/// The delay before retry attempt `failed_attempts + 1` of a cell: base
/// doubled per failed attempt and capped at 5000 ms, then jittered
/// DETERMINISTICALLY into [delay/2, delay] by a hash of (cell_seed,
/// failed_attempts). Without the jitter every shard that fails at the same
/// instant (a full disk, an exhausted file-descriptor table) retries at the
/// same instant too — a thundering herd; with it, retry times decorrelate
/// across cells while each cell's schedule stays a pure function of its
/// seed. 0 when base is 0 (retry immediately).
[[nodiscard]] std::uint64_t retry_backoff_delay_ms(
    std::uint64_t base, std::size_t failed_attempts,
    std::uint64_t cell_seed) noexcept;

struct RunMetrics {
  std::uint64_t seed = 0;
  bool converged = false;
  std::size_t epochs = 0;
  std::size_t cycles = 0;
  std::size_t moves = 0;
  double distance = 0.0;
  std::size_t colors = 0;
  /// The final configuration satisfies the algorithm's DECLARED success
  /// predicate (model::Algorithm::success_predicate, evaluated by
  /// sim::verify_success) — complete visibility for the paper algorithms,
  /// mutual visibility for the related-work plugins.
  bool visibility_ok = false;
  /// Physical verdict: no coincidence, closest approach above noise
  /// (CollisionReport::hazard_free). Strict path crossings are counted
  /// separately in path_crossings.
  bool collision_free = true;
  double min_observed_separation = 0.0;
  std::size_t path_crossings = 0;
  std::size_t position_collisions = 0;
  /// Outcome classification: the engine's verdict, upgraded to kCollision
  /// when the audit found position collisions.
  sim::RunOutcome outcome = sim::RunOutcome::kBudgetExhausted;
  /// Per-channel injected-fault totals for this run.
  fault::FaultCounters faults;
  /// The fault channel the collision monitor blames for the run's collision
  /// incidents (kNone when incident-free or unaudited).
  fault::FaultChannel collision_channel = fault::FaultChannel::kNone;
  /// Visibility-cache hit mix for this run (RunResult::cache_*): Looks
  /// served by replay, by write-log repair, and by full rebuilds.
  std::uint64_t cache_replays = 0;
  std::uint64_t cache_repairs = 0;
  std::uint64_t cache_rebuilds = 0;

  friend bool operator==(const RunMetrics&, const RunMetrics&) = default;
};

/// External hooks for one run_campaign call; everything is optional and
/// non-owning. `journal` receives one durable record per finished cell;
/// `resume` pre-fills cells already journaled by a previous (interrupted)
/// process; `stop` is polled before each cell starts — once set, running
/// cells drain normally and untouched cells are counted in cells_skipped.
/// Resuming against the journal file being appended to is the intended
/// shape (lumen-bench --resume does exactly that).
struct CampaignControl {
  CampaignJournal* journal = nullptr;
  const JournalSnapshot* resume = nullptr;
  const std::atomic<bool>* stop = nullptr;
  /// Progress hook: invoked once per cell that actually EXECUTED (not for
  /// resumed cells), after its journal record landed, with the cell's seed.
  /// Called from pool worker threads — the callee must be thread-safe. The
  /// fabric worker uses this to stream per-cell progress to its
  /// coordinator; it must not throw.
  std::function<void(std::uint64_t seed)> on_cell;

  /// Whether `stop` is set: the one stop test every campaign, hunt,
  /// minimizer, experiment and fabric loop polls.
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  }
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<RunMetrics> runs;
  /// Cells that failed after retries (ascending seed), or a single
  /// campaign-wide kSpecInvalid record. Aggregates below run over `runs`
  /// only, so a partially-failed campaign still reports honest numbers.
  std::vector<CampaignError> errors;
  /// Bookkeeping (NOT part of the serialized result, so an interrupted +
  /// resumed campaign is byte-identical to an uninterrupted one).
  std::size_t cells_resumed = 0;  ///< Cells merged from the resume snapshot.
  std::size_t cells_skipped = 0;  ///< Cells never started (stop requested).

  /// True when every cell produced metrics: no errors, nothing skipped.
  [[nodiscard]] bool complete() const noexcept {
    return errors.empty() && cells_skipped == 0;
  }

  [[nodiscard]] std::size_t converged_count() const noexcept;
  [[nodiscard]] std::size_t visibility_ok_count() const noexcept;
  [[nodiscard]] std::size_t collision_free_count() const noexcept;
  [[nodiscard]] std::size_t max_colors() const noexcept;
  /// Runs classified as `outcome` (after any audit-driven upgrade).
  [[nodiscard]] std::size_t outcome_count(sim::RunOutcome outcome) const noexcept;
  /// Injected-fault totals summed over every run in the campaign.
  [[nodiscard]] fault::FaultCounters fault_totals() const noexcept;
  /// Visibility-cache hit mix summed over every run (replays / repairs /
  /// rebuilds) — the campaign-level evidence for the E7c table.
  struct CacheTotals {
    std::uint64_t replays = 0;
    std::uint64_t repairs = 0;
    std::uint64_t rebuilds = 0;

    [[nodiscard]] std::uint64_t looks() const noexcept {
      return replays + repairs + rebuilds;
    }
  };
  [[nodiscard]] CacheTotals cache_totals() const noexcept;
  /// Summary over CONVERGED runs' epoch counts.
  [[nodiscard]] util::Summary epochs() const;
  [[nodiscard]] util::Summary moves() const;
  /// Worst case over ALL runs (converged or not): the largest epoch count.
  /// 0 when the campaign produced no metrics. Unlike epochs().max this
  /// includes stalled and budget-exhausted runs — the adversarial tail the
  /// search subsystem hunts (DESIGN.md §16).
  [[nodiscard]] std::size_t max_epochs() const noexcept;
  /// Worst (smallest) audited closest approach over ALL runs — the
  /// near-miss margin. Meaningful only when audit_collisions was set;
  /// +infinity when the campaign produced no metrics.
  [[nodiscard]] double worst_min_separation() const noexcept;
};

/// Runs the campaign on the given pool (nullptr -> util::global_pool()).
/// Never throws for per-cell failures: an invalid spec, a hung run or a
/// throwing cell ends up in CampaignResult::errors (see CampaignControl for
/// journaling / resume / cooperative stop).
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          util::ThreadPool* pool = nullptr,
                                          const CampaignControl& control = {});

}  // namespace lumen::analysis
