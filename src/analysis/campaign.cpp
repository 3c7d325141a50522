#include "analysis/campaign.hpp"

#include "analysis/journal.hpp"
#include "core/registry.hpp"
#include "fault/plan.hpp"
#include "util/prng.hpp"
#include "sim/look_arena.hpp"
#include "sim/monitors.hpp"
#include "sim/streaming_collision.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <thread>

namespace lumen::analysis {

std::string validate_campaign_spec(const CampaignSpec& spec) {
  const auto names = core::algorithm_names();
  if (std::find(names.begin(), names.end(), spec.algorithm) == names.end()) {
    return "algorithm: unknown algorithm \"" + spec.algorithm +
           "\"; valid: " + core::algorithm_names_joined();
  }
  if (spec.n < 1) return "n must be >= 1";
  if (spec.runs < 1) return "runs must be >= 1";
  // Cell i runs seed seed_base + i, which documents store as a signed
  // 64-bit JSON integer.
  constexpr auto kMaxSeed =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (spec.seed_base > kMaxSeed || spec.runs - 1 > kMaxSeed - spec.seed_base) {
    return "seed_base + runs - 1 (the last cell's seed) must be <= 2^63 - 1";
  }
  if (!(spec.min_separation > 0.0) || !std::isfinite(spec.min_separation)) {
    return "min_separation must be a finite number > 0";
  }
  if (!(spec.collision_tolerance >= 0.0) ||
      !std::isfinite(spec.collision_tolerance)) {
    return "collision_tolerance must be a finite number >= 0";
  }
  if (spec.shard_count < 1) return "shard_count must be >= 1";
  if (spec.shard_index >= spec.shard_count) {
    return "shard_index must be < shard_count";
  }
  if (spec.max_attempts < 1) return "max_attempts must be >= 1";
  if (spec.run.max_cycles_per_robot < 1) {
    return "run.max_cycles_per_robot must be >= 1";
  }
  if (const std::string problem = fault::validate_fault_plan(spec.run.fault);
      !problem.empty()) {
    return "run.fault." + problem;
  }
  return "";
}

std::vector<std::uint64_t> shard_seeds(const CampaignSpec& spec) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(spec.runs / spec.shard_count + 1);
  for (std::size_t i = spec.shard_index; i < spec.runs; i += spec.shard_count) {
    seeds.push_back(spec.seed_base + i);
  }
  return seeds;
}

std::size_t CampaignResult::converged_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunMetrics& m) { return m.converged; }));
}

std::size_t CampaignResult::visibility_ok_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunMetrics& m) { return m.visibility_ok; }));
}

std::size_t CampaignResult::collision_free_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunMetrics& m) { return m.collision_free; }));
}

std::size_t CampaignResult::max_colors() const noexcept {
  std::size_t best = 0;
  for (const auto& m : runs) best = std::max(best, m.colors);
  return best;
}

std::size_t CampaignResult::outcome_count(sim::RunOutcome outcome) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(), [outcome](const RunMetrics& m) {
        return m.outcome == outcome;
      }));
}

fault::FaultCounters CampaignResult::fault_totals() const noexcept {
  fault::FaultCounters totals;
  for (const auto& m : runs) {
    totals.crashes += m.faults.crashes;
    totals.corrupted_reads += m.faults.corrupted_reads;
    totals.dropped_observations += m.faults.dropped_observations;
    totals.perturbed_observations += m.faults.perturbed_observations;
  }
  return totals;
}

CampaignResult::CacheTotals CampaignResult::cache_totals() const noexcept {
  CacheTotals totals;
  for (const auto& m : runs) {
    totals.replays += m.cache_replays;
    totals.repairs += m.cache_repairs;
    totals.rebuilds += m.cache_rebuilds;
  }
  return totals;
}

util::Summary CampaignResult::epochs() const {
  std::vector<double> xs;
  xs.reserve(runs.size());
  for (const auto& m : runs) {
    if (m.converged) xs.push_back(static_cast<double>(m.epochs));
  }
  return util::summarize(xs);
}

util::Summary CampaignResult::moves() const {
  std::vector<double> xs;
  xs.reserve(runs.size());
  for (const auto& m : runs) {
    if (m.converged) xs.push_back(static_cast<double>(m.moves));
  }
  return util::summarize(xs);
}

std::size_t CampaignResult::max_epochs() const noexcept {
  std::size_t worst = 0;
  for (const auto& m : runs) worst = std::max(worst, m.epochs);
  return worst;
}

double CampaignResult::worst_min_separation() const noexcept {
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& m : runs) {
    worst = std::min(worst, m.min_observed_separation);
  }
  return worst;
}

namespace {

/// The per-cell slot run_campaign assembles the result from. Exactly one of
/// metrics / error is set for a cell that ran (or resumed); neither is set
/// when the stop flag skipped it.
struct Cell {
  std::optional<RunMetrics> metrics;
  std::optional<CampaignError> error;
  bool resumed = false;
  bool skipped = false;
};

constexpr std::uint64_t kMaxBackoffMs = 5000;

}  // namespace

std::uint64_t retry_backoff_delay_ms(std::uint64_t base,
                                     std::size_t failed_attempts,
                                     std::uint64_t cell_seed) noexcept {
  if (base == 0) return 0;
  std::uint64_t delay = base;
  for (std::size_t i = 1; i < failed_attempts && delay < kMaxBackoffMs; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, kMaxBackoffMs);
  // Half-jitter: the floor keeps the backoff meaningful, the hashed offset
  // decorrelates cells that failed in the same instant. splitmix64 of
  // (seed, attempt) keeps every cell's schedule deterministic.
  std::uint64_t state =
      cell_seed ^ (0x9e3779b97f4a7c15ULL *
                   (static_cast<std::uint64_t>(failed_attempts) + 1));
  const std::uint64_t r = util::splitmix64(state);
  const std::uint64_t floor = delay / 2;
  return floor + r % (delay - floor + 1);
}

CampaignResult run_campaign(const CampaignSpec& spec, util::ThreadPool* pool,
                            const CampaignControl& control) {
  CampaignResult result;
  result.spec = spec;
  // Invalid specs become a single structured error instead of a throw or a
  // crash deep inside a worker: the campaign "ran" with zero cells, and the
  // caller (experiment body, lumen-bench) reports the reason. Not journaled
  // — validation is pure, so a resumed process recomputes the same verdict.
  if (std::string problem = validate_campaign_spec(spec); !problem.empty()) {
    result.errors.push_back(CampaignError{CampaignErrorKind::kSpecInvalid, 0, 0,
                                          std::move(problem)});
    return result;
  }
  const std::vector<std::uint64_t> seeds = shard_seeds(spec);
  std::vector<Cell> cells(seeds.size());
  const auto algorithm = core::make_algorithm(spec.algorithm);
  util::ThreadPool& workers = pool != nullptr ? *pool : util::global_pool();

  // Cells already journaled by an interrupted process are merged back as-is
  // (each is deterministic in its seed, so the merged result is bit-identical
  // to the uninterrupted campaign) and never re-journaled: the resume
  // snapshot came from the very file any attached journal keeps appending to.
  const std::string key = (control.journal != nullptr || control.resume != nullptr)
                              ? campaign_key(spec)
                              : std::string();
  if (control.resume != nullptr) {
    for (std::size_t slot = 0; slot < seeds.size(); ++slot) {
      const std::uint64_t seed = seeds[slot];
      if (const JournalCell* cell = control.resume->find(key, seed)) {
        cells[slot].metrics = cell->metrics;
        cells[slot].error = cell->error;
        cells[slot].resumed = true;
      }
    }
  }

  // One attempt of one cell: generate, run, reduce to metrics — or classify
  // the failure. Returns metrics on success, an error otherwise.
  const auto attempt_cell = [&](std::uint64_t seed, sim::LookArena* arena)
      -> std::pair<std::optional<RunMetrics>, CampaignError> {
    const auto initial =
        gen::generate(spec.family, spec.n, seed, spec.min_separation);
    sim::RunConfig config = spec.run;
    config.seed = seed;
    // Campaigns only reduce to metrics, so nothing needs the move log: the
    // collision audit streams over the run instead of replaying a retained
    // log, and per-run memory stays independent of run length.
    config.record_moves = false;
    // In-run parallelism rides the same pool. Nested from a campaign worker
    // the inner fan-out degrades to inline-serial (the workers are already
    // busy with whole runs); from the caller thread — the single-run path
    // below — a large-N run's rounds genuinely parallelize. Either way the
    // results are bit-identical (pool-size invariance, see run.hpp).
    config.pool = &workers;
    // One Look arena per campaign worker, reused across all its cells:
    // visibility scratch and cache capacity warmed by one run carry into
    // the next instead of being reallocated at every engine reset. Results
    // are bit-identical with or without the shared arena (see run.hpp).
    config.arena = arena;
    sim::StreamingCollisionMonitor monitor(spec.collision_tolerance);
    sim::RunObserver* observers[] = {&monitor};
    const auto run =
        spec.audit_collisions
            ? sim::run_simulation(*algorithm, initial, config, observers)
            : sim::run_simulation(*algorithm, initial, config);

    if (run.outcome == sim::RunOutcome::kDeadlineExceeded) {
      return {std::nullopt,
              CampaignError{CampaignErrorKind::kDeadline, seed, 0,
                            "run exceeded deadline_ms=" +
                                std::to_string(spec.run.deadline_ms)}};
    }
    RunMetrics m;
    m.seed = seed;
    m.converged = run.converged;
    m.epochs = run.epochs;
    m.cycles = run.total_cycles;
    m.moves = run.total_moves;
    m.distance = run.total_distance;
    m.colors = run.distinct_lights_used();
    m.outcome = run.outcome;
    m.faults = run.faults;
    m.cache_replays = run.cache_replays;
    m.cache_repairs = run.cache_repairs;
    m.cache_rebuilds = run.cache_rebuilds;
    // The verdict audits the algorithm's DECLARED success predicate, not a
    // hardwired complete-visibility check — related-work plugins declare
    // weaker goals (see model::Algorithm::success_predicate).
    m.visibility_ok =
        sim::verify_success(algorithm->success_predicate(), run.final_positions,
                            &workers)
            .satisfied;
    if (spec.audit_collisions) {
      const sim::CollisionReport& report = monitor.report();
      m.collision_free = report.hazard_free(1e-9);
      m.min_observed_separation = report.min_separation;
      m.path_crossings = report.path_crossings;
      m.position_collisions = report.position_collisions;
      if (report.position_collisions > 0) {
        m.outcome = sim::RunOutcome::kCollision;
        m.collision_channel = monitor.dominant_channel();
      }
    }
    return {std::move(m), CampaignError{}};
  };

  const auto run_cell = [&](std::size_t slot, sim::LookArena* arena) {
    Cell& cell = cells[slot];
    if (cell.resumed) return;
    const std::uint64_t seed = seeds[slot];
    CampaignError last_error;
    for (std::size_t attempt = 1; attempt <= spec.max_attempts; ++attempt) {
      // Cooperative stop: cells already past this gate drain normally; this
      // one (and its remaining retries) is abandoned without a record.
      if (control.stop_requested()) {
        cell.skipped = true;
        return;
      }
      try {
        auto [metrics, error] = attempt_cell(seed, arena);
        if (metrics) {
          cell.metrics = std::move(metrics);
          if (control.journal != nullptr) {
            control.journal->append_cell(spec, *cell.metrics);
          }
          if (control.on_cell) control.on_cell(seed);
          return;
        }
        last_error = std::move(error);
      } catch (const std::exception& e) {
        last_error =
            CampaignError{CampaignErrorKind::kException, seed, 0, e.what()};
      } catch (...) {
        last_error = CampaignError{CampaignErrorKind::kException, seed, 0,
                                   "unknown exception"};
      }
      last_error.attempts = attempt;
      if (attempt < spec.max_attempts) {
        const std::uint64_t delay =
            retry_backoff_delay_ms(spec.retry_backoff_ms, attempt, seed);
        if (delay > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
      }
    }
    cell.error = std::move(last_error);
    if (control.journal != nullptr) control.journal->append_error(spec, *cell.error);
    if (control.on_cell) control.on_cell(seed);
  };

  // Slot-stable arenas: worker slot k always reuses arenas[k]; the extra
  // last arena belongs to the caller thread's single-run path. Sized once,
  // never resized (LookArena is not movable — the cache pins its entries).
  std::vector<sim::LookArena> arenas(workers.slot_count() + 1);
  if (cells.size() == 1) {
    // Keep the lone run on the caller so its in-run fan-out owns the pool.
    run_cell(0, &arenas.back());
  } else if (!cells.empty()) {
    workers.parallel_for_slots(cells.size(),
                               [&](std::size_t slot, std::size_t index) {
                                 run_cell(index, &arenas[slot]);
                               });
  }

  // Assemble in ascending seed order (slot order IS seed order), which makes
  // merged shards and resumed runs reproduce the serial result exactly.
  result.runs.reserve(cells.size());
  for (const Cell& cell : cells) {
    if (cell.skipped) {
      ++result.cells_skipped;
      continue;
    }
    if (cell.resumed) ++result.cells_resumed;
    if (cell.metrics) {
      result.runs.push_back(*cell.metrics);
    } else if (cell.error) {
      result.errors.push_back(*cell.error);
    }
  }
  return result;
}

}  // namespace lumen::analysis
