#include "analysis/experiments.hpp"

#include "core/registry.hpp"
#include "model/light.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <map>

namespace lumen::analysis {

MetricCell cell(std::string_view text) { return MetricCell{std::string(text), std::nullopt}; }

MetricCell cell(double value, int precision) {
  return MetricCell{util::format_number(value, precision), value};
}

MetricCell cell(std::size_t value) {
  return MetricCell{std::to_string(value), static_cast<double>(value)};
}

bool ExperimentResult::passed() const noexcept {
  return std::none_of(checks.begin(), checks.end(), [](const Check& check) {
    return check.verdict == Verdict::kFail;
  });
}

std::vector<MetricCell>& ExperimentResult::row() {
  rows.emplace_back();
  return rows.back();
}

namespace {

#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string strfmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// Runs one campaign under the experiment's context, folding cell errors
/// and stop-skipped cells into the result's notes and partial flag — a
/// failed or interrupted campaign degrades the table it feeds instead of
/// aborting the experiment (DESIGN.md §12).
CampaignResult run_checked(const CampaignSpec& campaign,
                           const ExperimentContext& ctx,
                           ExperimentResult& result) {
  CampaignResult r = ctx.execute(campaign);
  if (!r.complete()) {
    result.partial = true;
    for (const auto& e : r.errors) {
      result.notes.push_back(strfmt(
          "campaign cell error [%s] N=%zu seed=%llu after %zu attempt(s): %s",
          std::string(to_string(e.kind)).c_str(), campaign.n,
          static_cast<unsigned long long>(e.seed), e.attempts,
          e.detail.c_str()));
    }
    if (r.cells_skipped > 0) {
      result.notes.push_back(
          strfmt("campaign N=%zu: %zu cell(s) skipped (stop requested)",
                 campaign.n, r.cells_skipped));
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// E1 — the headline figure (claims C2 + C5): epochs-to-convergence vs N for
// the spec algorithm and the O(N) sequential-translation baseline, each
// series read by util::growth_verdict.

struct Series {
  std::vector<double> ns;
  /// Converged runs' epoch counts, one vector per entry of `ns`.
  std::vector<std::vector<double>> epochs;
  bool all_converged = true;
  /// Visibility-cache hit mix summed over the series' campaigns (feeds the
  /// E7c evidence note: convergent tails should be replay-heavy).
  CampaignResult::CacheTotals cache;
};

Series run_series(const std::string& algorithm, const std::vector<std::size_t>& ns,
                  const ScenarioSpec& scenario, const ExperimentContext& ctx,
                  ExperimentResult& result) {
  Series series;
  for (const std::size_t n : ns) {
    if (ctx.control.stop_requested()) {
      result.partial = true;
      break;
    }
    CampaignSpec spec = scenario.campaign(n);
    spec.algorithm = algorithm;
    const auto campaign = run_checked(spec, ctx, result);
    const auto mix = campaign.cache_totals();
    series.cache.replays += mix.replays;
    series.cache.repairs += mix.repairs;
    series.cache.rebuilds += mix.rebuilds;
    const auto epochs = campaign.epochs();
    series.ns.push_back(static_cast<double>(n));
    auto& samples = series.epochs.emplace_back();
    for (const auto& m : campaign.runs) {
      if (m.converged) samples.push_back(static_cast<double>(m.epochs));
    }
    series.all_converged &= samples.size() == campaign.runs.size();
    result.row() = {cell(algorithm),
                    cell(n),
                    cell(campaign.converged_count()),
                    cell(campaign.runs.size()),
                    cell(epochs.mean, 1),
                    cell(epochs.stddev, 1),
                    cell(epochs.min, 0),
                    cell(epochs.max, 0)};
  }
  return series;
}

/// Notes `s`'s growth verdict and returns the verdict of the claim that it
/// grows as `predicted`: kPass on that growth, kFail on the other one.
Verdict growth_claim(const std::string& label, const Series& s,
                     util::Growth predicted, ExperimentResult& result) {
  const auto v = util::growth_verdict(s.ns, s.epochs);
  const std::string ratio =
      v.ratio > 0.0
          ? strfmt("%.2f [95%% CI %.2f, %.2f]", v.ratio, v.lo, v.hi)
          : "not measured (needs 4 doubling sizes, >= 2 converged runs each)";
  result.notes.push_back(strfmt(
      "%-14s epochs ratio per doubling (last 3 doublings): %s -> %s",
      label.c_str(), ratio.c_str(),
      std::string(util::to_string(v.growth)).c_str()));
  if (v.growth == util::Growth::kUndecided) return Verdict::kUndecided;
  return pass_if(v.growth == predicted);
}

ExperimentResult run_time_vs_n(const ScenarioSpec& spec,
                               const ExperimentContext& ctx) {
  ExperimentResult result;
  result.experiment = "time-vs-n";
  result.title =
      "E1 (headline): epochs to Complete Visibility vs N, ASYNC scheduler, "
      "uniform adversary";
  result.columns = {"algorithm", "N",            "converged",  "runs",
                    "epochs(mean)", "epochs(sd)", "min",        "max"};

  const Series fast = run_series(spec.algorithm, spec.ns, spec, ctx, result);
  const Series slow =
      run_series("seq-baseline", spec.baseline_sizes(), spec, ctx, result);

  Verdict c2 = growth_claim(spec.algorithm, fast, util::Growth::kLogarithmic,
                            result);
  // Unconverged runs leave C2 unproven however the converged ones grow.
  if (c2 == Verdict::kPass && !fast.all_converged) c2 = Verdict::kUndecided;
  const Verdict c5 =
      growth_claim("seq-baseline", slow, util::Growth::kLinear, result);
  if (fast.cache.looks() > 0) {
    // The E7c evidence: how the incremental VisibilityCache served this
    // sweep's Looks (replay = untouched order, repair = write-log patch,
    // rebuild = full resort).
    result.notes.push_back(strfmt(
        "visibility-cache hit mix (%s series): replays=%llu repairs=%llu "
        "rebuilds=%llu (replay share %.1f%%)",
        spec.algorithm.c_str(),
        static_cast<unsigned long long>(fast.cache.replays),
        static_cast<unsigned long long>(fast.cache.repairs),
        static_cast<unsigned long long>(fast.cache.rebuilds),
        100.0 * static_cast<double>(fast.cache.replays) /
            static_cast<double>(fast.cache.looks())));
  }

  result.checks.push_back(
      {"claim C2 (" + spec.algorithm +
           " epochs grow logarithmically in N, every run converged)",
       c2});
  result.checks.push_back(
      {"claim C5 (seq-baseline epochs grow linearly in N)", c5});
  return result;
}

// ---------------------------------------------------------------------------
// E2 — claim C1: the algorithm solves Complete Visibility in ASYNC, across
// every configuration family, adversary, and (for the comparators) their
// home schedulers. Every row must read 100% converged / visible.

ExperimentResult run_convergence(const ScenarioSpec& spec,
                                 const ExperimentContext& ctx) {
  ExperimentResult result;
  result.experiment = "convergence";
  result.title = "E2: convergence matrix (claim C1)";
  result.columns = {"algorithm", "scheduler",      "adversary", "family",
                    "converged", "visible",        "collision-free",
                    "runs",      "epochs"};
  const std::size_t n = spec.ns.front();
  bool all_ok = true;

  const auto run_row = [&](const std::string& algorithm,
                           sim::SchedulerKind scheduler,
                           sched::AdversaryKind adversary,
                           gen::ConfigFamily family) {
    CampaignSpec campaign = spec.campaign(n);
    campaign.algorithm = algorithm;
    campaign.family = family;
    campaign.run.scheduler = scheduler;
    campaign.run.adversary = adversary;
    const auto r = run_checked(campaign, ctx, result);
    const bool ok = r.converged_count() == r.runs.size() &&
                    r.visibility_ok_count() == r.runs.size();
    all_ok = all_ok && ok;
    result.row() = {
        cell(algorithm),
        cell(to_string(scheduler)),
        cell(scheduler == sim::SchedulerKind::kAsync ? to_string(adversary) : "-"),
        cell(gen::to_string(family)),
        cell(r.converged_count()),
        cell(r.visibility_ok_count()),
        cell(r.collision_free_count()),
        cell(r.runs.size()),
        cell(r.epochs().mean, 1)};
  };

  // The paper's algorithm: full ASYNC matrix.
  for (const auto family : gen::all_families()) {
    for (const auto adversary :
         {sched::AdversaryKind::kUniform, sched::AdversaryKind::kBursty}) {
      run_row(spec.algorithm, sim::SchedulerKind::kAsync, adversary, family);
    }
  }
  // Hard adversaries on two representative families.
  for (const auto adversary :
       {sched::AdversaryKind::kStallOne, sched::AdversaryKind::kLockstep}) {
    run_row(spec.algorithm, sim::SchedulerKind::kAsync, adversary,
            gen::ConfigFamily::kUniformDisk);
    run_row(spec.algorithm, sim::SchedulerKind::kAsync, adversary,
            gen::ConfigFamily::kRingWithCore);
  }
  // async-log also works under the weaker schedulers.
  run_row(spec.algorithm, sim::SchedulerKind::kSsync,
          sched::AdversaryKind::kUniform, gen::ConfigFamily::kUniformDisk);
  run_row(spec.algorithm, sim::SchedulerKind::kFsync,
          sched::AdversaryKind::kUniform, gen::ConfigFamily::kUniformDisk);
  // Comparators on their home turf.
  for (const auto family :
       {gen::ConfigFamily::kUniformDisk, gen::ConfigFamily::kRingWithCore,
        gen::ConfigFamily::kCollinear}) {
    run_row("seq-baseline", sim::SchedulerKind::kAsync,
            sched::AdversaryKind::kUniform, family);
    run_row("ssync-parallel", sim::SchedulerKind::kFsync,
            sched::AdversaryKind::kUniform, family);
  }

  result.checks.push_back(
      {"claim C1 (every run converged with verified complete visibility)",
       pass_if(all_ok)});
  return result;
}

// ---------------------------------------------------------------------------
// E3 — claim C3: O(1) colors. The number of DISTINCT light colors displayed
// over an entire execution must not grow with N.

ExperimentResult run_colors(const ScenarioSpec& spec,
                            const ExperimentContext& ctx) {
  ExperimentResult result;
  result.experiment = "colors";
  result.title = "E3: distinct colors used per execution (claim C3)";
  result.columns = {"N", "family", "max colors used", "palette bound"};
  std::size_t overall_max = 0;
  bool bounded = true;
  for (const auto family :
       {gen::ConfigFamily::kUniformDisk, gen::ConfigFamily::kCollinear,
        gen::ConfigFamily::kRingWithCore}) {
    for (const std::size_t n : spec.ns) {
      CampaignSpec campaign = spec.campaign(n);
      campaign.family = family;
      const auto r = run_checked(campaign, ctx, result);
      const std::size_t used = r.max_colors();
      overall_max = std::max(overall_max, used);
      bounded = bounded && used <= model::kLightCount &&
                r.converged_count() == r.runs.size();
      result.row() = {cell(n), cell(gen::to_string(family)), cell(used),
                      cell(model::kLightCount)};
    }
  }
  result.notes.push_back(strfmt("max colors over all runs and sizes: %zu (palette: %zu)",
                                overall_max, model::kLightCount));
  result.checks.push_back({"claim C3 (color count constant in N)",
                           pass_if(bounded)});
  return result;
}

// ---------------------------------------------------------------------------
// E4 — claim C4: collision-freedom over the CONTINUOUS motion, plus the
// ablation that justifies the beacon handshake (same geometry WITHOUT the
// handshake degrades safety under ASYNC).

ExperimentResult run_collisions(const ScenarioSpec& spec,
                                const ExperimentContext& ctx) {
  ExperimentResult result;
  result.experiment = "collisions";
  result.title = "E4: continuous collision audit (claim C4) + handshake ablation";
  result.columns = {"algorithm",     "adversary",      "family", "runs",
                    "position-coll", "min separation", "phantom crossings"};
  const std::size_t n = spec.ns.front();

  bool guarded_clean = true;
  double guarded_min_sep = std::numeric_limits<double>::infinity();
  std::size_t ablation_incidents = 0;
  double ablation_min_sep = std::numeric_limits<double>::infinity();

  const auto run_row = [&](const std::string& algorithm,
                           sched::AdversaryKind adversary,
                           gen::ConfigFamily family) {
    CampaignSpec campaign = spec.campaign(n);
    campaign.algorithm = algorithm;
    campaign.family = family;
    campaign.run.adversary = adversary;
    campaign.audit_collisions = true;
    const auto r = run_checked(campaign, ctx, result);
    std::size_t collisions = 0, crossings = 0;
    double min_sep = std::numeric_limits<double>::infinity();
    for (const auto& m : r.runs) {
      collisions += m.position_collisions;
      crossings += m.path_crossings;
      min_sep = std::min(min_sep, m.min_observed_separation);
    }
    if (algorithm == spec.algorithm) {
      guarded_clean = guarded_clean && collisions == 0;
      guarded_min_sep = std::min(guarded_min_sep, min_sep);
    } else {
      ablation_incidents += collisions + crossings;
      ablation_min_sep = std::min(ablation_min_sep, min_sep);
    }
    result.row() = {cell(algorithm),
                    cell(to_string(adversary)),
                    cell(gen::to_string(family)),
                    cell(r.runs.size()),
                    cell(collisions),
                    cell(min_sep, 4),
                    cell(crossings)};
  };

  // Part 1: the guarded algorithm across adversaries and hard families.
  for (const auto adversary :
       {sched::AdversaryKind::kUniform, sched::AdversaryKind::kBursty,
        sched::AdversaryKind::kLockstep}) {
    run_row(spec.algorithm, adversary, gen::ConfigFamily::kUniformDisk);
  }
  run_row(spec.algorithm, sched::AdversaryKind::kUniform,
          gen::ConfigFamily::kGaussianBlob);
  run_row(spec.algorithm, sched::AdversaryKind::kUniform,
          gen::ConfigFamily::kDenseDiameter);
  run_row(spec.algorithm, sched::AdversaryKind::kUniform,
          gen::ConfigFamily::kCollinear);
  // Part 2: the ablation (no handshake) under the same ASYNC conditions.
  run_row("ssync-parallel", sched::AdversaryKind::kUniform,
          gen::ConfigFamily::kUniformDisk);
  run_row("ssync-parallel", sched::AdversaryKind::kLockstep,
          gen::ConfigFamily::kUniformDisk);

  const bool reproduced = guarded_clean && guarded_min_sep > 1e-9;
  result.notes.push_back(
      strfmt("async-log closest approach over all guarded rows: %.2e",
             guarded_min_sep));
  result.notes.push_back(
      strfmt("ablation (removing the handshake degrades safety under ASYNC): "
             "%s (%zu incidents, closest approach %.2e)",
             ablation_incidents > 0 ? "CONFIRMED" : "not observed",
             ablation_incidents, ablation_min_sep));
  result.checks.push_back(
      {"claim C4 (async-log: zero position collisions, closest approach > 0)",
       pass_if(reproduced)});
  return result;
}

// ---------------------------------------------------------------------------
// E5 — claim C6 (the supporting lemma family): beacon-directed insertion
// grows the hull corner count geometrically. For each run we record the
// corner census at every epoch boundary and report the epoch at which the
// count first reached each power of two.

ExperimentResult run_doubling(const ScenarioSpec& spec,
                              const ExperimentContext& ctx) {
  ExperimentResult result;
  result.experiment = "doubling";
  result.title =
      "E5: corner-count growth — epoch at which each corner-count threshold "
      "is first reached (claim C6)";
  result.columns = {"family", "N", "seed", "initial corners",
                    "corner-count trajectory (at each 2^k threshold: epoch)"};
  const auto algo = core::make_algorithm(spec.algorithm);
  bool geometric = true;
  std::size_t measured = 0;  // Runs with first-reach epochs for N/2 and N.

  for (const auto family :
       {gen::ConfigFamily::kGaussianBlob, gen::ConfigFamily::kUniformDisk}) {
    if (result.partial) break;
    for (const std::size_t n : spec.ns) {
      if (result.partial) break;
      for (std::size_t i = 0; i < spec.runs; ++i) {
        // E5 drives run_simulation directly (it needs the hull history, not
        // campaign aggregates), so the shard filter and the cooperative
        // stop run_campaign applies are applied here.
        if (i % spec.shard_count != spec.shard_index) continue;
        if (ctx.control.stop_requested()) {
          result.partial = true;
          break;
        }
        const std::uint64_t seed = spec.seed_base + i;
        const auto initial = gen::generate(family, n, seed, spec.min_separation);
        sim::RunConfig config = spec.run;
        config.seed = seed;
        config.record_moves = false;
        sim::HullHistoryRecorder recorder;
        sim::RunObserver* observers[] = {&recorder};
        const auto run = sim::run_simulation(*algo, initial, config, observers);
        const auto& history = recorder.samples();
        if (!run.converged || history.empty()) {
          geometric = false;
          continue;
        }
        // First epoch at which each power-of-two corner count is reached.
        std::map<std::size_t, std::size_t> first_reach;
        std::size_t running_max = 0;
        for (const auto& sample : history) {
          running_max = std::max(running_max, sample.corners);
          for (std::size_t threshold = 4; threshold <= n; threshold *= 2) {
            if (running_max >= threshold && !first_reach.count(threshold)) {
              first_reach[threshold] = sample.epoch;
            }
          }
          if (running_max >= n && !first_reach.count(n)) {
            first_reach[n] = sample.epoch;
          }
        }
        std::string trajectory;
        for (const auto& [threshold, epoch] : first_reach) {
          trajectory +=
              std::to_string(threshold) + "@" + std::to_string(epoch) + "  ";
        }
        result.row() = {cell(gen::to_string(family)), cell(n),
                        cell(static_cast<std::size_t>(seed)),
                        cell(history.front().corners), cell(trajectory)};
        // Geometric-growth check: the epochs to go from N/2 to N corners
        // must not exceed the epochs to reach N/2 corners by more than a
        // small factor (a linear schedule spends half the robots — and half
        // the time — in that last stretch).
        if (first_reach.count(n) && first_reach.count(n / 2) &&
            first_reach[n / 2] > 0) {
          const std::size_t last_stage = first_reach[n] - first_reach[n / 2];
          const std::size_t before = first_reach[n / 2];
          if (last_stage > 6 * before) geometric = false;
          ++measured;
        }
      }
    }
  }

  // N/2 is a threshold only when N is a power of two: a sweep of other
  // sizes measures no run and cannot tell.
  result.checks.push_back(
      {"claim C6 (corner count grows geometrically, not linearly)",
       geometric && measured == 0 ? Verdict::kUndecided : pass_if(geometric)});
  return result;
}

// ---------------------------------------------------------------------------
// E6 — the measured counterpart of the paper's algorithm-comparison table:
// the paper's contribution positioned against the known O(1)-time SSYNC
// algorithm and the O(N) ASYNC translation, with MEASURED values.

ExperimentResult run_summary(const ScenarioSpec& spec,
                             const ExperimentContext& ctx) {
  ExperimentResult result;
  result.experiment = "summary";
  const std::size_t n = spec.ns.front();
  result.title = strfmt(
      "E6: measured counterpart of the paper's comparison table (N = %zu, "
      "%zu seeds)",
      n, spec.runs);
  result.columns = {"setting",     "algorithm",  "claimed time", "epochs(mean)",
                    "epochs(p95)", "moves(mean)", "colors",       "all verified"};

  struct Row {
    const char* setting;
    const char* algorithm;
    const char* bound;
    sim::SchedulerKind scheduler;
  };
  const Row rows[] = {
      {"FSYNC", "ssync-parallel", "O(1) rounds/stage", sim::SchedulerKind::kFsync},
      {"SSYNC", "ssync-parallel", "O(1) rounds/stage", sim::SchedulerKind::kSsync},
      {"ASYNC", "seq-baseline", "O(N)", sim::SchedulerKind::kAsync},
      {"ASYNC", "async-log", "O(log N)  [this paper]", sim::SchedulerKind::kAsync},
  };

  double baseline_epochs = 0.0, asynclog_epochs = 0.0;
  for (const Row& row : rows) {
    CampaignSpec campaign = spec.campaign(n);
    campaign.algorithm = row.algorithm;
    campaign.run.scheduler = row.scheduler;
    // The comparators' collision behaviour is covered in E4; here we audit
    // only the paper's algorithm to stay within the serial time budget.
    campaign.audit_collisions = std::string_view(row.algorithm) == "async-log";
    const auto r = run_checked(campaign, ctx, result);
    const auto epochs = r.epochs();
    const bool verified = r.converged_count() == r.runs.size() &&
                          r.visibility_ok_count() == r.runs.size() &&
                          r.collision_free_count() == r.runs.size();
    if (std::string_view(row.algorithm) == "seq-baseline") {
      baseline_epochs = epochs.mean;
    }
    if (std::string_view(row.algorithm) == "async-log" &&
        row.scheduler == sim::SchedulerKind::kAsync) {
      asynclog_epochs = epochs.mean;
    }
    result.row() = {cell(row.setting),
                    cell(row.algorithm),
                    cell(row.bound),
                    cell(epochs.mean, 1),
                    cell(epochs.p95, 1),
                    cell(r.moves().mean, 1),
                    cell(r.max_colors()),
                    cell(verified ? "yes" : "NO")};
  }

  const double speedup = baseline_epochs / std::max(1.0, asynclog_epochs);
  result.notes.push_back(
      strfmt("async-log vs O(N)-translation speedup at N=%zu: %.1fx (paper "
             "predicts Theta(N/log N) ~= %.1fx)",
             n, speedup,
             static_cast<double>(n) / std::log2(static_cast<double>(n))));
  result.checks.push_back({"speedup over the O(N) translation > 1.5x",
                           pass_if(speedup > 1.5)});
  return result;
}

// ---------------------------------------------------------------------------
// E8 — ablations of the design choices DESIGN.md calls out: handshake OFF,
// frame refresh OFF, NON-RIGID movement.

struct AblationStats {
  double epochs = 0.0;
  double moves = 0.0;
  std::size_t collisions = 0;
  double min_sep = std::numeric_limits<double>::infinity();
  std::size_t converged = 0;
};

AblationStats aggregate(const CampaignResult& result) {
  AblationStats s;
  s.epochs = result.epochs().mean;
  s.moves = result.moves().mean;
  s.converged = result.converged_count();
  for (const auto& m : result.runs) {
    s.collisions += m.position_collisions;
    s.min_sep = std::min(s.min_sep, m.min_observed_separation);
  }
  return s;
}

ExperimentResult run_ablation(const ScenarioSpec& spec,
                              const ExperimentContext& ctx) {
  ExperimentResult result;
  result.experiment = "ablation";
  result.title = "E8: design-choice ablations (N fixed, ASYNC uniform)";
  result.columns = {"variant",       "converged",      "epochs(mean)",
                    "moves(mean)",   "position-coll",  "min separation"};
  const std::size_t n = spec.ns.front();

  CampaignSpec base = spec.campaign(n);
  base.audit_collisions = true;

  const auto add_row = [&](const char* label, const CampaignSpec& campaign) {
    const AblationStats s = aggregate(run_checked(campaign, ctx, result));
    result.row() = {cell(label),          cell(s.converged),
                    cell(s.epochs, 1),    cell(s.moves, 1),
                    cell(s.collisions),   cell(s.min_sep, 4)};
    return s;
  };

  const AblationStats reference = add_row("async-log (reference)", base);
  {
    CampaignSpec c = base;
    c.algorithm = "ssync-parallel";  // Handshake removed.
    add_row("no handshake (ablation)", c);
  }
  {
    CampaignSpec c = base;
    c.run.refresh_frames_each_look = false;
    add_row("fixed frames", c);
  }
  {
    CampaignSpec c = base;
    c.run.rigid_moves = false;
    add_row("non-rigid moves (ext.)", c);
  }

  result.notes.push_back(
      strfmt("reference async-log: %zu/%zu converged, %.1f epochs, zero "
             "position collisions expected.",
             reference.converged, spec.runs, reference.epochs));
  result.checks.push_back(
      {"reference converged everywhere with zero position collisions",
       pass_if(reference.converged == spec.runs &&
               reference.collisions == 0)});
  return result;
}

// ---------------------------------------------------------------------------
// E9 — crash tolerance: degradation under crash-stop faults. Crashed robots
// stop forever but keep obstructing, so the survivors must still reach a
// mutually-visible fixpoint around the dead bodies. Reports quiescence,
// final-configuration visibility (over ALL robots, dead included — the
// paper's postcondition) and epoch inflation relative to the fault-free
// baseline, per (N, f).

ExperimentResult run_crash_tolerance(const ScenarioSpec& spec,
                                     const ExperimentContext& ctx) {
  ExperimentResult result;
  result.experiment = "crash-tolerance";
  result.title =
      "E9: degradation under crash-stop faults — quiescence and epoch "
      "inflation vs crash budget f";
  result.columns = {"N",          "f",          "runs",
                    "quiescent",  "visible",    "budget-exh",
                    "crashes(mean)", "epochs(mean)", "epochs(max)",
                    "inflation"};
  const std::size_t fs[] = {0, 1, 2, 4, 8};
  bool fault_free_clean = true;

  for (const std::size_t n : spec.ns) {
    double baseline_epochs = 0.0;
    for (const std::size_t f : fs) {
      if (f >= n) continue;
      CampaignSpec campaign = spec.campaign(n);
      campaign.run.fault.crash.count = f;
      if (campaign.run.fault.crash.schedule == fault::CrashScheduleKind::kRate &&
          campaign.run.fault.crash.rate <= 0.0) {
        campaign.run.fault.crash.rate = 0.05;
      }
      const auto r = run_checked(campaign, ctx, result);
      const std::size_t quiescent = r.converged_count();
      const std::size_t visible = r.visibility_ok_count();
      const double crashes_mean =
          static_cast<double>(r.fault_totals().crashes) /
          static_cast<double>(std::max<std::size_t>(1, r.runs.size()));
      const double epochs_mean = r.epochs().mean;
      if (f == 0) {
        baseline_epochs = epochs_mean;
        fault_free_clean = fault_free_clean && quiescent == r.runs.size() &&
                           visible == r.runs.size();
      }
      result.row() = {
          cell(n),
          cell(f),
          cell(r.runs.size()),
          cell(quiescent),
          cell(visible),
          cell(r.outcome_count(sim::RunOutcome::kBudgetExhausted)),
          cell(crashes_mean, 2),
          cell(epochs_mean, 1),
          cell(r.max_epochs()),
          baseline_epochs > 0.0 ? cell(epochs_mean / baseline_epochs, 2)
                                : cell("-")};
    }
  }

  result.notes.push_back(
      "quiescent counts both converged and stalled-with-crashes runs; "
      "`visible` audits the FULL final configuration, so dead interior "
      "bodies count against it.");
  result.checks.push_back(
      {"fault-free rows (f=0) fully quiescent with complete visibility",
       pass_if(fault_free_clean)});
  return result;
}

// ---------------------------------------------------------------------------
// E10 — light corruption: safety under misread colors. A corrupted Look
// feeds the algorithm a wrong color for a visible robot, which can break
// the beacon handshake's mutual-exclusion argument — the experiment
// measures how quickly position collisions appear as the per-read
// corruption probability grows, with incidents attributed by the
// streaming collision monitor. The report notes keep calling it the
// SafetyMonitor, so their bytes stay unchanged.

ExperimentResult run_light_corruption(const ScenarioSpec& spec,
                                      const ExperimentContext& ctx) {
  ExperimentResult result;
  result.experiment = "light-corruption";
  result.title =
      "E10: safety under light-corruption faults — collisions vs per-read "
      "misread probability";
  result.columns = {"mode",      "p",        "runs",
                    "quiescent", "visible",  "position-coll",
                    "crossings", "min-sep(worst)", "corrupted-reads",
                    "blamed-light"};
  const std::size_t n = spec.ns.front();
  const double ps[] = {0.0, 0.01, 0.05, 0.1, 0.25, 0.5};
  bool fault_free_clean = true;

  for (const double p : ps) {
    CampaignSpec campaign = spec.campaign(n);
    campaign.audit_collisions = true;
    campaign.run.fault.light.probability = p;
    const auto r = run_checked(campaign, ctx, result);
    std::size_t collisions = 0, crossings = 0, blamed_light = 0;
    for (const auto& m : r.runs) {
      collisions += m.position_collisions;
      crossings += m.path_crossings;
      if (m.collision_channel == fault::FaultChannel::kLight) ++blamed_light;
    }
    if (p == 0.0) {
      fault_free_clean = r.converged_count() == r.runs.size() &&
                         r.visibility_ok_count() == r.runs.size() &&
                         collisions == 0;
    }
    result.row() = {cell(to_string(campaign.run.fault.light.mode)),
                    cell(p, 2),
                    cell(r.runs.size()),
                    cell(r.converged_count()),
                    cell(r.visibility_ok_count()),
                    cell(collisions),
                    cell(crossings),
                    r.runs.empty() ? cell("-")
                                   : cell(r.worst_min_separation(), 4),
                    cell(static_cast<std::size_t>(
                        r.fault_totals().corrupted_reads)),
                    cell(blamed_light)};
  }

  result.notes.push_back(
      "blamed-light counts runs whose collision incidents the SafetyMonitor "
      "attributes to the light channel (the only active channel here).");
  result.checks.push_back(
      {"fault-free row (p=0) converged, visible and collision-free",
       pass_if(fault_free_clean)});
  return result;
}

// ---------------------------------------------------------------------------
// E11 — sensor noise: convergence tolerance to Gaussian position error and
// observation dropout in the Look snapshot. The observed view is perturbed,
// the ground truth is not, so this measures how much sensing error the
// geometry tolerates before runs stop reaching a quiescent visible
// configuration.

ExperimentResult run_sensor_noise(const ScenarioSpec& spec,
                                  const ExperimentContext& ctx) {
  ExperimentResult result;
  result.experiment = "sensor-noise";
  result.title =
      "E11: convergence under sensor noise — quiescence vs Gaussian "
      "position-error sigma";
  result.columns = {"sigma",      "dropout", "runs",
                    "quiescent",  "visible", "budget-exh",
                    "perturbed(mean)", "epochs(mean)", "epochs(max)"};
  const std::size_t n = spec.ns.front();
  const double sigmas[] = {0.0, 1e-3, 3e-3, 0.01, 0.03, 0.1};
  bool fault_free_clean = true;
  double tolerated_sigma = 0.0;

  for (const double sigma : sigmas) {
    CampaignSpec campaign = spec.campaign(n);
    campaign.run.fault.noise.sigma = sigma;
    const auto r = run_checked(campaign, ctx, result);
    const std::size_t quiescent = r.converged_count();
    const std::size_t visible = r.visibility_ok_count();
    if (sigma == 0.0) {
      fault_free_clean =
          quiescent == r.runs.size() && visible == r.runs.size();
    }
    if (2 * quiescent >= r.runs.size() && sigma > tolerated_sigma) {
      tolerated_sigma = sigma;
    }
    result.row() = {
        cell(sigma, 4),
        cell(campaign.run.fault.noise.dropout, 2),
        cell(r.runs.size()),
        cell(quiescent),
        cell(visible),
        cell(r.outcome_count(sim::RunOutcome::kBudgetExhausted)),
        cell(static_cast<double>(r.fault_totals().perturbed_observations) /
                 static_cast<double>(std::max<std::size_t>(1, r.runs.size())),
             0),
        cell(r.epochs().mean, 1),
        cell(r.max_epochs())};
  }

  result.notes.push_back(strfmt(
      "largest swept sigma with >= 50%% quiescent runs: %g", tolerated_sigma));
  result.checks.push_back(
      {"noise-free row (sigma=0) fully quiescent with complete visibility",
       pass_if(fault_free_clean)});
  return result;
}

// ---------------------------------------------------------------------------
// E12 — cross-algorithm comparison: every registered algorithm through the
// plugin contract, on every scheduler, over identical seeds. Continuous
// algorithms run on the spec family; grid algorithms run on their native
// lattice family (same seeds within each family, so rows are comparable).
// Success is each algorithm's DECLARED predicate, so the paper algorithms
// are held to complete visibility and the related-work plugins to mutual
// visibility — the contract makes the benchmark honest per algorithm.

ExperimentResult run_cross_algorithm(const ScenarioSpec& spec,
                                     const ExperimentContext& ctx) {
  ExperimentResult result;
  result.experiment = "cross-algorithm";
  result.title =
      "E12: cross-algorithm comparison — all registered algorithms x "
      "schedulers, identical seeds, declared success predicates";
  result.columns = {"algorithm",    "motion",      "predicate", "scheduler",
                    "N",            "converged",   "success",   "clean",
                    "min-sep",      "epochs(mean)", "epochs(max)", "colors"};
  const std::size_t n = spec.ns.empty() ? 16 : spec.ns.front();

  bool paper_ok = true;       // async-log: converged + complete visibility.
  bool plugins_ok = true;     // grid-cv / mutual-vis: declared predicate.
  bool plugins_clean = true;  // grid-cv / mutual-vis: no position collision.
  for (const auto& info : core::algorithm_infos()) {
    for (const auto sched :
         {sim::SchedulerKind::kFsync, sim::SchedulerKind::kSsync,
          sim::SchedulerKind::kAsync}) {
      if (ctx.control.stop_requested()) {
        result.partial = true;
        break;
      }
      CampaignSpec campaign = spec.campaign(n);
      campaign.algorithm = std::string(info.name);
      campaign.run.scheduler = sched;
      campaign.audit_collisions = true;
      if (info.motion_model == model::MotionModel::kGrid) {
        campaign.family = gen::ConfigFamily::kLattice;
      }
      const auto r = run_checked(campaign, ctx, result);
      double min_sep = std::numeric_limits<double>::infinity();
      std::size_t collisions = 0;
      for (const auto& m : r.runs) {
        min_sep = std::min(min_sep, m.min_observed_separation);
        collisions += m.position_collisions;
      }
      const auto epochs = r.epochs();
      result.row() = {cell(info.name),
                      cell(model::to_string(info.motion_model)),
                      cell(info.success_predicate),
                      cell(sim::to_string(sched)),
                      cell(n),
                      cell(strfmt("%zu/%zu", r.converged_count(),
                                  r.runs.size())),
                      cell(strfmt("%zu/%zu", r.visibility_ok_count(),
                                  r.runs.size())),
                      cell(strfmt("%zu/%zu", r.collision_free_count(),
                                  r.runs.size())),
                      cell(std::isfinite(min_sep) ? min_sep : 0.0, 4),
                      cell(epochs.mean, 1),
                      cell(epochs.max, 0),
                      cell(r.max_colors())};
      const bool all_converged_succeed =
          r.converged_count() == r.runs.size() &&
          r.visibility_ok_count() == r.runs.size();
      if (info.name == "async-log") {
        paper_ok = paper_ok && all_converged_succeed;
      } else if (info.name == "grid-cv" || info.name == "mutual-vis") {
        plugins_ok = plugins_ok && all_converged_succeed;
        plugins_clean = plugins_clean && collisions == 0;
      }
    }
    if (result.partial) break;
  }
  result.notes.push_back(
      "grid algorithms run on their native lattice family (identical seeds "
      "within each family); ssync-parallel under ASYNC is the known unsafe "
      "ablation and is reported, not checked");
  result.checks.push_back(
      {"async-log converges to complete visibility on every run under all "
       "three schedulers",
       pass_if(paper_ok)});
  result.checks.push_back(
      {"grid-cv and mutual-vis converge to their declared predicates on "
       "every run under all three schedulers",
       pass_if(plugins_ok)});
  result.checks.push_back(
      {"grid-cv and mutual-vis are position-collision-free on every audited "
       "run",
       pass_if(plugins_clean)});
  return result;
}

// ---------------------------------------------------------------------------

ScenarioSpec make_defaults(std::vector<std::size_t> ns, std::size_t runs,
                           bool audit) {
  ScenarioSpec spec;
  spec.ns = std::move(ns);
  spec.runs = runs;
  spec.audit_collisions = audit;
  return spec;
}

}  // namespace

ExperimentRegistry& ExperimentRegistry::mutable_instance() {
  static ExperimentRegistry registry;
  return registry;
}

const ExperimentRegistry& ExperimentRegistry::instance() {
  return mutable_instance();
}

void ExperimentRegistry::register_external(Experiment experiment) {
  ExperimentRegistry& registry = mutable_instance();
  if (registry.find(experiment.id) != nullptr ||
      registry.find(experiment.name) != nullptr) {
    return;
  }
  registry.experiments_.push_back(std::move(experiment));
}

const Experiment* ExperimentRegistry::find(std::string_view name_or_id) const noexcept {
  for (const auto& e : experiments_) {
    if (e.name == name_or_id || e.id == name_or_id) return &e;
  }
  return nullptr;
}

ExperimentRegistry::ExperimentRegistry() {
  {
    Experiment e;
    e.name = "time-vs-n";
    e.id = "E1";
    e.description =
        "Headline scaling figure (claims C2 + C5): epochs to Complete "
        "Visibility vs N for the spec algorithm (default async-log, over "
        "`ns`) against the O(N) seq-baseline (over `baseline_ns`), each "
        "read by its epochs ratio per doubling and a bootstrap interval over "
        "seeds: logarithmic, linear or undecided (also below three "
        "doublings). Collision audit is off by default (E4 owns it).";
    e.defaults = make_defaults({8, 16, 32, 64, 128, 256, 512}, 5, false);
    e.defaults.baseline_ns = {8, 16, 32, 64, 128, 256};
    e.run = run_time_vs_n;
    experiments_.push_back(std::move(e));
  }
  {
    Experiment e;
    e.name = "convergence";
    e.id = "E2";
    e.description =
        "Convergence matrix (claim C1): every configuration family x "
        "{uniform, bursty} adversaries, plus stall-one/lockstep, plus SSYNC "
        "and FSYNC schedulers, plus the comparators on their home "
        "schedulers. Uses the first entry of `ns` as the per-run N; the "
        "matrix itself is fixed.";
    e.defaults = make_defaults({24}, 3, true);
    e.run = run_convergence;
    experiments_.push_back(std::move(e));
  }
  {
    Experiment e;
    e.name = "colors";
    e.id = "E3";
    e.description =
        "O(1) colors (claim C3): max distinct light colors displayed over "
        "entire executions, swept over `ns` on three families; must stay "
        "bounded by the palette independent of N.";
    e.defaults = make_defaults({4, 8, 16, 32, 64, 128, 256}, 5, false);
    e.run = run_colors;
    experiments_.push_back(std::move(e));
  }
  {
    Experiment e;
    e.name = "collisions";
    e.id = "E4";
    e.description =
        "Continuous collision audit (claim C4) + handshake ablation: "
        "closed-form closest approach between all trajectory pairs for the "
        "guarded algorithm across adversaries and hard families, and the "
        "same geometry WITHOUT the handshake. Uses the first entry of `ns`.";
    e.defaults = make_defaults({96}, 6, true);
    e.run = run_collisions;
    experiments_.push_back(std::move(e));
  }
  {
    Experiment e;
    e.name = "doubling";
    e.id = "E5";
    e.description =
        "Doubling schedule (claim C6): per-run hull corner census at every "
        "epoch boundary; the epoch at which each power-of-two corner count "
        "is first reached must grow geometrically, not linearly. Swept over "
        "`ns`.";
    e.defaults = make_defaults({64, 128, 256}, 3, false);
    e.run = run_doubling;
    experiments_.push_back(std::move(e));
  }
  {
    Experiment e;
    e.name = "summary";
    e.id = "E6";
    e.description =
        "Measured counterpart of the paper's comparison table: "
        "ssync-parallel under FSYNC/SSYNC, seq-baseline and async-log under "
        "ASYNC, with epochs/moves/colors and the speedup over the O(N) "
        "translation. Uses the first entry of `ns`.";
    e.defaults = make_defaults({64}, 5, true);
    e.run = run_summary;
    experiments_.push_back(std::move(e));
  }
  {
    Experiment e;
    e.name = "ablation";
    e.id = "E8";
    e.description =
        "Design-choice ablations at fixed N (first entry of `ns`): "
        "handshake removed, frame refresh off, NON-RIGID movement; reports "
        "what each mechanism costs in epochs/moves/safety.";
    e.defaults = make_defaults({96}, 5, true);
    e.run = run_ablation;
    experiments_.push_back(std::move(e));
  }
  {
    Experiment e;
    e.name = "crash-tolerance";
    e.id = "E9";
    e.description =
        "Crash-stop degradation: up to f robots die at cycle boundaries "
        "(rate-parameterized unless the spec's fault plan sets a times "
        "schedule) but keep obstructing; sweeps f in {0,1,2,4,8} over `ns` "
        "and reports quiescence, full-configuration visibility and epoch "
        "inflation vs the f=0 baseline. Collision audit off (E10 owns "
        "safety).";
    e.defaults = make_defaults({16, 64, 256}, 5, false);
    e.defaults.run.max_cycles_per_robot = 256;
    e.run = run_crash_tolerance;
    experiments_.push_back(std::move(e));
  }
  {
    Experiment e;
    e.name = "light-corruption";
    e.id = "E10";
    e.description =
        "Light-corruption safety: each color read independently misreads "
        "with probability p (mode from the spec's fault plan; default "
        "random); sweeps p in {0,0.01,0.05,0.1,0.25,0.5} at the first entry "
        "of `ns` with the continuous collision audit on, attributing "
        "incidents via the SafetyMonitor.";
    e.defaults = make_defaults({24}, 6, true);
    e.defaults.run.max_cycles_per_robot = 512;
    e.run = run_light_corruption;
    experiments_.push_back(std::move(e));
  }
  {
    Experiment e;
    e.name = "sensor-noise";
    e.id = "E11";
    e.description =
        "Sensor-noise tolerance: observed positions are perturbed by "
        "Gaussian noise of standard deviation sigma (dropout from the "
        "spec's fault plan; default 0); sweeps sigma in "
        "{0,1e-3,3e-3,0.01,0.03,0.1} at the first entry of `ns` and reports "
        "the largest sigma that still yields >= 50% quiescent runs.";
    e.defaults = make_defaults({24}, 6, false);
    e.defaults.run.max_cycles_per_robot = 512;
    e.run = run_sensor_noise;
    experiments_.push_back(std::move(e));
  }
  {
    Experiment e;
    e.name = "cross-algorithm";
    e.id = "E12";
    e.description =
        "Cross-algorithm comparison through the plugin contract: every "
        "registered algorithm (async-log, seq-baseline, ssync-parallel, "
        "grid-cv, mutual-vis) under FSYNC/SSYNC/ASYNC on identical seeds, "
        "reporting convergence, declared-predicate success, collision "
        "margin, epochs and colors. Grid-motion algorithms run on the "
        "lattice family. Uses the first entry of `ns`.";
    e.defaults = make_defaults({16}, 5, true);
    e.run = run_cross_algorithm;
    experiments_.push_back(std::move(e));
  }
}

}  // namespace lumen::analysis
