// lumen-bench: the single driver for every paper-reproduction experiment.
//
//   lumen-bench list [--names-only]
//   lumen-bench describe <experiment>
//   lumen-bench run <experiment|all> [flags]
//   lumen-bench hunt [flags]
//
// Each experiment (E1–E6, E8–E13) lives in the analysis::ExperimentRegistry;
// this binary only resolves the spec (defaults -> --spec file -> flag
// overrides), runs it, and hands the structured result to write_report.
// E7 (microbenchmarks) stays in the separate bench_micro binary because
// google-benchmark owns its harness. `hunt` drives the adversarial search
// subsystem (src/search): it optimizes an AdversaryPlan against a chosen
// fitness, delta-debugs the winner, and can emit the minimized plan as a
// committable regression scenario (scenarios/adversarial/).
//
// Exit codes: 0 no claim check failed, 1 a claim check failed, 2 usage/spec
// error, 3 interrupted (SIGINT/SIGTERM drained gracefully — in-flight cells
// finished, journal and partial report flushed).

#include "analysis/experiments.hpp"
#include "analysis/journal.hpp"
#include "analysis/reporter.hpp"
#include "core/registry.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/worker.hpp"
#include "geom/simd.hpp"
#include "search/experiment.hpp"
#include "search/scenario_io.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace {

using namespace lumen;

// Graceful shutdown: the handlers only set this flag; open_plumbing threads
// it into every campaign as the cooperative stop (cells in flight drain, the
// journal and a partial report are still written) and the command exits
// with code 3.
std::atomic<bool> g_stop{false};

void request_stop(int /*signal*/) { g_stop.store(true); }

// Resolved in main(): how the fabric coordinator re-invokes this binary as
// `lumen-bench work` subprocesses.
std::string g_self_exe = "lumen-bench";

std::string self_executable(const char* argv0) {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec && !exe.empty()) return exe.string();
  return argv0 != nullptr ? argv0 : "lumen-bench";
}

// The resilience plumbing `run` and `hunt` share: the --out report stream,
// the --resume snapshot, the checkpoint journal (--resume appends to the
// file it resumes from unless --journal overrides) and the signal-driven
// cooperative stop. Pinned in place: `control` points into it.
struct Plumbing {
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  analysis::JournalSnapshot resume_snapshot;
  std::unique_ptr<analysis::CampaignJournal> journal;
  analysis::CampaignControl control;

  Plumbing() = default;
  Plumbing(const Plumbing&) = delete;
  Plumbing& operator=(const Plumbing&) = delete;
};

/// Opens `p` from the parsed --out/--journal/--resume flags and installs
/// the SIGINT/SIGTERM handlers. On a usage error prints it and returns
/// false (exit code 2).
bool open_plumbing(const util::Cli& cli, Plumbing& p) {
  if (cli.is_set("out")) {
    p.out_file.open(cli.get("out"));
    if (!p.out_file) {
      std::cerr << "error: cannot open --out file " << cli.get("out") << "\n";
      return false;
    }
    p.out = &p.out_file;
  }
  if (cli.is_set("resume")) {
    auto loaded = analysis::load_journal(cli.get("resume"));
    if (!loaded.snapshot) {
      std::cerr << "error: --resume: " << loaded.error << "\n";
      return false;
    }
    p.resume_snapshot = std::move(*loaded.snapshot);
    p.control.resume = &p.resume_snapshot;
    std::cerr << "resume: " << p.resume_snapshot.cell_count()
              << " journaled cell(s) loaded from " << cli.get("resume");
    if (loaded.dropped_partial_lines > 0) {
      std::cerr << " (dropped a torn final record)";
    }
    std::cerr << "\n";
  }
  const std::string journal_path = cli.is_set("journal") ? cli.get("journal")
                                   : cli.is_set("resume") ? cli.get("resume")
                                                          : std::string();
  if (!journal_path.empty()) {
    p.journal = std::make_unique<analysis::CampaignJournal>(journal_path);
    if (!p.journal->ok()) {
      std::cerr << "error: cannot open --journal file " << journal_path << "\n";
      return false;
    }
    p.control.journal = p.journal.get();
  }
  p.control.stop = &g_stop;
  std::signal(SIGINT, request_stop);
  std::signal(SIGTERM, request_stop);
  return true;
}

int usage(std::ostream& os, int code) {
  os << "usage: lumen-bench <command> [args]\n"
        "\n"
        "commands:\n"
        "  list [--names-only]      list registered experiments\n"
        "  describe <experiment>    description + default spec JSON\n"
        "  run <experiment|all>     run one experiment (or every one)\n"
        "  hunt                     adversarial search for worst-case plans\n"
        "  work <lease.json|->      execute one fabric lease (spawned by\n"
        "                           run --workers; \"-\" reads stdin)\n"
        "\n"
        "`lumen-bench run --help` and `lumen-bench hunt --help` list each\n"
        "command's flags. --smoke and --names-only are switches; every other\n"
        "flag takes a value, as --name=value or --name value. Names match\n"
        "in any case. A missing value, a malformed switch or number, an\n"
        "unknown name or a stray argument exits 2.\n"
        "\n"
        "exit codes: 0 no claim check failed, 1 a claim check failed (hunt:\n"
        "some fitness had no successful evaluation), 2 usage/spec error,\n"
        "3 interrupted.\n"
        "\n"
        "SIGINT/SIGTERM drain in-flight cells (and, under --workers, the\n"
        "worker fleet), flush the journal and the partial report, and exit\n"
        "with code 3 — for `run` and `hunt` alike, whichever signal it was;\n"
        "re-run with --resume to pick up where the interrupted run left\n"
        "off.\n";
  return code;
}

int cmd_list(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("names-only", "print experiment names only, one a line", "false");
  if (const auto code = cli.parse_command(argc, argv, "lumen-bench list",
                                          "list registered experiments")) {
    return *code;
  }
  const bool names_only = cli.get_bool("names-only");
  for (const auto& e : analysis::ExperimentRegistry::instance().experiments()) {
    if (names_only) {
      std::cout << e.name << "\n";
    } else {
      std::printf("%-4s %-12s %s\n", e.id.c_str(), e.name.c_str(),
                  e.description.substr(0, e.description.find(':')).c_str());
    }
  }
  // --names-only stays experiments-only: CI's smoke loop feeds each printed
  // name back into `lumen-bench run`.
  if (!names_only) {
    std::printf("\nalgorithms (plugin contract — pass via --algorithm):\n");
    for (const auto& a : core::algorithm_infos()) {
      std::printf("  %-15s motion=%-10s palette=%zu predicate=%s\n",
                  std::string(a.name).c_str(),
                  std::string(model::to_string(a.motion_model)).c_str(),
                  a.palette_size, std::string(a.success_predicate).c_str());
    }
  }
  return 0;
}

int cmd_describe(int argc, const char* const* argv) {
  util::Cli cli;
  if (const auto code = cli.parse_command(argc, argv, "lumen-bench describe <name>",
                                          "description + default spec JSON", 1)) {
    return *code;
  }
  if (cli.positional().empty()) {
    std::cerr << "error: describe needs an experiment or algorithm name\n";
    return 2;
  }
  const std::string& name = cli.positional()[0];
  // Numbers read off this host depend on which batch-kernel ISA the
  // geometry layer dispatched to for this CPU; say so up front.
  std::cout << "simd dispatch: "
            << geom::simd::to_string(geom::simd::active_level()) << "\n\n";
  const auto* e = analysis::ExperimentRegistry::instance().find(name);
  if (e != nullptr) {
    std::cout << e->id << " " << e->name << "\n\n"
              << e->description << "\n\ndefault spec:\n"
              << analysis::scenario_to_json(e->defaults);
    return 0;
  }
  // Not an experiment — maybe a registered algorithm plugin.
  for (const auto& a : core::algorithm_infos()) {
    if (a.name != name) continue;
    std::cout << "algorithm " << a.name << "\n"
              << "  motion model:      " << model::to_string(a.motion_model)
              << "\n"
              << "  palette size:      " << a.palette_size << "\n"
              << "  success predicate: " << a.success_predicate << "\n";
    return 0;
  }
  std::cerr << "error: unknown experiment or algorithm \"" << name
            << "\" (try `lumen-bench list`)\n";
  return 2;
}

/// Shrinks a spec so every experiment finishes in seconds: at most two
/// sweep sizes, each clamped to <= 16 robots and run once (the first of two
/// equal sizes is kept), at most two seeds.
analysis::ScenarioSpec smoke_spec(analysis::ScenarioSpec spec) {
  const auto shrink = [](std::vector<std::size_t>& ns) {
    if (ns.size() > 2) ns.resize(2);
    for (auto& n : ns) n = std::min<std::size_t>(n, 16);
    if (ns.size() == 2 && ns[0] == ns[1]) ns.pop_back();
  };
  shrink(spec.ns);
  if (!spec.baseline_ns.empty()) shrink(spec.baseline_ns);
  spec.runs = std::min<std::size_t>(spec.runs, 2);
  return spec;
}

/// Applies `run`'s flag overrides to `spec`; returns the first problem, or
/// "". Flags are checked for form only: the range rules are
/// validate_scenario's, applied to the resolved spec.
std::string apply_overrides(util::Cli& cli, analysis::ScenarioSpec& spec) {
  if (!(cli.read("ns", spec.ns) && cli.read("baseline-ns", spec.baseline_ns) &&
        cli.read("runs", spec.runs) && cli.read("seed-base", spec.seed_base) &&
        cli.read("algorithm", spec.algorithm) &&
        cli.read("family", spec.family, gen::family_from_string) &&
        cli.read("deadline-ms", spec.run.deadline_ms) &&
        cli.read("max-attempts", spec.max_attempts) &&
        cli.read("retry-backoff-ms", spec.retry_backoff_ms))) {
    return cli.error();
  }
  std::vector<std::size_t> shard;
  if (!cli.read("shard", shard, '/') || (cli.is_set("shard") && shard.size() != 2)) {
    return "--shard must be I/K with non-negative integers I and K";
  }
  if (!shard.empty()) {
    spec.shard_index = shard[0];
    spec.shard_count = shard[1];
  }
  return "";
}

int cmd_run(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("spec", "ScenarioSpec JSON file overriding the defaults");
  cli.flag("ns", "sweep sizes, e.g. 8,16,32");
  cli.flag("baseline-ns", "comparator sweep sizes (E1)");
  cli.flag("runs", "seeds per point");
  cli.flag("seed-base", "run i uses seed seed-base + i");
  cli.flag("algorithm", "algorithm under test");
  cli.flag("family", "default configuration family");
  cli.flag("shard", "I/K seed-range shard");
  cli.flag("format", "pretty|csv|json", "pretty");
  cli.flag("out", "write the report to this file instead of stdout");
  cli.flag("save-spec", "write the resolved spec JSON to this file");
  cli.flag("smoke", "tiny sanity run; too-short sweeps read UNDECIDED", "false");
  cli.flag("journal", "append a durable record per finished campaign cell");
  cli.flag("resume", "skip cells journaled in this file; implies --journal");
  cli.flag("deadline-ms", "per-run wall-clock watchdog, 0 = off");
  cli.flag("max-attempts", "retries per hung/throwing cell");
  cli.flag("retry-backoff-ms", "base backoff between a cell's attempts");
  cli.flag("workers", "fabric worker subprocesses (0 = in-process)", "0");
  cli.flag("fabric-dir", "lease/shard-journal directory", ".lumen-fabric");
  cli.flag("lease-ttl-ms", "reclaim a worker silent this long", "5000");
  cli.flag("chaos-kill", "P(SIGKILL a worker after each cell), 0 = off", "0");
  cli.flag("chaos-seed", "deterministic chaos stream seed", "0");

  if (const auto code = cli.parse_command(argc, argv, "lumen-bench run <experiment|all>",
                                          "run one experiment (or every one)",
                                          SIZE_MAX)) {
    return *code;
  }
  if (cli.positional().empty()) {
    std::cerr << "error: run needs an experiment name (or `all`)\n";
    return 2;
  }

  const auto& registry = analysis::ExperimentRegistry::instance();
  std::vector<const analysis::Experiment*> selected;
  if (cli.positional()[0] == "all") {
    for (const auto& e : registry.experiments()) selected.push_back(&e);
  } else {
    for (const auto& name : cli.positional()) {
      const auto* e = registry.find(name);
      if (e == nullptr) {
        std::cerr << "error: unknown experiment \"" << name
                  << "\" (try `lumen-bench list`)\n";
        return 2;
      }
      selected.push_back(e);
    }
  }

  analysis::ReportFormat format{};
  fabric::FabricConfig fabric_config;
  if (!(cli.read("format", format, analysis::report_format_from_string) &&
        cli.read("workers", fabric_config.workers) &&
        cli.read("fabric-dir", fabric_config.dir) &&
        cli.read("lease-ttl-ms", fabric_config.lease_ttl_ms) &&
        cli.read("chaos-kill", fabric_config.chaos_kill_rate) &&
        cli.read("chaos-seed", fabric_config.chaos_seed))) {
    std::cerr << "error: " << cli.error() << "\n";
    return 2;
  }
  // The fabric has no validator of its own; this is the rule's one home.
  if (!(fabric_config.chaos_kill_rate >= 0.0 && fabric_config.chaos_kill_rate <= 1.0)) {
    std::cerr << "error: --chaos-kill must be in [0, 1]\n";
    return 2;
  }

  Plumbing io;
  if (!open_plumbing(cli, io)) return 2;
  std::ostream& out = *io.out;
  analysis::ExperimentContext ctx;
  ctx.control = io.control;

  // --workers: reroute every campaign through the multi-process fabric.
  // The coordinator honors the same journal/resume/stop control, and its
  // report is byte-identical to the in-process run by construction
  // (DESIGN.md §17), so nothing downstream changes.
  if (fabric_config.workers > 0) {
    fabric_config.worker_argv = {g_self_exe, "work"};
    if (io.journal != nullptr) {
      fabric_config.resume_paths.push_back(io.journal->path());
    }
    fabric_config.log = [](std::string_view line) {
      std::cerr << line << "\n";
    };
    ctx.runner = [&ctx, fabric_config](const analysis::CampaignSpec& spec) {
      // One subdirectory per campaign key: tokens restart per coordinator
      // run, so distinct campaigns must never share shard-journal paths —
      // while re-running the SAME campaign deliberately lands on its old
      // shard journals and resumes from them.
      fabric::FabricConfig config = fabric_config;
      config.dir += "/";
      config.dir += analysis::campaign_key(spec);
      return fabric::run_fabric_campaign(spec, config, ctx.control).result;
    };
  }

  bool all_passed = true;
  bool interrupted = false;
  bool first = true;
  for (const auto* experiment : selected) {
    analysis::ScenarioSpec spec = experiment->defaults;
    if (cli.is_set("spec")) {
      auto parsed = analysis::load_scenario(cli.get("spec"));
      if (!parsed.spec) {
        std::cerr << "error: --spec: " << parsed.error << "\n";
        return 2;
      }
      spec = *parsed.spec;
    }
    std::string problem = apply_overrides(cli, spec);
    if (problem.empty()) {
      if (cli.get_bool("smoke")) spec = smoke_spec(spec);
      problem = analysis::validate_scenario(spec);
    }
    if (!problem.empty()) {
      std::cerr << "error: " << problem << "\n";
      return 2;
    }
    if (cli.is_set("save-spec") &&
        !analysis::save_scenario(spec, cli.get("save-spec"))) {
      std::cerr << "error: cannot write --save-spec file "
                << cli.get("save-spec") << "\n";
      return 2;
    }

    const auto result = experiment->run(spec, ctx);
    if (!first) out << "\n";
    first = false;
    analysis::write_report(result, format, out);
    out.flush();
    all_passed = all_passed && result.passed();
    if (g_stop.load()) {
      interrupted = true;
      break;
    }
  }
  if (interrupted) {
    std::cerr << "interrupted: in-flight cells drained"
              << (io.journal != nullptr ? ", journal flushed" : "")
              << "; partial report written. Re-run with --resume="
              << (io.journal != nullptr ? io.journal->path() : "<journal>")
              << " to continue.\n";
    return 3;
  }
  return all_passed ? 0 : 1;
}

// `hunt`: drive the adversarial search subsystem directly. One hunt per
// requested fitness (default: all three), sharing the same hunt seed; each
// prints its trajectory digest (the cross-pool-size determinism witness)
// and optionally emits its minimized winner as a regression scenario.
int cmd_hunt(int argc, const char* const* argv) {
  search::HuntSpec base;
  util::Cli cli;
  cli.flag("fitness", "epochs|min-separation|outcome|all", "all");
  cli.flag("algorithm", "algorithm under attack", base.algorithm);
  cli.flag("family", "initial-configuration family");
  cli.flag("scheduler", "seed plan scheduler (fsync|ssync|async)");
  cli.flag("adversary", "seed plan timing adversary");
  cli.flag("activation", "seed plan activation policy");
  cli.flag("n", "pin the swarm size (sets both n-min and n-max)");
  cli.flag("n-min", "smallest swarm size the hunt may try");
  cli.flag("n-max", "largest swarm size the hunt may try");
  cli.flag("seed", "hunt seed; the whole trajectory is a function of it",
           std::to_string(base.hunt_seed));
  cli.flag("budget", "search-loop evaluation budget", std::to_string(base.budget));
  cli.flag("population", "mu: survivors per generation",
           std::to_string(base.population));
  cli.flag("offspring", "lambda: children per generation",
           std::to_string(base.offspring));
  cli.flag("max-cycles", "per-robot cycle budget per evaluation",
           std::to_string(base.max_cycles_per_robot));
  cli.flag("minimize-budget", "shrinking-minimizer evaluation budget",
           std::to_string(base.minimize_budget));
  cli.flag("emit-dir", "write each minimized winner as a scenario JSON here");
  cli.flag("journal", "append a durable record per finished evaluation");
  cli.flag("resume", "skip evaluations journaled here; implies --journal");
  cli.flag("out", "write the summary to this file instead of stdout");
  cli.flag("smoke", "shrink budgets to a seconds-long sanity hunt", "false");
  if (const auto code = cli.parse_command(argc, argv, "lumen-bench hunt",
                                          "adversarial search for worst-case plans")) {
    return *code;
  }

  const auto fitness_kinds =
      [](std::string_view name) -> std::optional<std::vector<search::FitnessKind>> {
    if (util::iequals(name, "all")) {
      const auto all = search::all_fitness_kinds();
      return std::vector(all.begin(), all.end());
    }
    if (const auto kind = search::fitness_from_string(name)) {
      return std::vector{*kind};
    }
    return std::nullopt;
  };
  std::vector<search::FitnessKind> kinds;
  // --n pins both bounds; --n-min and --n-max, read after it, override one.
  if (!(cli.read("fitness", kinds, fitness_kinds) &&
        cli.read("algorithm", base.algorithm) &&
        cli.read("family", base.family, gen::family_from_string) &&
        cli.read("scheduler", base.seed_plan.scheduler, sim::scheduler_from_string) &&
        cli.read("adversary", base.seed_plan.adversary, sched::adversary_from_string) &&
        cli.read("activation", base.seed_plan.activation,
                 sched::activation_from_string) &&
        cli.read("n", base.bounds.n_min) && cli.read("n", base.bounds.n_max) &&
        cli.read("n-min", base.bounds.n_min) && cli.read("n-max", base.bounds.n_max) &&
        cli.read("seed", base.hunt_seed) && cli.read("budget", base.budget) &&
        cli.read("population", base.population) &&
        cli.read("offspring", base.offspring) &&
        cli.read("max-cycles", base.max_cycles_per_robot) &&
        cli.read("minimize-budget", base.minimize_budget))) {
    std::cerr << "error: " << cli.error() << "\n";
    return 2;
  }
  base.seed_plan.seed = base.hunt_seed;
  // Validated before clamping (std::clamp needs n_min <= n_max); the
  // --smoke shrink below keeps a valid spec valid.
  if (const std::string invalid = search::validate_hunt_spec(base);
      !invalid.empty()) {
    std::cerr << "error: invalid hunt spec: " << invalid << "\n";
    return 2;
  }
  base.seed_plan.n = std::clamp(base.seed_plan.n, base.bounds.n_min,
                                base.bounds.n_max);

  if (cli.get_bool("smoke")) {
    // The same philosophy as run --smoke: seconds, not minutes. Budgets
    // shrink but nothing else changes, so the smoke hunt still exercises
    // the full propose/evaluate/minimize/emit path.
    base.budget = std::min<std::size_t>(base.budget, 8);
    base.minimize_budget = std::min<std::size_t>(base.minimize_budget, 4);
    base.population = std::min<std::size_t>(base.population, 3);
    base.offspring = std::min<std::size_t>(base.offspring, 4);
    base.bounds.n_max = std::min<std::size_t>(base.bounds.n_max, 12);
    base.bounds.n_min = std::min(base.bounds.n_min, base.bounds.n_max);
    base.seed_plan.n = std::clamp(base.seed_plan.n, base.bounds.n_min,
                                  base.bounds.n_max);
    base.max_cycles_per_robot =
        std::min<std::size_t>(base.max_cycles_per_robot, 128);
  }

  // Every hunt evaluation is a journalable campaign cell, so
  // --journal/--resume work exactly as for `run`.
  Plumbing io;
  if (!open_plumbing(cli, io)) return 2;
  std::ostream& out = *io.out;

  if (cli.is_set("emit-dir")) {
    std::error_code ec;
    std::filesystem::create_directories(cli.get("emit-dir"), ec);
    if (ec) {
      std::cerr << "error: cannot create --emit-dir " << cli.get("emit-dir")
                << ": " << ec.message() << "\n";
      return 2;
    }
  }

  bool all_found = true;
  bool interrupted = false;
  // The hunts share one memo, so a cell one fitness's hunt ran is never run
  // again for another (each hunt's result is the same as on its own).
  search::EvaluationMemo memo;
  for (const search::FitnessKind fitness : kinds) {
    search::HuntSpec spec = base;
    spec.fitness = fitness;
    const search::HuntResult result =
        search::run_hunt(spec, nullptr, io.control, &memo);
    if (!result.error.empty()) {
      std::cerr << "error: " << result.error << "\n";
      return 2;
    }

    out << "fitness " << search::to_string(fitness) << " ["
        << search::to_string(spec.strategy) << ", seed " << spec.hunt_seed
        << "]: " << result.evaluations << " search + "
        << result.minimize_evals << " minimizer evaluations\n";
    if (result.best.has_value()) {
      char score[64];
      std::snprintf(score, sizeof score, "%.6g", result.best->score);
      out << "  best:      score " << score << " ("
          << sim::to_string(result.best->metrics.outcome) << ", "
          << result.best->metrics.epochs << " epochs)  "
          << search::plan_fingerprint(result.best->plan) << "\n";
    } else {
      all_found = false;
      out << "  best:      none (no evaluation finished without failing)\n";
    }
    if (result.minimized.has_value()) {
      char score[64];
      std::snprintf(score, sizeof score, "%.6g", result.minimized->score);
      out << "  minimized: score " << score << " ("
          << result.minimize_accepted << " accepted shrink steps)  "
          << search::plan_fingerprint(result.minimized->plan) << "\n";
    }
    {
      char digest[32];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(
                        search::hunt_digest(result)));
      out << "  digest:    " << digest << "\n";
    }

    if (cli.is_set("emit-dir") && result.minimized.has_value()) {
      const std::string note =
          "hunt: strategy=" + std::string(search::to_string(spec.strategy)) +
          " seed=" + std::to_string(spec.hunt_seed) +
          " budget=" + std::to_string(spec.budget) +
          " algorithm=" + spec.algorithm;
      const search::AdversarialScenario scenario =
          search::make_regression_scenario(spec, *result.minimized, note);
      const std::string path =
          cli.get("emit-dir") + "/" + std::string(search::to_string(fitness)) +
          "-" + std::string(search::to_string(spec.strategy)) + "-seed" +
          std::to_string(spec.hunt_seed) + ".json";
      if (!search::save_adversarial_scenario(scenario, path)) {
        std::cerr << "error: cannot write scenario file " << path << "\n";
        return 2;
      }
      out << "  emitted:   " << path << "\n";
    }
    out.flush();
    // Either signal counts, even one landing after the last evaluation
    // finished (result.stopped would still be false): the exit-code
    // contract is 3 for ANY drained SIGINT/SIGTERM, same as `run`.
    if (result.stopped || g_stop.load()) {
      interrupted = true;
      break;
    }
  }
  if (interrupted) {
    std::cerr << "interrupted: in-flight evaluations drained"
              << (io.journal != nullptr ? ", journal flushed" : "")
              << "; re-run with --resume="
              << (io.journal != nullptr ? io.journal->path() : "<journal>")
              << " to continue.\n";
    return 3;
  }
  return all_found ? 0 : 1;
}

// `work`: the fabric worker half of run --workers. Reads one lease
// (file path or "-" for stdin), runs the leased shard against its own
// journal, and streams progress events on stdout for the coordinator.
// Exit codes: 0 every leased cell journaled, 2 unusable lease/journal,
// 3 drained on SIGINT/SIGTERM with cells left undone.
int cmd_work(int argc, const char* const* argv) {
  const std::string_view lease = argc == 2 ? argv[1] : "";
  if (lease.empty() || lease == "--help" || lease == "-h") {
    std::cerr << "usage: lumen-bench work <lease.json|->\n";
    return 2;
  }
  std::signal(SIGINT, request_stop);
  std::signal(SIGTERM, request_stop);
  fabric::WorkerOptions options;
  options.lease_path = std::string(lease);
  options.stop = &g_stop;
  return fabric::run_worker(options);
}

}  // namespace

int main(int argc, char** argv) {
  // E13 registers from the search library (not the analysis registry ctor)
  // so lumen_analysis stays independent of lumen_search; idempotent, and
  // called before any thread exists.
  lumen::search::register_hunt_experiment();
  g_self_exe = self_executable(argc > 0 ? argv[0] : nullptr);
  if (argc < 2) return usage(std::cerr, 2);
  const std::string_view command = argv[1];
  if (command == "--help" || command == "help" || command == "-h") {
    return usage(std::cout, 0);
  }
  // Each command parses argv[1..]: its own name, then its arguments.
  if (command == "list") return cmd_list(argc - 1, argv + 1);
  if (command == "describe") return cmd_describe(argc - 1, argv + 1);
  if (command == "run") return cmd_run(argc - 1, argv + 1);
  if (command == "hunt") return cmd_hunt(argc - 1, argv + 1);
  if (command == "work") return cmd_work(argc - 1, argv + 1);
  std::cerr << "error: unknown command \"" << command << "\"\n\n";
  return usage(std::cerr, 2);
}
