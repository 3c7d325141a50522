// lumen-bench: the single driver for every paper-reproduction experiment.
//
//   lumen-bench list [--names-only]
//   lumen-bench describe <experiment>
//   lumen-bench run <experiment|all> [flags]
//   lumen-bench hunt [flags]
//
// Each experiment (E1-E6, E8) lives in the analysis::ExperimentRegistry;
// this binary only resolves the spec (defaults -> --spec file -> flag
// overrides), runs it, and hands the structured result to a Reporter.
// E7 (microbenchmarks) stays in the separate bench_micro binary because
// google-benchmark owns its harness. `hunt` drives the adversarial search
// subsystem (src/search): it optimizes an AdversaryPlan against a chosen
// fitness, delta-debugs the winner, and can emit the minimized plan as a
// committable regression scenario (scenarios/adversarial/).
//
// Exit codes: 0 all checks passed (or --smoke), 1 a claim check failed,
// 2 usage/spec error, 3 interrupted (SIGINT/SIGTERM drained gracefully —
// in-flight cells finished, journal and partial report flushed).

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

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
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
        "run flags:\n"
        "  --spec=FILE        load a ScenarioSpec JSON (overrides defaults)\n"
        "  --ns=8,16,32       sweep sizes (fixed-N experiments use the first)\n"
        "  --baseline-ns=...  comparator sweep sizes (E1)\n"
        "  --runs=N           seeds per point\n"
        "  --seed-base=S      run i uses seed S+i\n"
        "  --algorithm=NAME   algorithm under test\n"
        "  --family=NAME      default configuration family\n"
        "  --shard=I/K        run seed indices i with i%K == I; merged\n"
        "                     shards are bit-identical to an unsharded run\n"
        "  --format=pretty|csv|json   reporter (default pretty)\n"
        "  --out=FILE         write the report to FILE instead of stdout\n"
        "  --save-spec=FILE   write the resolved spec JSON and continue\n"
        "  --smoke            shrink the spec to a seconds-long sanity run;\n"
        "                     claim checks are reported but not enforced\n"
        "  --journal=FILE     append one durable JSONL record per finished\n"
        "                     campaign cell (checkpoint for --resume)\n"
        "  --resume=FILE      skip cells already recorded in FILE and merge\n"
        "                     their metrics back (byte-identical to an\n"
        "                     uninterrupted run); implies --journal=FILE\n"
        "  --deadline-ms=T    per-run wall-clock watchdog (0 = off)\n"
        "  --max-attempts=K   retries per hung/throwing cell (default 1)\n"
        "  --retry-backoff-ms=B   base backoff between a cell's attempts\n"
        "  --workers=K        distribute campaign cells across K crash-\n"
        "                     tolerant `lumen-bench work` subprocesses via\n"
        "                     fenced seed-range leases; the report is byte-\n"
        "                     identical to an in-process run (0 = in-process)\n"
        "  --fabric-dir=DIR   lease + shard-journal directory for --workers\n"
        "  --lease-ttl-ms=T   reclaim a lease from a worker silent for T ms\n"
        "  --straggler-factor=F  speculatively re-lease a shard with no\n"
        "                     finished cell for F x the median cell time\n"
        "  --chaos-kill=P     fault injection: SIGKILL a worker with\n"
        "                     probability P after each finished cell\n"
        "  --chaos-seed=S     deterministic chaos stream seed\n"
        "\n"
        "hunt flags:\n"
        "  --fitness=KIND     epochs|min-separation|outcome|all (default all)\n"
        "  --algorithm=NAME   algorithm under attack (default async-log)\n"
        "  --family=NAME      initial-configuration family\n"
        "  --scheduler=K      seed plan scheduler (fsync|ssync|async)\n"
        "  --n=N / --n-min / --n-max   swarm-size search range\n"
        "  --seed=S           hunt seed (drives the whole trajectory)\n"
        "  --budget=K         search-loop evaluation budget\n"
        "  --minimize-budget=K  shrinking-minimizer evaluation budget\n"
        "  --emit-dir=DIR     write each minimized winner as a regression\n"
        "                     scenario JSON (the scenarios/adversarial/ form)\n"
        "  --journal/--resume checkpointing, exactly as for run\n"
        "  --smoke            shrink budgets to a seconds-long sanity hunt\n"
        "\n"
        "SIGINT/SIGTERM drain in-flight cells (and, under --workers, the\n"
        "worker fleet), flush the journal and the partial report, and exit\n"
        "with code 3 — for `run` and `hunt` alike, whichever signal it was;\n"
        "re-run with --resume to pick up where the interrupted run left\n"
        "off.\n";
  return code;
}

int cmd_list(const std::vector<std::string>& args) {
  const bool names_only =
      std::find(args.begin(), args.end(), "--names-only") != args.end();
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

int cmd_describe(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "error: describe needs an experiment or algorithm name\n";
    return 2;
  }
  // Numbers read off this host depend on which batch-kernel ISA the
  // geometry layer dispatched to for this CPU; say so up front.
  std::cout << "simd dispatch: "
            << geom::simd::to_string(geom::simd::active_level()) << "\n\n";
  const auto* e = analysis::ExperimentRegistry::instance().find(args[0]);
  if (e != nullptr) {
    std::cout << e->id << " " << e->name << "\n\n"
              << e->description << "\n\ndefault spec:\n"
              << analysis::scenario_to_json(e->defaults);
    return 0;
  }
  // Not an experiment — maybe a registered algorithm plugin.
  for (const auto& a : core::algorithm_infos()) {
    if (a.name != args[0]) continue;
    std::cout << "algorithm " << a.name << "\n"
              << "  motion model:      " << model::to_string(a.motion_model)
              << "\n"
              << "  palette size:      " << a.palette_size << "\n"
              << "  success predicate: " << a.success_predicate << "\n";
    return 0;
  }
  std::cerr << "error: unknown experiment or algorithm \"" << args[0]
            << "\" (try `lumen-bench list`)\n";
  return 2;
}

/// Shrinks a spec so every experiment finishes in seconds: at most two
/// sweep sizes, each clamped to <= 16 robots, at most two seeds.
analysis::ScenarioSpec smoke_spec(analysis::ScenarioSpec spec) {
  const auto shrink = [](std::vector<std::size_t>& ns) {
    if (ns.size() > 2) ns.resize(2);
    for (auto& n : ns) n = std::min<std::size_t>(n, 16);
  };
  shrink(spec.ns);
  if (!spec.baseline_ns.empty()) shrink(spec.baseline_ns);
  spec.runs = std::min<std::size_t>(spec.runs, 2);
  return spec;
}

bool apply_overrides(const util::Cli& cli, analysis::ScenarioSpec& spec,
                     std::string& error) {
  const auto int_list = [&](std::string_view flag,
                            std::vector<std::size_t>& out) {
    if (!cli.is_set(flag)) return true;
    const auto values = cli.get_int_list(flag);
    if (!values || values->empty() ||
        std::any_of(values->begin(), values->end(),
                    [](std::int64_t v) { return v <= 0; })) {
      error = std::string("--") + std::string(flag) +
              " must be a comma-separated list of positive integers";
      return false;
    }
    out.assign(values->begin(), values->end());
    return true;
  };
  if (!int_list("ns", spec.ns)) return false;
  if (!int_list("baseline-ns", spec.baseline_ns)) return false;
  // Integer flags are only sign-checked before their unsigned casts; the
  // range rules are validate_scenario's, applied to the resolved spec.
  const auto non_negative = [&](std::string_view flag) {
    if (cli.get_int(flag) >= 0) return true;
    error = std::string("--") + std::string(flag) + " must be non-negative";
    return false;
  };
  if (cli.is_set("runs")) {
    if (!non_negative("runs")) return false;
    spec.runs = static_cast<std::size_t>(cli.get_int("runs"));
  }
  if (cli.is_set("seed-base")) {
    if (!non_negative("seed-base")) return false;
    spec.seed_base = static_cast<std::uint64_t>(cli.get_int("seed-base"));
  }
  if (cli.is_set("algorithm")) spec.algorithm = cli.get("algorithm");
  if (cli.is_set("family")) {
    const auto family = gen::family_from_string(cli.get("family"));
    if (!family) {
      error = "unknown --family \"" + cli.get("family") + "\"";
      return false;
    }
    spec.family = *family;
  }
  if (cli.is_set("shard")) {
    const std::string shard = cli.get("shard");
    const auto slash = shard.find('/');
    const auto index = util::parse_int_list(shard.substr(0, slash));
    const auto count = slash == std::string::npos
                           ? std::nullopt
                           : util::parse_int_list(shard.substr(slash + 1));
    if (!index || !count || index->size() != 1 || count->size() != 1 ||
        (*index)[0] < 0 || (*count)[0] < 0) {
      error = "--shard must be I/K with non-negative integers I and K";
      return false;
    }
    spec.shard_index = static_cast<std::size_t>((*index)[0]);
    spec.shard_count = static_cast<std::size_t>((*count)[0]);
  }
  if (cli.is_set("deadline-ms")) {
    if (!non_negative("deadline-ms")) return false;
    spec.run.deadline_ms = static_cast<std::uint64_t>(cli.get_int("deadline-ms"));
  }
  if (cli.is_set("max-attempts")) {
    if (!non_negative("max-attempts")) return false;
    spec.max_attempts = static_cast<std::size_t>(cli.get_int("max-attempts"));
  }
  if (cli.is_set("retry-backoff-ms")) {
    if (!non_negative("retry-backoff-ms")) return false;
    spec.retry_backoff_ms =
        static_cast<std::uint64_t>(cli.get_int("retry-backoff-ms"));
  }
  return true;
}

int cmd_run(const std::vector<std::string>& raw_args) {
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
  cli.flag("smoke", "tiny sanity run; checks reported, not enforced");
  cli.flag("journal", "append a durable record per finished campaign cell");
  cli.flag("resume", "skip cells journaled in this file; implies --journal");
  cli.flag("deadline-ms", "per-run wall-clock watchdog, 0 = off");
  cli.flag("max-attempts", "retries per hung/throwing cell");
  cli.flag("retry-backoff-ms", "base backoff between a cell's attempts");
  cli.flag("workers", "fabric worker subprocesses (0 = in-process)", "0");
  cli.flag("fabric-dir", "lease/shard-journal directory", ".lumen-fabric");
  cli.flag("lease-ttl-ms", "reclaim a worker silent this long", "5000");
  cli.flag("straggler-factor", "re-lease after F x median cell time, 0 = off",
           "0");
  cli.flag("chaos-kill", "P(SIGKILL a worker after each cell), 0 = off", "0");
  cli.flag("chaos-seed", "deterministic chaos stream seed", "0");

  std::vector<const char*> argv = {"lumen-bench run"};
  for (const auto& a : raw_args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    std::cerr << "error: " << cli.error() << "\n";
    return 2;
  }
  if (cli.help_requested()) return usage(std::cout, 0);
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

  const auto reporter = analysis::make_reporter(cli.get("format"));
  if (reporter == nullptr) {
    std::cerr << "error: unknown --format \"" << cli.get("format") << "\" ("
              << analysis::reporter_formats() << ")\n";
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
  fabric::FabricConfig fabric_config;
  if (cli.get_int("workers") < 0 || cli.get_int("lease-ttl-ms") < 0 ||
      cli.get_int("chaos-seed") < 0) {
    std::cerr << "error: --workers, --lease-ttl-ms and --chaos-seed must be "
                 "non-negative\n";
    return 2;
  }
  if (cli.get_double("chaos-kill") < 0.0 || cli.get_double("chaos-kill") > 1.0 ||
      cli.get_double("straggler-factor") < 0.0) {
    std::cerr << "error: --chaos-kill must be in [0, 1] and "
                 "--straggler-factor non-negative\n";
    return 2;
  }
  if (cli.get_int("workers") > 0) {
    fabric_config.workers = static_cast<std::size_t>(cli.get_int("workers"));
    fabric_config.worker_argv = {g_self_exe, "work"};
    fabric_config.dir = cli.get("fabric-dir");
    fabric_config.lease_ttl_ms =
        static_cast<std::uint64_t>(cli.get_int("lease-ttl-ms"));
    fabric_config.straggler_factor = cli.get_double("straggler-factor");
    fabric_config.chaos_kill_rate = cli.get_double("chaos-kill");
    fabric_config.chaos_seed =
        static_cast<std::uint64_t>(cli.get_int("chaos-seed"));
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

  const bool smoke = cli.get_bool("smoke");
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
    std::string error;
    if (!apply_overrides(cli, spec, error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    if (smoke) spec = smoke_spec(spec);
    if (const std::string problem = analysis::validate_scenario(spec);
        !problem.empty()) {
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
    reporter->report(result, out);
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
  // Smoke specs are far below the sizes the claim thresholds were
  // calibrated for (E1 needs >= 4 sweep points), so only report verdicts.
  if (smoke) return 0;
  return all_passed ? 0 : 1;
}

// `hunt`: drive the adversarial search subsystem directly. One hunt per
// requested fitness (default: all three), sharing the same hunt seed; each
// prints its trajectory digest (the cross-pool-size determinism witness)
// and optionally emits its minimized winner as a regression scenario.
int cmd_hunt(const std::vector<std::string>& raw_args) {
  util::Cli cli;
  cli.flag("fitness", "epochs|min-separation|outcome|all", "all");
  cli.flag("algorithm", "algorithm under attack", "async-log");
  cli.flag("family", "initial-configuration family");
  cli.flag("scheduler", "seed plan scheduler (fsync|ssync|async)");
  cli.flag("adversary", "seed plan timing adversary");
  cli.flag("activation", "seed plan activation policy");
  cli.flag("n", "pin the swarm size (sets both n-min and n-max)");
  cli.flag("n-min", "smallest swarm size the hunt may try");
  cli.flag("n-max", "largest swarm size the hunt may try");
  cli.flag("seed", "hunt seed; the whole trajectory is a function of it", "1");
  cli.flag("budget", "search-loop evaluation budget", "256");
  cli.flag("population", "mu: survivors per generation", "8");
  cli.flag("offspring", "lambda: children per generation", "16");
  cli.flag("max-cycles", "per-robot cycle budget per evaluation", "256");
  cli.flag("minimize-budget", "shrinking-minimizer evaluation budget", "96");
  cli.flag("emit-dir", "write each minimized winner as a scenario JSON here");
  cli.flag("journal", "append a durable record per finished evaluation");
  cli.flag("resume", "skip evaluations journaled here; implies --journal");
  cli.flag("out", "write the summary to this file instead of stdout");
  cli.flag("smoke", "shrink budgets to a seconds-long sanity hunt");

  std::vector<const char*> argv = {"lumen-bench hunt"};
  for (const auto& a : raw_args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) {
    std::cerr << "error: " << cli.error() << "\n";
    return 2;
  }
  if (cli.help_requested()) return usage(std::cout, 0);

  // Which fitness functions to hunt.
  std::vector<search::FitnessKind> kinds;
  if (cli.get("fitness") == "all") {
    kinds = search::all_fitness_kinds();
  } else {
    const auto kind = search::fitness_from_string(cli.get("fitness"));
    if (!kind) {
      std::cerr << "error: unknown --fitness \"" << cli.get("fitness")
                << "\" (epochs|min-separation|outcome|all)\n";
      return 2;
    }
    kinds = {*kind};
  }

  search::HuntSpec base;
  base.algorithm = cli.get("algorithm");
  if (cli.is_set("family")) {
    const auto family = gen::family_from_string(cli.get("family"));
    if (!family) {
      std::cerr << "error: unknown --family \"" << cli.get("family") << "\"\n";
      return 2;
    }
    base.family = *family;
  }
  if (cli.is_set("scheduler")) {
    const auto scheduler = sim::scheduler_from_string(cli.get("scheduler"));
    if (!scheduler) {
      std::cerr << "error: unknown --scheduler \"" << cli.get("scheduler")
                << "\" (fsync|ssync|async)\n";
      return 2;
    }
    base.seed_plan.scheduler = *scheduler;
  }
  if (cli.is_set("adversary")) {
    const auto adversary = sched::adversary_from_string(cli.get("adversary"));
    if (!adversary) {
      std::cerr << "error: unknown --adversary \"" << cli.get("adversary")
                << "\"\n";
      return 2;
    }
    base.seed_plan.adversary = *adversary;
  }
  if (cli.is_set("activation")) {
    const auto activation =
        sched::activation_from_string(cli.get("activation"));
    if (!activation) {
      std::cerr << "error: unknown --activation \"" << cli.get("activation")
                << "\"\n";
      return 2;
    }
    base.seed_plan.activation = *activation;
  }
  const auto size_flag = [&](std::string_view flag, std::size_t& out,
                             std::string& error) {
    if (!cli.is_set(flag)) return true;
    if (cli.get_int(flag) <= 0) {
      error = std::string("--") + std::string(flag) + " must be positive";
      return false;
    }
    out = static_cast<std::size_t>(cli.get_int(flag));
    return true;
  };
  std::string error;
  if (cli.is_set("n")) {
    std::size_t n = 0;
    if (!size_flag("n", n, error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    base.bounds.n_min = base.bounds.n_max = n;
  }
  if (!size_flag("n-min", base.bounds.n_min, error) ||
      !size_flag("n-max", base.bounds.n_max, error) ||
      !size_flag("budget", base.budget, error) ||
      !size_flag("population", base.population, error) ||
      !size_flag("offspring", base.offspring, error) ||
      !size_flag("max-cycles", base.max_cycles_per_robot, error) ||
      !size_flag("minimize-budget", base.minimize_budget, error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  if (cli.get_int("seed") < 0) {
    std::cerr << "error: --seed must be non-negative\n";
    return 2;
  }
  base.hunt_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  base.seed_plan.seed = base.hunt_seed;
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
  for (const search::FitnessKind fitness : kinds) {
    search::HuntSpec spec = base;
    spec.fitness = fitness;
    const std::string invalid = search::validate_hunt_spec(spec);
    if (!invalid.empty()) {
      std::cerr << "error: invalid hunt spec: " << invalid << "\n";
      return 2;
    }
    const search::HuntResult result = search::run_hunt(spec, nullptr, io.control);
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
      out << "  best:      none (stopped before any evaluation finished)\n";
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
  if (cli.get_bool("smoke")) return 0;
  return all_found ? 0 : 1;
}

// `work`: the fabric worker half of run --workers. Reads one lease
// (file path or "-" for stdin), runs the leased shard against its own
// journal, and streams progress events on stdout for the coordinator.
// Exit codes: 0 every leased cell journaled, 2 unusable lease/journal,
// 3 drained on SIGINT/SIGTERM with cells left undone.
int cmd_work(const std::vector<std::string>& args) {
  if (args.size() != 1 || args[0] == "--help" || args[0] == "-h") {
    std::cerr << "usage: lumen-bench work <lease.json|->\n";
    return 2;
  }
  std::signal(SIGINT, request_stop);
  std::signal(SIGTERM, request_stop);
  fabric::WorkerOptions options;
  options.lease_path = args[0];
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
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(std::cerr, 2);
  const std::string& command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (command == "--help" || command == "help" || command == "-h") {
    return usage(std::cout, 0);
  }
  if (command == "list") return cmd_list(rest);
  if (command == "describe") return cmd_describe(rest);
  if (command == "run") return cmd_run(rest);
  if (command == "hunt") return cmd_hunt(rest);
  if (command == "work") return cmd_work(rest);
  std::cerr << "error: unknown command \"" << command << "\"\n\n";
  return usage(std::cerr, 2);
}
