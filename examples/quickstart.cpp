// Quickstart: run the paper's O(log N) asynchronous Complete Visibility
// algorithm on a random configuration and verify the outcome.
//
//   quickstart [--n=32] [--seed=7] [--family=uniform-disk] [--svg=out.svg]
//
// Demonstrates the whole public API surface: generate a configuration, pick
// an algorithm from the registry, run it under the ASYNC scheduler, audit
// the execution with the monitors, and (optionally) render it to SVG.
#include "core/registry.hpp"
#include "gen/generators.hpp"
#include "sim/monitors.hpp"
#include "sim/run.hpp"
#include "sim/svg.hpp"
#include "util/cli.hpp"

#include <cstdio>
#include <string>

int main(int argc, char** argv) {
  lumen::util::Cli cli;
  cli.flag("n", "number of robots", "32")
      .flag("seed", "random seed", "7")
      .flag("family", "initial configuration family", "uniform-disk")
      .flag("algo", "algorithm name (async-log, seq-baseline, ssync-parallel)",
            "async-log")
      .flag("scheduler", "async, ssync or fsync", "async")
      .flag("adversary", "uniform, bursty, stall-one or lockstep (async only)",
            "uniform")
      .flag("svg", "write an SVG rendering of the run to this path");
  if (const auto code =
          cli.parse_command(argc, argv, "quickstart", "run Complete Visibility once")) {
    return *code;
  }

  std::size_t n = 0;
  lumen::gen::ConfigFamily family{};
  std::string algo;
  std::string svg_path;
  lumen::sim::RunConfig config;
  if (!(cli.read("n", n) && cli.read("seed", config.seed) &&
        cli.read("family", family, lumen::gen::family_from_string) &&
        cli.read("algo", algo) &&
        cli.read("scheduler", config.scheduler, lumen::sim::scheduler_from_string) &&
        cli.read("adversary", config.adversary, lumen::sched::adversary_from_string) &&
        cli.read("svg", svg_path))) {
    std::fprintf(stderr, "error: %s\n", cli.error().c_str());
    return 2;
  }

  // 1. A seeded initial configuration.
  const auto initial = lumen::gen::generate(family, n, config.seed);

  // 2. The algorithm, by registry name.
  const auto algorithm = lumen::core::make_algorithm(algo);

  // 3. One asynchronous execution.
  const auto run = lumen::sim::run_simulation(*algorithm, initial, config);

  // 4. Audit the run against the algorithm's DECLARED success predicate
  //    (complete visibility for the paper's algorithms, mutual visibility
  //    for the related-work plugins — DESIGN.md §14).
  const auto success = lumen::sim::verify_success(algorithm->success_predicate(),
                                                  run.final_positions);
  const auto collisions = lumen::sim::check_collisions(
      run.initial_positions, run.moves, run.final_time);

  std::printf("algorithm            : %s\n", std::string(algorithm->name()).c_str());
  std::printf("robots               : %zu (%s, seed %llu)\n", n,
              std::string(lumen::gen::to_string(family)).c_str(),
              static_cast<unsigned long long>(config.seed));
  std::printf("converged            : %s\n", run.converged ? "yes" : "NO");
  std::printf("epochs               : %zu\n", run.epochs);
  std::printf("LCM cycles           : %zu (moves: %zu)\n", run.total_cycles,
              run.total_moves);
  std::printf("%-21s: %s\n", std::string(algorithm->success_predicate()).c_str(),
              success.satisfied ? "verified" : "VIOLATED");
  std::printf("collision-free       : %s (min separation %.3e)\n",
              collisions.hazard_free(1e-9) ? "verified" : "VIOLATED",
              collisions.min_separation);
  if (collisions.path_crossings > 0) {
    std::printf("  note               : %zu time-separated path crossing(s) — "
                "see DESIGN.md §7 deviation D5\n",
                collisions.path_crossings);
  }
  if (collisions.first_incident) {
    const auto& inc = *collisions.first_incident;
    std::printf("  first incident     : %s robots %zu/%zu at t=%.3f sep=%.3e\n",
                inc.kind.c_str(), inc.robot_a, inc.robot_b, inc.time,
                inc.separation);
    std::printf("  crossings=%zu position-collisions=%zu\n",
                collisions.path_crossings, collisions.position_collisions);
  }
  std::printf("distinct colors used : %zu\n", run.distinct_lights_used());

  if (!svg_path.empty()) {
    if (lumen::sim::save_svg(run, svg_path)) {
      std::printf("svg                  : %s\n", svg_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", svg_path.c_str());
    }
  }
  return (run.converged && success.satisfied && collisions.hazard_free(1e-9))
             ? 0
             : 1;
}
