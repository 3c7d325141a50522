// diagnose: post-mortem of a single execution.
//
// Runs one configuration, then rebuilds every robot's view of the FINAL
// configuration (identity frame) and reports what the algorithm would do
// next — the tool for investigating liveness issues in rule changes.
#include "core/beacon.hpp"
#include "core/registry.hpp"
#include "core/view.hpp"
#include "gen/generators.hpp"
#include "geom/hull.hpp"
#include "model/snapshot.hpp"
#include "sim/run.hpp"
#include "util/cli.hpp"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace lumen;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.flag("n", "number of robots", "64")
      .flag("seed", "random seed", "3")
      .flag("family", "configuration family", "uniform-disk")
      .flag("algo", "algorithm", "async-log")
      .flag("cap", "max cycles per robot", "4096");
  if (const auto code = cli.parse_command(argc, argv, "diagnose",
                                          "post-mortem of a single execution")) {
    return *code;
  }
  std::size_t n = 0;
  gen::ConfigFamily family{};
  std::string algo;
  sim::RunConfig config;
  if (!(cli.read("n", n) && cli.read("seed", config.seed) &&
        cli.read("family", family, gen::family_from_string) &&
        cli.read("algo", algo) && cli.read("cap", config.max_cycles_per_robot))) {
    std::fprintf(stderr, "error: %s\n", cli.error().c_str());
    return 2;
  }

  const auto initial = gen::generate(family, n, config.seed);
  const auto algorithm = core::make_algorithm(algo);
  const auto run = sim::run_simulation(*algorithm, initial, config);

  std::printf("converged=%d epochs=%zu cycles=%zu moves=%zu\n", run.converged,
              run.epochs, run.total_cycles, run.total_moves);

  // Census over the final configuration: role / light / what the algorithm
  // would decide next (identity frame — decisions are frame-invariant).
  std::vector<double> xs, ys;
  for (const geom::Vec2 p : run.final_positions) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  model::SnapshotScratch scratch;
  model::Snapshot snap;
  std::map<std::string, std::size_t> census;
  for (std::size_t i = 0; i < n; ++i) {
    model::LocalFrame frame{run.final_positions[i], 0.0, 1.0, false};
    model::build_snapshot(xs, ys, run.final_lights, i, frame, scratch, snap);
    const auto view = core::build_view(snap);
    const auto action = algorithm->compute(snap);
    std::string key(to_string(view.role));
    key += "/";
    key += to_string(run.final_lights[i]);
    key += "/next:";
    key += to_string(action.light);
    key += action.moves() ? "+move" : "";
    if (view.role == core::Role::kInterior) {
      std::vector<core::ExitPlan> plans;
      core::GateTable(view).plan_exits(view.self(), plans);
      key += plans.empty() ? "/no-perp-plan" : "/plans:" + std::to_string(plans.size());
    }
    ++census[key];
  }
  for (const auto& [key, count] : census) {
    std::printf("%6zu  %s\n", count, key.c_str());
  }

  const auto hull = geom::convex_hull_indices(run.final_positions);
  std::printf("global hull corners: %zu of %zu\n", hull.size(), n);
  return 0;
}
