// collinear_rescue: the hardest degenerate start — all robots on ONE line,
// where obstructed visibility reduces each robot's world to its two line
// neighbors. Walks through the execution phase by phase, printing the role
// census after the line escape and at convergence.
//
//   collinear_rescue --n=24 --seed=2
#include "core/registry.hpp"
#include "core/view.hpp"
#include "gen/generators.hpp"
#include "geom/hull.hpp"
#include "geom/visibility.hpp"
#include "model/snapshot.hpp"
#include "sim/monitors.hpp"
#include "sim/run.hpp"
#include "util/cli.hpp"

#include <cstdio>

using namespace lumen;

namespace {

void print_census(const char* label, std::span<const geom::Vec2> positions) {
  const auto hull = geom::convex_hull_indices(positions);
  const auto vis = geom::compute_visibility(positions);
  const std::size_t pairs = positions.size() * (positions.size() - 1) / 2;
  std::printf("%-22s hull corners: %3zu / %zu   visible pairs: %4zu / %zu   "
              "collinear: %s\n",
              label, hull.size(), positions.size(), vis.edge_count(), pairs,
              geom::all_collinear(positions) ? "yes" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.flag("n", "number of robots", "24").flag("seed", "random seed", "2");
  if (const auto code = cli.parse_command(argc, argv, "collinear_rescue",
                                          "escape from an all-collinear start")) {
    return *code;
  }
  std::size_t n = 0;
  sim::RunConfig config;
  if (!(cli.read("n", n) && cli.read("seed", config.seed))) {
    std::fprintf(stderr, "error: %s\n", cli.error().c_str());
    return 2;
  }

  const auto initial = gen::generate(gen::ConfigFamily::kCollinear, n, config.seed);
  std::printf("Initial configuration: %zu robots exactly on one line.\n", n);
  std::printf("Each middle robot sees exactly 2 others (its line neighbors); "
              "the endpoints see 1.\n\n");
  print_census("t=0 (line)", initial);

  const auto algorithm = core::make_algorithm("async-log");
  const auto run = sim::run_simulation(*algorithm, initial, config);

  // Snapshot the world right after the first wave of moves (the line
  // escape) by replaying trajectories to the time of the n/2-th move.
  if (run.moves.size() >= 2) {
    const double t_escape = run.moves[std::min(run.moves.size() - 1, n / 2)].t1;
    const auto trajectories = build_trajectories(run.initial_positions, run.moves);
    std::vector<geom::Vec2> mid;
    mid.reserve(n);
    for (const auto& traj : trajectories) mid.push_back(traj.at(t_escape));
    print_census("after line escape", mid);
  }
  print_census("final", run.final_positions);

  const auto verdict = sim::verify_complete_visibility(run.final_positions);
  const auto collisions =
      sim::check_collisions(run.initial_positions, run.moves, run.final_time);
  std::printf("\nepochs: %zu   moves: %zu   complete visibility: %s   "
              "collision-free: %s\n",
              run.epochs, run.total_moves,
              verdict.complete() ? "verified" : "VIOLATED",
              collisions.clean() ? "verified" : "VIOLATED");
  return (run.converged && verdict.complete() && collisions.clean()) ? 0 : 1;
}
