// adversary_duel: pit the three algorithms against every ASYNC adversary on
// one configuration and print the scoreboard — a compact tour of the
// scheduler substrate and the campaign API.
//
//   adversary_duel --n=48 --seeds=3 --family=uniform-disk
#include "analysis/campaign.hpp"
#include "core/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <cstdio>
#include <iostream>

using namespace lumen;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.flag("n", "number of robots", "48")
      .flag("seeds", "seeds per cell", "3")
      .flag("family", "configuration family", "uniform-disk");
  if (const auto code =
          cli.parse_command(argc, argv, "adversary_duel", "algorithms vs adversaries")) {
    return *code;
  }

  // Every cell shares these; the loops below set algorithm and adversary.
  analysis::CampaignSpec spec;
  if (!(cli.read("n", spec.n) && cli.read("seeds", spec.runs) &&
        cli.read("family", spec.family, gen::family_from_string))) {
    std::fprintf(stderr, "error: %s\n", cli.error().c_str());
    return 2;
  }

  util::Table table({"algorithm", "adversary", "converged", "visible",
                     "collision-free", "epochs(mean)", "epochs(max)"});
  bool paper_algo_clean = true;
  for (const auto& algorithm : core::algorithm_names()) {
    for (const auto& [adversary, adversary_name] : sched::kAdversaryNames) {
      spec.algorithm = std::string(algorithm);
      spec.run.adversary = adversary;
      const auto result = analysis::run_campaign(spec);
      const auto epochs = result.epochs();
      table.row()
          .cell(algorithm)
          .cell(adversary_name)
          .cell(result.converged_count())
          .cell(result.visibility_ok_count())
          .cell(result.collision_free_count())
          .cell(epochs.mean, 1)
          .cell(epochs.max, 0);
      if (algorithm == "async-log") {
        paper_algo_clean = paper_algo_clean &&
                           result.converged_count() == spec.runs &&
                           result.collision_free_count() == spec.runs;
      }
    }
  }
  table.print(std::cout, "Algorithms vs ASYNC adversaries");
  std::printf("\nNote: ssync-parallel run under ASYNC is the deliberate "
              "ablation — it lacks the beacon handshake, so incidents in its "
              "collision-free column are EXPECTED (that is what the paper's "
              "handshake is for).\n");
  return paper_algo_clean ? 0 : 1;
}
