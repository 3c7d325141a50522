// render_run: execute one simulation and render it as an SVG picture
// (initial positions, motion paths, final convex configuration colored by
// final lights) — the visual sanity check for a paper figure.
//
//   render_run --n=48 --family=ring-with-core --out=run.svg
#include "core/registry.hpp"
#include "gen/generators.hpp"
#include "sim/run.hpp"
#include "sim/svg.hpp"
#include "util/cli.hpp"

#include <cstdio>
#include <string>

using namespace lumen;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.flag("n", "number of robots", "48")
      .flag("seed", "random seed", "1")
      .flag("family", "configuration family", "ring-with-core")
      .flag("algo", "algorithm", "async-log")
      .flag("out", "output SVG path", "run.svg")
      .flag("width", "image width", "900")
      .flag("height", "image height", "900");
  if (const auto code =
          cli.parse_command(argc, argv, "render_run", "render one execution to SVG")) {
    return *code;
  }

  std::size_t n = 0;
  gen::ConfigFamily family{};
  std::string algo;
  std::string out;
  sim::RunConfig config;
  sim::SvgOptions options;
  if (!(cli.read("n", n) && cli.read("seed", config.seed) &&
        cli.read("family", family, gen::family_from_string) &&
        cli.read("algo", algo) && cli.read("out", out) &&
        cli.read("width", options.width) && cli.read("height", options.height))) {
    std::fprintf(stderr, "error: %s\n", cli.error().c_str());
    return 2;
  }

  const auto initial = gen::generate(family, n, config.seed);
  const auto algorithm = core::make_algorithm(algo);
  const auto run = sim::run_simulation(*algorithm, initial, config);

  if (!sim::save_svg(run, out, options)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("%s: %zu robots, %zu epochs, %zu moves -> %s (converged: %s)\n",
              std::string(algorithm->name()).c_str(), n, run.epochs,
              run.total_moves, out.c_str(), run.converged ? "yes" : "NO");
  return run.converged ? 0 : 1;
}
