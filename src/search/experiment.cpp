#include "search/experiment.hpp"

#include <algorithm>
#include <cstdio>

namespace lumen::search {
namespace {

std::string fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, format, value);
  return buffer;
}

}  // namespace

HuntSpec hunt_spec_for_scenario(const analysis::ScenarioSpec& spec,
                                FitnessKind fitness) {
  HuntSpec hunt;
  hunt.algorithm = spec.algorithm;
  hunt.family = spec.family;
  hunt.fitness = fitness;
  hunt.seed_plan.scheduler = spec.run.scheduler;
  hunt.seed_plan.adversary = spec.run.adversary;
  hunt.seed_plan.activation = spec.run.activation;
  hunt.seed_plan.n = spec.ns.empty() ? 16 : spec.ns.front();
  hunt.seed_plan.seed = spec.seed_base;
  hunt.seed_plan.fault = spec.run.fault;
  // Pin N for the experiment: the baseline and the hunt search the same
  // swarm size, so worst-vs-mean rows compare like with like.
  hunt.bounds.n_min = hunt.seed_plan.n;
  hunt.bounds.n_max = hunt.seed_plan.n;
  hunt.hunt_seed = spec.seed_base;
  // Budgets scale with the spec's seed count so --smoke shrinks the hunt
  // the same way it shrinks every other experiment.
  hunt.budget = std::clamp<std::size_t>(spec.runs * 8, 16, 512);
  hunt.minimize_budget = std::clamp<std::size_t>(spec.runs * 4, 8, 96);
  hunt.population = 6;
  hunt.offspring = 12;
  hunt.min_separation = spec.min_separation;
  hunt.collision_tolerance = spec.collision_tolerance;
  hunt.max_cycles_per_robot = spec.run.max_cycles_per_robot;
  return hunt;
}

analysis::ExperimentResult run_adversarial_hunt(
    const analysis::ScenarioSpec& spec, const analysis::ExperimentContext& ctx) {
  analysis::ExperimentResult result;
  result.experiment = "adversarial-hunt";
  result.title =
      "E13: adversarial search — optimized worst-case adversaries vs the "
      "uniform-sampling tails";
  result.columns = {"fitness",        "N",
                    "baseline(mean)", "baseline(worst)",
                    "hunt(best)",     "minimized",
                    "evals",          "exceeds-tail"};

  bool all_found = true;
  bool hunt_at_least_tail = true;
  // One memo for every baseline and hunt below: the fitnesses share the
  // baseline samples, and the two audited fitnesses share their cells.
  EvaluationMemo memo;
  for (const FitnessKind fitness : all_fitness_kinds()) {
    if (ctx.control.stop_requested()) {
      result.partial = true;
      break;
    }
    HuntSpec hunt = hunt_spec_for_scenario(spec, fitness);
    const std::string invalid = validate_hunt_spec(hunt);
    if (!invalid.empty()) {
      result.notes.push_back("hunt spec invalid for fitness " +
                             std::string(to_string(fitness)) + ": " + invalid);
      result.partial = true;
      all_found = false;
      continue;
    }

    // Uniform-sampling baseline: the E9-E11 methodology over the SAME plan
    // space — spec.runs independent random plans, no optimization.
    util::Prng baseline_rng = util::Prng(hunt.hunt_seed).split("e13-baseline");
    std::vector<AdversaryPlan> samples;
    samples.reserve(spec.runs);
    for (std::size_t i = 0; i < spec.runs; ++i) {
      samples.push_back(random_plan(hunt.seed_plan, hunt.bounds, baseline_rng));
    }
    const std::vector<Evaluation> baseline =
        evaluate_plans(hunt, samples, ctx.pool, ctx.control, &memo);
    double baseline_sum = 0.0;
    double baseline_worst = 0.0;
    std::size_t baseline_ok = 0;
    for (const Evaluation& evaluation : baseline) {
      if (evaluation.failed) continue;
      if (baseline_ok == 0 || evaluation.score > baseline_worst) {
        baseline_worst = evaluation.score;
      }
      baseline_sum += evaluation.score;
      ++baseline_ok;
    }
    const double baseline_mean =
        baseline_ok > 0 ? baseline_sum / static_cast<double>(baseline_ok) : 0.0;

    // Warm-start the hunt from the baseline's winner: the (mu+lambda) loop
    // evaluates its seed plan in generation 0, so the hunt's best can never
    // fall below the uniform-sampling tail — it optimizes FROM it.
    const Evaluation* baseline_best = nullptr;
    for (const Evaluation& evaluation : baseline) {
      if (evaluation.failed) continue;
      if (baseline_best == nullptr || evaluation.score > baseline_best->score) {
        baseline_best = &evaluation;
      }
    }
    if (baseline_best != nullptr) hunt.seed_plan = baseline_best->plan;

    const HuntResult hunted = run_hunt(hunt, ctx.pool, ctx.control, &memo);
    if (hunted.stopped) result.partial = true;
    if (!hunted.best.has_value()) {
      all_found = false;
      result.row() = {analysis::cell(std::string(to_string(fitness))),
                      analysis::cell(hunt.seed_plan.n),
                      analysis::cell(baseline_mean, 3),
                      analysis::cell(baseline_worst, 3),
                      analysis::cell("-"),
                      analysis::cell("-"),
                      analysis::cell(hunted.evaluations),
                      analysis::cell("-")};
      continue;
    }
    const double best = hunted.best->score;
    const double minimized =
        hunted.minimized.has_value() ? hunted.minimized->score : best;
    const bool exceeds = baseline_ok == 0 || best >= baseline_worst;
    hunt_at_least_tail = hunt_at_least_tail && exceeds;
    result.row() = {
        analysis::cell(std::string(to_string(fitness))),
        analysis::cell(hunt.seed_plan.n),
        analysis::cell(baseline_mean, 3),
        analysis::cell(baseline_worst, 3),
        analysis::cell(best, 3),
        analysis::cell(minimized, 3),
        analysis::cell(hunted.evaluations + hunted.minimize_evals),
        analysis::cell(exceeds ? "yes" : "no")};
    if (hunted.minimized.has_value()) {
      result.notes.push_back(
          std::string(to_string(fitness)) + " minimized plan: " +
          plan_fingerprint(hunted.minimized->plan) +
          fmt(" (score %.6g, ", hunted.minimized->score) +
          std::string(sim::to_string(hunted.minimized->metrics.outcome)) + ")");
    }
  }

  result.notes.push_back(
      "baseline columns are uniform sampling over the same AdversaryPlan "
      "bounds (the E9-E11 methodology); hunt columns are the (mu+lambda) "
      "optimizer with the same per-evaluation budget. Scores: epochs + 1e6 "
      "per non-quiescence band / 1e6*collisions - min-separation / "
      "1e6*outcome-rank + epochs.");
  result.checks.push_back(
      {"hunt found and minimized a worst case for every fitness",
       analysis::pass_if(all_found)});
  result.checks.push_back(
      {"hunt best matches or exceeds the uniform-sampling worst tail",
       analysis::pass_if(hunt_at_least_tail)});
  return result;
}

void register_hunt_experiment() {
  analysis::Experiment experiment;
  experiment.name = "adversarial-hunt";
  experiment.id = "E13";
  experiment.description =
      "Adversarial search over scheduler/fault plans: a (mu+lambda) hunt "
      "per fitness function (epochs-to-converge, near-miss margin, outcome "
      "class) against a uniform-sampling baseline of the same size, with "
      "each winner delta-debugged to a minimal plan. Worst-case constants "
      "to put next to the E9-E11 mean tables; minimized plans are the "
      "committed regression scenarios under scenarios/adversarial/.";
  analysis::ScenarioSpec defaults;
  defaults.ns = {16};
  defaults.runs = 24;
  defaults.seed_base = 1;
  defaults.run.max_cycles_per_robot = 256;
  experiment.defaults = defaults;
  experiment.run = run_adversarial_hunt;
  analysis::ExperimentRegistry::register_external(std::move(experiment));
}

}  // namespace lumen::search
