#include "search/hunt.hpp"

#include "analysis/journal.hpp"
#include "search/minimize.hpp"
#include "util/json.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string_view>
#include <unordered_map>

namespace lumen::search {
namespace {

constexpr double kFailedScore = std::numeric_limits<double>::lowest();

/// The EvaluationMemo key of the cell `plan` projects to.
std::string cell_key(const HuntSpec& spec, const AdversaryPlan& plan) {
  return analysis::campaign_key(hunt_scenario(spec, plan).campaign(plan.n)) + '/' +
         std::to_string(plan.seed);
}

/// A successful evaluation of `plan` whose cell produced `metrics`.
Evaluation evaluation_of(const HuntSpec& spec, const AdversaryPlan& plan,
                         const analysis::RunMetrics& metrics) {
  return Evaluation{plan, metrics, fitness_score(spec.fitness, metrics), false};
}

/// Proposal order doubles as the deterministic tiebreak: of two equal
/// scores, the EARLIER evaluation wins, so the trajectory never depends on
/// sort stability or pool interleaving.
struct Scored {
  Evaluation evaluation;
  std::size_t order = 0;
};

bool better(const Scored& a, const Scored& b) {
  if (a.evaluation.score != b.evaluation.score) {
    return a.evaluation.score > b.evaluation.score;
  }
  return a.order < b.order;
}

/// Appends a finished batch to the result, updating the running best.
/// Returns false when the batch was cut short by a cooperative stop (the
/// partial batch is discarded: a resumed hunt re-proposes it from the seed
/// and merges the journaled cells back bit-identically).
bool absorb_batch(HuntResult& result, std::vector<Scored>& scored,
                  std::vector<Evaluation> batch,
                  const analysis::CampaignControl& control) {
  if (control.stop_requested()) {
    result.stopped = true;
    return false;
  }
  for (Evaluation& evaluation : batch) {
    Scored entry{std::move(evaluation), result.history.size()};
    result.history.push_back(entry.evaluation);
    ++result.evaluations;
    if (!entry.evaluation.failed) {
      if (!result.best.has_value() ||
          entry.evaluation.score > result.best->score) {
        result.best = entry.evaluation;
      }
      scored.push_back(std::move(entry));
    }
  }
  return true;
}

void run_mu_plus_lambda(HuntResult& result, const HuntSpec& spec,
                        util::ThreadPool& pool,
                        const analysis::CampaignControl& control,
                        EvaluationMemo& memo) {
  util::Prng rng(spec.hunt_seed);
  util::Prng init_rng = rng.split("hunt-init");

  AdversaryPlan base = spec.seed_plan;
  clamp_plan(base, spec.bounds);

  std::vector<AdversaryPlan> initial;
  initial.push_back(base);
  while (initial.size() < spec.population) {
    initial.push_back(random_plan(base, spec.bounds, init_rng));
  }
  if (initial.size() > spec.budget) initial.resize(spec.budget);

  std::vector<Scored> elite;
  if (!absorb_batch(result, elite,
                    evaluate_plans(spec, initial, &pool, control, &memo),
                    control)) {
    return;
  }

  for (std::uint64_t generation = 0; result.evaluations < spec.budget;
       ++generation) {
    util::Prng gen_rng = rng.split("hunt-gen").split(generation);
    const std::size_t remaining = spec.budget - result.evaluations;
    const std::size_t lambda = std::min(spec.offspring, remaining);

    std::vector<AdversaryPlan> children;
    children.reserve(lambda);
    for (std::size_t k = 0; k < lambda; ++k) {
      util::Prng child_rng = gen_rng.split(static_cast<std::uint64_t>(k));
      if (elite.empty()) {
        children.push_back(random_plan(base, spec.bounds, child_rng));
        continue;
      }
      const auto tournament = [&]() -> const Scored& {
        const Scored& a = elite[child_rng.next_below(elite.size())];
        const Scored& b = elite[child_rng.next_below(elite.size())];
        return better(a, b) ? a : b;
      };
      const Scored& parent = tournament();
      AdversaryPlan child = parent.evaluation.plan;
      if (child_rng.bernoulli(0.5)) {  // Half the children get two parents.
        const Scored& other = tournament();
        child = crossover(child, other.evaluation.plan, child_rng);
      }
      child = mutate(child, spec.bounds, child_rng);
      children.push_back(child);
    }

    if (!absorb_batch(result, elite,
                      evaluate_plans(spec, children, &pool, control, &memo),
                      control)) {
      return;
    }
    std::sort(elite.begin(), elite.end(), better);
    if (elite.size() > spec.population) elite.resize(spec.population);
  }
}

}  // namespace

std::string validate_hunt_spec(const HuntSpec& spec) {
  if (spec.budget < 1) return "budget must be >= 1";
  if (spec.population < 1) return "population must be >= 1";
  if (spec.offspring < 1) return "offspring must be >= 1";
  // A swarm of one has no robot pair: its min-separation score is -inf.
  if (spec.bounds.n_min < 2) return "bounds.n_min must be >= 2";
  if (spec.bounds.n_min > spec.bounds.n_max) {
    return "bounds.n_min must be <= bounds.n_max";
  }
  if (spec.max_cycles_per_robot < 1) return "max_cycles_per_robot must be >= 1";
  if (spec.minimize_budget < 1) return "minimize_budget must be >= 1";
  // Everything the campaign layer would reject per evaluation (unknown
  // algorithm, fault domains, min_separation) fails fast here instead.
  AdversaryPlan probe = spec.seed_plan;
  clamp_plan(probe, spec.bounds);
  const std::string campaign_error =
      validate_campaign_spec(hunt_scenario(spec, probe).campaign(probe.n));
  if (!campaign_error.empty()) return campaign_error;
  return "";
}

analysis::ScenarioSpec hunt_scenario(const HuntSpec& spec,
                                     const AdversaryPlan& plan) {
  analysis::ScenarioSpec scenario;
  scenario.algorithm = spec.algorithm;
  scenario.family = spec.family;
  scenario.ns = {plan.n};
  scenario.runs = 1;
  scenario.seed_base = plan.seed;
  scenario.min_separation = spec.min_separation;
  scenario.audit_collisions = fitness_needs_audit(spec.fitness);
  scenario.collision_tolerance = spec.collision_tolerance;
  scenario.run.scheduler = plan.scheduler;
  scenario.run.adversary = plan.adversary;
  scenario.run.activation = plan.activation;
  scenario.run.max_cycles_per_robot = spec.max_cycles_per_robot;
  scenario.run.fault = plan.fault;
  return scenario;
}

Evaluation evaluate_plan(const HuntSpec& spec, const AdversaryPlan& plan,
                         util::ThreadPool* pool,
                         const analysis::CampaignControl& control) {
  const analysis::CampaignResult result =
      analysis::run_campaign(hunt_scenario(spec, plan).campaign(plan.n), pool, control);
  if (result.runs.size() == 1) return evaluation_of(spec, plan, result.runs.front());
  return Evaluation{plan, {}, kFailedScore, true};
}

std::vector<Evaluation> evaluate_plans(const HuntSpec& spec,
                                       const std::vector<AdversaryPlan>& plans,
                                       util::ThreadPool* pool,
                                       const analysis::CampaignControl& control,
                                       EvaluationMemo* memo) {
  util::ThreadPool& workers = pool != nullptr ? *pool : util::global_pool();
  EvaluationMemo local;
  EvaluationMemo& known = memo != nullptr ? *memo : local;
  std::vector<Evaluation> out(plans.size());
  // source[i]: the first slot of the batch holding plans[i]'s cell; `fresh`
  // lists the first slots whose cell the memo lacks — the only ones that run.
  std::vector<std::string> keys(plans.size());
  std::vector<std::size_t> source(plans.size());
  std::vector<std::size_t> fresh;
  std::unordered_map<std::string_view, std::size_t> first;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    keys[i] = cell_key(spec, plans[i]);
    source[i] = i;
    if (const auto hit = known.find(keys[i]); hit != known.end()) {
      out[i] = evaluation_of(spec, plans[i], hit->second);
      continue;
    }
    const auto [slot, inserted] = first.try_emplace(keys[i], i);
    if (inserted) {
      fresh.push_back(i);
    } else {
      source[i] = slot->second;
    }
  }
  workers.parallel_for_slots(fresh.size(), [&](std::size_t, std::size_t k) {
    out[fresh[k]] = evaluate_plan(spec, plans[fresh[k]], &workers, control);
  });
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (source[i] == i) continue;
    out[i] = out[source[i]];
    out[i].plan = plans[i];
  }
  for (const std::size_t i : fresh) {
    if (!out[i].failed) known.emplace(keys[i], out[i].metrics);
  }
  return out;
}

HuntResult run_hunt(const HuntSpec& spec, util::ThreadPool* pool,
                    const analysis::CampaignControl& control,
                    EvaluationMemo* memo) {
  HuntResult result;
  result.spec = spec;
  result.error = validate_hunt_spec(spec);
  if (!result.error.empty()) return result;

  util::ThreadPool& workers = pool != nullptr ? *pool : util::global_pool();
  EvaluationMemo local;
  EvaluationMemo& known = memo != nullptr ? *memo : local;
  run_mu_plus_lambda(result, spec, workers, control, known);

  if (result.best.has_value() && !result.stopped) {
    MinimizeOutcome minimized =
        minimize_plan(spec, *result.best, &workers, control, &known);
    result.minimize_evals = minimized.evaluations;
    result.minimize_accepted = minimized.accepted;
    for (Evaluation& evaluation : minimized.trail) {
      result.history.push_back(std::move(evaluation));
    }
    if (control.stop_requested()) {
      result.stopped = true;
    } else {
      result.minimized = std::move(minimized.evaluation);
    }
  }
  return result;
}

std::uint64_t hunt_digest(const HuntResult& result) {
  std::string blob;
  blob.reserve(result.history.size() * 160);
  char buffer[64];
  for (const Evaluation& evaluation : result.history) {
    blob += plan_fingerprint(evaluation.plan);
    std::snprintf(buffer, sizeof buffer, "|%.17g|", evaluation.score);
    blob += buffer;
    blob += evaluation.failed
                ? std::string_view("failed")
                : sim::to_string(evaluation.metrics.outcome);
    blob += '\n';
  }
  if (result.minimized.has_value()) {
    blob += "minimized:";
    blob += plan_fingerprint(result.minimized->plan);
    std::snprintf(buffer, sizeof buffer, "|%.17g\n", result.minimized->score);
    blob += buffer;
  }
  return util::fnv1a(blob);
}

}  // namespace lumen::search
