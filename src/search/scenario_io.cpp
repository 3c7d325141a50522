#include "search/scenario_io.hpp"

#include <sstream>

namespace lumen::search {

template <typename Io, util::FieldsOf<AdversarialScenario::Expectation> C>
void fields(Io& io, C& expect) {
  io("outcome", expect.outcome, sim::outcome_from_string);
  io("epochs", expect.epochs);
  io("min_separation", expect.min_separation);
}

template <typename Io, util::FieldsOf<AdversarialScenario> C>
void fields(Io& io, C& scenario) {
  io.constant("type", "lumen-adversarial-scenario");
  io.constant("version", 1);
  io("fitness", scenario.fitness, fitness_from_string);
  io("score", scenario.score);
  io("expect", scenario.expect);
  io.omit_default("note", scenario.note);
  io.required("scenario", scenario.scenario);
}

std::string adversarial_scenario_to_json(const AdversarialScenario& scenario) {
  return util::json_write(util::write_fields(scenario)) + "\n";
}

AdversarialScenarioParse adversarial_scenario_from_json(std::string_view text) {
  AdversarialScenarioParse out;
  AdversarialScenario scenario;
  out.error = util::read_document(text, scenario);
  if (out.error.empty()) {
    if (std::string problem = analysis::validate_scenario(scenario.scenario);
        !problem.empty()) {
      out.error = "scenario." + problem;
    }
  }
  if (out.error.empty()) out.scenario = std::move(scenario);
  return out;
}

bool save_adversarial_scenario(const AdversarialScenario& scenario,
                               const std::string& path) {
  return util::save_document(path, adversarial_scenario_to_json(scenario));
}

AdversarialScenarioParse load_adversarial_scenario(const std::string& path) {
  return util::load_document(path, adversarial_scenario_from_json);
}

AdversarialScenario make_regression_scenario(const HuntSpec& spec,
                                             const Evaluation& minimized,
                                             std::string note) {
  AdversarialScenario scenario;
  scenario.fitness = spec.fitness;
  scenario.scenario = hunt_scenario(spec, minimized.plan);
  scenario.score = minimized.score;
  scenario.expect.outcome = minimized.metrics.outcome;
  scenario.expect.epochs = minimized.metrics.epochs;
  scenario.expect.min_separation = minimized.metrics.min_observed_separation;
  scenario.note = std::move(note);
  return scenario;
}

ReplayVerdict replay_adversarial_scenario(const AdversarialScenario& scenario,
                                          util::ThreadPool* pool) {
  ReplayVerdict verdict;
  const std::size_t n =
      scenario.scenario.ns.empty() ? 0 : scenario.scenario.ns.front();
  const analysis::CampaignResult result =
      analysis::run_campaign(scenario.scenario.campaign(n), pool);
  if (result.runs.size() != 1) {
    verdict.detail = result.errors.empty()
                         ? "scenario produced no metrics"
                         : "cell error: " + result.errors.front().detail;
    return verdict;
  }
  verdict.ran = true;
  verdict.metrics = result.runs.front();
  verdict.score = fitness_score(scenario.fitness, verdict.metrics);
  verdict.outcome_matches =
      verdict.metrics.outcome == scenario.expect.outcome;
  verdict.epochs_match = verdict.metrics.epochs == scenario.expect.epochs;
  verdict.min_separation_matches = verdict.metrics.min_observed_separation ==
                                   scenario.expect.min_separation;
  if (!verdict.passed()) {
    std::ostringstream detail;
    detail << "expected outcome=" << sim::to_string(scenario.expect.outcome)
           << " epochs=" << scenario.expect.epochs
           << " min_separation=" << scenario.expect.min_separation
           << "; replay got outcome="
           << sim::to_string(verdict.metrics.outcome)
           << " epochs=" << verdict.metrics.epochs
           << " min_separation=" << verdict.metrics.min_observed_separation;
    verdict.detail = detail.str();
  }
  return verdict;
}

}  // namespace lumen::search
