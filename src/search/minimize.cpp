#include "search/minimize.hpp"

#include <algorithm>
#include <vector>

namespace lumen::search {
namespace {

bool stop_requested(const analysis::CampaignControl& control) {
  return control.stop != nullptr &&
         control.stop->load(std::memory_order_relaxed);
}

/// The reduction operators, in the order tried within one sweep. Each
/// returns a candidate derived from `current`, or nullopt when it does not
/// apply. `index` selects among multi-site operators (crash instants).
using Reduction = std::optional<AdversaryPlan> (*)(const AdversaryPlan&,
                                                   const PlanBounds&,
                                                   std::size_t);

std::optional<AdversaryPlan> halve_n(const AdversaryPlan& plan,
                                     const PlanBounds& bounds, std::size_t index) {
  if (index > 0) return std::nullopt;
  if (plan.n / 2 < bounds.n_min || plan.n / 2 == plan.n) return std::nullopt;
  AdversaryPlan out = plan;
  out.n = plan.n / 2;
  return out;
}

std::optional<AdversaryPlan> decrement_n(const AdversaryPlan& plan,
                                         const PlanBounds& bounds,
                                         std::size_t index) {
  if (index > 0) return std::nullopt;
  if (plan.n <= bounds.n_min) return std::nullopt;
  AdversaryPlan out = plan;
  out.n = plan.n - 1;
  return out;
}

std::optional<AdversaryPlan> drop_crash_time(const AdversaryPlan& plan,
                                             const PlanBounds&,
                                             std::size_t index) {
  if (index >= plan.fault.crash.times.size()) return std::nullopt;
  AdversaryPlan out = plan;
  out.fault.crash.times.erase(out.fault.crash.times.begin() +
                              static_cast<std::ptrdiff_t>(index));
  return out;
}

std::optional<AdversaryPlan> disable_crash(const AdversaryPlan& plan,
                                           const PlanBounds&, std::size_t index) {
  if (index > 0) return std::nullopt;
  if (!plan.fault.crash.active()) return std::nullopt;
  AdversaryPlan out = plan;
  out.fault.crash = fault::CrashPlan{};
  return out;
}

std::optional<AdversaryPlan> decrement_crash_count(const AdversaryPlan& plan,
                                                   const PlanBounds&,
                                                   std::size_t index) {
  if (index > 0) return std::nullopt;
  if (plan.fault.crash.count < 2) return std::nullopt;
  AdversaryPlan out = plan;
  out.fault.crash.count = plan.fault.crash.count - 1;
  return out;
}

std::optional<AdversaryPlan> halve_crash_rate(const AdversaryPlan& plan,
                                              const PlanBounds&, std::size_t index) {
  if (index > 0) return std::nullopt;
  if (!(plan.fault.crash.rate > 0.0)) return std::nullopt;
  AdversaryPlan out = plan;
  out.fault.crash.rate = plan.fault.crash.rate / 2.0;
  return out;
}

std::optional<AdversaryPlan> disable_light(const AdversaryPlan& plan,
                                           const PlanBounds&, std::size_t index) {
  if (index > 0) return std::nullopt;
  if (!plan.fault.light.active()) return std::nullopt;
  AdversaryPlan out = plan;
  out.fault.light = fault::LightCorruptionPlan{};
  return out;
}

std::optional<AdversaryPlan> halve_light_probability(const AdversaryPlan& plan,
                                                     const PlanBounds&,
                                                     std::size_t index) {
  if (index > 0) return std::nullopt;
  if (!(plan.fault.light.probability > 0.0)) return std::nullopt;
  AdversaryPlan out = plan;
  out.fault.light.probability = plan.fault.light.probability / 2.0;
  return out;
}

std::optional<AdversaryPlan> disable_noise(const AdversaryPlan& plan,
                                           const PlanBounds&, std::size_t index) {
  if (index > 0) return std::nullopt;
  if (!plan.fault.noise.active()) return std::nullopt;
  AdversaryPlan out = plan;
  out.fault.noise = fault::SensorNoisePlan{};
  return out;
}

std::optional<AdversaryPlan> halve_noise_sigma(const AdversaryPlan& plan,
                                               const PlanBounds&, std::size_t index) {
  if (index > 0) return std::nullopt;
  if (!(plan.fault.noise.sigma > 0.0)) return std::nullopt;
  AdversaryPlan out = plan;
  out.fault.noise.sigma = plan.fault.noise.sigma / 2.0;
  return out;
}

std::optional<AdversaryPlan> zero_noise_dropout(const AdversaryPlan& plan,
                                                const PlanBounds&,
                                                std::size_t index) {
  if (index > 0) return std::nullopt;
  if (!(plan.fault.noise.dropout > 0.0)) return std::nullopt;
  AdversaryPlan out = plan;
  out.fault.noise.dropout = 0.0;
  return out;
}

std::optional<AdversaryPlan> canonical_adversary(const AdversaryPlan& plan,
                                                 const PlanBounds&,
                                                 std::size_t index) {
  if (index > 0) return std::nullopt;
  if (plan.adversary == sched::AdversaryKind::kUniform) return std::nullopt;
  AdversaryPlan out = plan;
  out.adversary = sched::AdversaryKind::kUniform;
  return out;
}

std::optional<AdversaryPlan> canonical_activation(const AdversaryPlan& plan,
                                                  const PlanBounds&,
                                                  std::size_t index) {
  if (index > 0) return std::nullopt;
  if (plan.scheduler == sim::SchedulerKind::kFsync ||
      plan.activation == sched::ActivationKind::kRandomHalf) {
    return std::nullopt;
  }
  AdversaryPlan out = plan;
  out.activation = sched::ActivationKind::kRandomHalf;
  return out;
}

constexpr Reduction kReductions[] = {
    halve_n,           decrement_n,
    drop_crash_time,   disable_crash,
    decrement_crash_count, halve_crash_rate,
    disable_light,     halve_light_probability,
    disable_noise,     halve_noise_sigma,
    zero_noise_dropout, canonical_adversary,
    canonical_activation,
};

}  // namespace

MinimizeOutcome minimize_plan(const HuntSpec& spec, const Evaluation& winner,
                              util::ThreadPool* pool,
                              const analysis::CampaignControl& control) {
  MinimizeOutcome outcome;
  outcome.evaluation = winner;
  if (winner.failed) return outcome;
  const int target_rank = outcome_rank(winner.metrics.outcome);

  bool improved = true;
  while (improved && outcome.evaluations < spec.minimize_budget) {
    improved = false;
    for (const Reduction reduce : kReductions) {
      // Multi-site operators (crash-instant drops) iterate their sites;
      // single-site ones bail after index 0.
      for (std::size_t index = 0;; ++index) {
        if (outcome.evaluations >= spec.minimize_budget ||
            stop_requested(control)) {
          return outcome;
        }
        std::optional<AdversaryPlan> candidate =
            reduce(outcome.evaluation.plan, spec.bounds, index);
        if (!candidate.has_value()) break;
        if (*candidate == outcome.evaluation.plan) break;
        Evaluation trial = evaluate_plan(spec, *candidate, pool, control);
        ++outcome.evaluations;
        outcome.trail.push_back(trial);
        const bool keeps_class =
            !trial.failed &&
            outcome_rank(trial.metrics.outcome) == target_rank;
        if (keeps_class && trial.score >= winner.score) {
          outcome.evaluation = std::move(trial);
          ++outcome.accepted;
          improved = true;
          // Restart this operator from site 0 against the shrunken plan.
          index = static_cast<std::size_t>(-1);
        }
      }
    }
  }
  return outcome;
}

}  // namespace lumen::search
