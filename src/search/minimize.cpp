#include "search/minimize.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

namespace lumen::search {
namespace {

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

/// Where the serial sweep stands: the operator and site it tries next, and
/// whether the current sweep has accepted a candidate yet.
struct Cursor {
  std::size_t op = 0;
  std::size_t site = 0;
  bool accepted = false;
};

/// The next candidate the sweep tries against `plan` from `at`, supposing
/// nothing is accepted meanwhile; moves `at` past it. A multi-site operator
/// (crash-instant drops) iterates its sites, a single-site one bails after
/// site 0, and a sweep that ends having accepted a candidate starts the
/// next. nullopt when a sweep ends with nothing accepted: the plan is
/// 1-minimal w.r.t. the operator set.
std::optional<AdversaryPlan> next_candidate(const AdversaryPlan& plan,
                                            const PlanBounds& bounds,
                                            Cursor& at) {
  for (;;) {
    if (at.op == std::size(kReductions)) {
      if (!at.accepted) return std::nullopt;
      at = Cursor{};
    }
    std::optional<AdversaryPlan> candidate =
        kReductions[at.op](plan, bounds, at.site);
    if (candidate.has_value() && *candidate != plan) {
      ++at.site;
      return candidate;
    }
    ++at.op;
    at.site = 0;
  }
}

}  // namespace

MinimizeOutcome minimize_plan(const HuntSpec& spec, const Evaluation& winner,
                              util::ThreadPool* pool,
                              const analysis::CampaignControl& control,
                              EvaluationMemo* memo) {
  MinimizeOutcome outcome;
  outcome.evaluation = winner;
  if (winner.failed) return outcome;
  const int target_rank = outcome_rank(winner.metrics.outcome);
  util::ThreadPool& workers = pool != nullptr ? *pool : util::global_pool();

  Cursor cursor;
  while (outcome.evaluations < spec.minimize_budget &&
         !control.stop_requested()) {
    // The window: the next candidates the serial sweep would try if it
    // accepted none of them, with the cursor after each.
    const std::size_t width = std::min(
        workers.slot_count(), spec.minimize_budget - outcome.evaluations);
    std::vector<AdversaryPlan> window;
    std::vector<Cursor> after;
    Cursor probe = cursor;
    while (window.size() < width) {
      std::optional<AdversaryPlan> candidate =
          next_candidate(outcome.evaluation.plan, spec.bounds, probe);
      if (!candidate.has_value()) break;
      window.push_back(std::move(*candidate));
      after.push_back(probe);
    }
    if (window.empty()) break;

    std::vector<Evaluation> trials =
        evaluate_plans(spec, window, &workers, control, memo);
    // Consume in serial order; the first acceptance ends the window and the
    // candidates after it are discarded (they were tried against a plan the
    // serial sweep has already moved past).
    for (std::size_t k = 0; k < trials.size(); ++k) {
      ++outcome.evaluations;
      outcome.trail.push_back(trials[k]);
      cursor = after[k];
      const bool keeps_class =
          !trials[k].failed &&
          outcome_rank(trials[k].metrics.outcome) == target_rank;
      if (keeps_class && trials[k].score >= winner.score) {
        outcome.evaluation = std::move(trials[k]);
        ++outcome.accepted;
        // Restart this operator from site 0 against the shrunken plan.
        cursor.site = 0;
        cursor.accepted = true;
        break;
      }
    }
  }
  return outcome;
}

}  // namespace lumen::search
