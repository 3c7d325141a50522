// lumen_search: the adversary genome.
//
// An AdversaryPlan is everything the search driver is allowed to vary when
// hunting for worst cases: the timing/activation adversary, the swarm size,
// the run seed (which fixes both the initial configuration and every
// schedule/fault stream), and a full fault::FaultPlan. A plan plus a
// HuntSpec (hunt.hpp) projects onto exactly one campaign cell, so every
// fitness evaluation is a deterministic, journalable unit of work — the
// same contract campaigns already have.
//
// A plan's compact JSON form (plan_fingerprint) is its digest key (the
// EvaluationMemo in hunt.hpp keys the cell a plan projects to), and the
// seeded mutation / crossover operators are pure functions of (input plans,
// bounds, rng state): a hunt's whole trajectory replays bit-identically
// from its seed (tests/search_test.cpp).
#pragma once

#include "fault/plan.hpp"
#include "sched/activation.hpp"
#include "sched/adversary.hpp"
#include "sim/run.hpp"
#include "util/prng.hpp"

#include <cstddef>
#include <cstdint>
#include <string>

namespace lumen::search {

struct AdversaryPlan {
  sim::SchedulerKind scheduler = sim::SchedulerKind::kAsync;
  sched::AdversaryKind adversary = sched::AdversaryKind::kUniform;
  sched::ActivationKind activation = sched::ActivationKind::kRandomHalf;
  std::size_t n = 16;
  /// Run seed: fixes the initial configuration (gen::generate) and every
  /// schedule/fault stream. Kept in [0, 2^63) so it survives the integer
  /// JSON form ScenarioSpec uses for seed_base.
  std::uint64_t seed = 1;
  fault::FaultPlan fault;

  friend bool operator==(const AdversaryPlan&, const AdversaryPlan&) = default;
};

/// The mutation domain: every operator clamps back into these ranges, so a
/// hunt can never wander into sizes or fault rates the budget (or the spec
/// validator) would reject. No operator changes plan.scheduler — a hunt
/// compares like with like (epoch counts mean different things under
/// different schedulers); the adversary/activation KINDS do mutate. The
/// swarm size range is per hunt; the fault caps below are fixed.
struct PlanBounds {
  std::size_t n_min = 8;
  std::size_t n_max = 48;
};

/// The fault channels' search caps (all probabilities are <= 1).
inline constexpr std::size_t kMaxCrashCount = 6;
inline constexpr double kMaxCrashRate = 0.2;
inline constexpr double kMaxCrashTime = 64.0;
inline constexpr std::size_t kMaxCrashTimes = 8;  ///< Explicit schedule length.
inline constexpr double kMaxLightProbability = 0.3;
inline constexpr double kMaxNoiseSigma = 0.05;
inline constexpr double kMaxNoiseDropout = 0.2;

/// Clamps every searched field into `bounds` and the fault caps.
/// Idempotent; mutation/crossover call it on their results.
void clamp_plan(AdversaryPlan& plan, const PlanBounds& bounds);

/// A fresh random plan around `base` (scheduler kept from base): random
/// kinds, size, seed, and each fault channel enabled with probability 1/2.
/// Deterministic in rng state.
[[nodiscard]] AdversaryPlan random_plan(const AdversaryPlan& base,
                                        const PlanBounds& bounds,
                                        util::Prng& rng);

/// Applies 1-2 random point mutations (reseed/nudge, size step, kind flips,
/// per-channel fault perturbations). Deterministic in (plan, bounds, rng).
[[nodiscard]] AdversaryPlan mutate(const AdversaryPlan& plan,
                                   const PlanBounds& bounds, util::Prng& rng);

/// Uniform block crossover: kinds, size, seed and each fault channel are
/// inherited from one parent each. Deterministic in (parents, rng).
[[nodiscard]] AdversaryPlan crossover(const AdversaryPlan& a,
                                      const AdversaryPlan& b, util::Prng& rng);

/// Compact single-line JSON form (fixed key order; the fault object always
/// present) — the digest key for a plan.
[[nodiscard]] std::string plan_fingerprint(const AdversaryPlan& plan);

}  // namespace lumen::search
