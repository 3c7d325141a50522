// The adversarial search subsystem (src/search): genome operator
// determinism, hunt-trajectory bit-identity across repeats and pool sizes
// (pinned by a golden digest), journaled hunts running each distinct cell
// once, the shrinking minimizer's contract and its windows against a copy
// of the serial sweep, regression-scenario round-trip/replay, and the E13
// external registration hook.
#include "analysis/journal.hpp"
#include "search/experiment.hpp"
#include "search/hunt.hpp"
#include "search/minimize.hpp"
#include "search/plan.hpp"
#include "search/scenario_io.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lumen::search {
namespace {

// A hunt small enough for a unit test but big enough to exercise every
// stage: several (mu+lambda) generations plus a minimization pass.
HuntSpec tiny_spec(FitnessKind fitness = FitnessKind::kEpochs) {
  HuntSpec spec;
  spec.fitness = fitness;
  spec.hunt_seed = 7;
  spec.seed_plan.n = 8;
  spec.bounds.n_min = 6;
  spec.bounds.n_max = 10;
  spec.budget = 10;
  spec.population = 2;
  spec.offspring = 4;
  spec.minimize_budget = 8;
  spec.max_cycles_per_robot = 96;
  return spec;
}

// ---------------------------------------------------------------------------
// Operators.

TEST(AdversaryPlan, OperatorsAreDeterministicInTheRngState) {
  const PlanBounds bounds;
  AdversaryPlan base;
  util::Prng rng_a(42);
  util::Prng rng_b(42);
  for (int i = 0; i < 50; ++i) {
    const AdversaryPlan ra = random_plan(base, bounds, rng_a);
    const AdversaryPlan rb = random_plan(base, bounds, rng_b);
    ASSERT_EQ(ra, rb);
    const AdversaryPlan ma = mutate(ra, bounds, rng_a);
    const AdversaryPlan mb = mutate(rb, bounds, rng_b);
    ASSERT_EQ(ma, mb);
    ASSERT_EQ(crossover(ra, ma, rng_a), crossover(rb, mb, rng_b));
  }
}

TEST(AdversaryPlan, MutationStaysInsideBounds) {
  PlanBounds bounds;
  bounds.n_min = 6;
  bounds.n_max = 12;
  util::Prng rng(5);
  AdversaryPlan plan;
  for (int i = 0; i < 500; ++i) {
    plan = mutate(plan, bounds, rng);
    ASSERT_GE(plan.n, bounds.n_min);
    ASSERT_LE(plan.n, bounds.n_max);
    ASSERT_LE(plan.fault.crash.count, kMaxCrashCount);
    ASSERT_LE(plan.fault.crash.rate, kMaxCrashRate);
    ASSERT_LE(plan.fault.crash.times.size(), kMaxCrashTimes);
    for (const double t : plan.fault.crash.times) {
      ASSERT_GE(t, 0.0);
      ASSERT_LE(t, kMaxCrashTime);
    }
    ASSERT_LE(plan.fault.light.probability, kMaxLightProbability);
    ASSERT_LE(plan.fault.noise.sigma, kMaxNoiseSigma);
    ASSERT_LE(plan.fault.noise.dropout, kMaxNoiseDropout);
    // The scheduler never mutates.
    ASSERT_EQ(plan.scheduler, sim::SchedulerKind::kAsync);
  }
}

TEST(AdversaryPlan, ClampForcesTheFsyncActivationInvariant) {
  const PlanBounds bounds;
  AdversaryPlan plan;
  plan.scheduler = sim::SchedulerKind::kFsync;
  plan.activation = sched::ActivationKind::kRandomHalf;
  clamp_plan(plan, bounds);
  EXPECT_EQ(plan.activation, sched::ActivationKind::kAll);
  plan.scheduler = sim::SchedulerKind::kAsync;
  clamp_plan(plan, bounds);
  EXPECT_NE(plan.activation, sched::ActivationKind::kAll);
}

TEST(AdversaryPlan, ClampPullsEveryFaultChannelIntoItsCap) {
  AdversaryPlan plan;
  plan.fault.crash.count = 100;
  plan.fault.crash.rate = 5.0;
  plan.fault.crash.times.assign(2 * kMaxCrashTimes, 1000.0);
  plan.fault.crash.times.front() = -1.0;
  plan.fault.light.probability = 2.0;
  plan.fault.noise.sigma = 1.0;
  plan.fault.noise.dropout = 3.0;
  clamp_plan(plan, PlanBounds{});
  EXPECT_EQ(plan.fault.crash.count, kMaxCrashCount);
  EXPECT_EQ(plan.fault.crash.rate, kMaxCrashRate);
  ASSERT_EQ(plan.fault.crash.times.size(), kMaxCrashTimes);
  EXPECT_EQ(plan.fault.crash.times.front(), 0.0);
  EXPECT_EQ(plan.fault.crash.times.back(), kMaxCrashTime);
  EXPECT_EQ(plan.fault.light.probability, kMaxLightProbability);
  EXPECT_EQ(plan.fault.noise.sigma, kMaxNoiseSigma);
  EXPECT_EQ(plan.fault.noise.dropout, kMaxNoiseDropout);
}

// ---------------------------------------------------------------------------
// Hunt determinism.

TEST(Hunt, SameSeedSameTrajectory) {
  const HuntSpec spec = tiny_spec();
  const HuntResult a = run_hunt(spec);
  const HuntResult b = run_hunt(spec);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    ASSERT_EQ(a.history[i].plan, b.history[i].plan) << "i=" << i;
    ASSERT_EQ(a.history[i].score, b.history[i].score) << "i=" << i;
  }
  ASSERT_TRUE(a.best.has_value());
  EXPECT_EQ(a.best->plan, b.best->plan);
  EXPECT_EQ(hunt_digest(a), hunt_digest(b));
}

TEST(Hunt, DigestIsInvariantAcrossPoolSizes) {
  // The whole trajectory — proposals, scores, winner, minimization — is
  // assembled on the driver thread and index-addressed, so the worker count
  // can only change wall-clock time, never a byte of the result. Pools of 2
  // and 3 cut the minimizer's windows short of the candidates left.
  const HuntSpec spec = tiny_spec();
  util::ThreadPool serial{1};
  const std::uint64_t expected = hunt_digest(run_hunt(spec, &serial));
  for (const std::size_t threads : {2u, 3u, 4u}) {
    util::ThreadPool pool{threads};
    EXPECT_EQ(hunt_digest(run_hunt(spec, &pool)), expected)
        << threads << " threads";
  }
}

TEST(Hunt, JournalsEachDistinctPlanOnce) {
  // A plan proposed twice runs once: the journal holds no (key, seed) pair
  // twice, while the history keeps every proposal, each repeat carrying
  // the evaluation of its first occurrence. Pinning N (as `lumen-bench
  // hunt --n=8` does) leaves mutation fewer distinct plans to reach, so
  // this hunt proposes some twice.
  HuntSpec spec = tiny_spec();
  spec.bounds.n_min = spec.bounds.n_max = spec.seed_plan.n;
  const std::string path = testing::TempDir() + "search_test_journal." +
                           std::to_string(::getpid()) + ".jsonl";
  std::filesystem::remove(path);
  std::atomic<std::size_t> cells_run{0};
  analysis::CampaignControl control;
  control.on_cell = [&](std::uint64_t) { ++cells_run; };
  HuntResult result;
  {
    analysis::CampaignJournal journal(path);
    ASSERT_TRUE(journal.ok());
    control.journal = &journal;
    result = run_hunt(spec, nullptr, control);
  }
  const analysis::JournalLoad load = analysis::load_journal(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(load.snapshot.has_value()) << load.error;
  EXPECT_EQ(load.duplicate_cells, 0u);
  EXPECT_EQ(load.snapshot->cell_count(), cells_run.load());
  EXPECT_EQ(hunt_digest(result), hunt_digest(run_hunt(spec)));

  std::map<std::string, const Evaluation*> first;
  std::size_t repeats = 0;
  for (const Evaluation& evaluation : result.history) {
    const auto [it, inserted] =
        first.try_emplace(plan_fingerprint(evaluation.plan), &evaluation);
    if (inserted) continue;
    ++repeats;
    EXPECT_EQ(evaluation.plan, it->second->plan);
    EXPECT_EQ(evaluation.score, it->second->score);
    EXPECT_EQ(evaluation.metrics, it->second->metrics);
    EXPECT_EQ(evaluation.failed, it->second->failed);
  }
  EXPECT_GT(repeats, 0u) << "the hunt no longer proposes a plan twice";
  EXPECT_GE(cells_run.load(), first.size());
}

TEST(Hunt, OneMemoRunsEachCellOnceAcrossFitnesses) {
  // `lumen-bench hunt --fitness=all` and E13 hunt every fitness through one
  // memo keyed by cell. The min-separation and outcome hunts both audit
  // collisions and start from the same seed plan, so their cells coincide:
  // through one memo the journal holds no (key, seed) pair twice, and every
  // hunt's trajectory is the one it has on its own.
  const std::string path = testing::TempDir() + "search_test_memo." +
                           std::to_string(::getpid()) + ".jsonl";
  std::filesystem::remove(path);
  std::atomic<std::size_t> shared_cells{0};
  analysis::CampaignControl control;
  control.on_cell = [&](std::uint64_t) { ++shared_cells; };
  std::vector<std::uint64_t> digests;
  {
    analysis::CampaignJournal journal(path);
    ASSERT_TRUE(journal.ok());
    control.journal = &journal;
    EvaluationMemo memo;
    for (const FitnessKind fitness : all_fitness_kinds()) {
      digests.push_back(hunt_digest(run_hunt(tiny_spec(fitness), nullptr, control, &memo)));
    }
  }
  const analysis::JournalLoad load = analysis::load_journal(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(load.snapshot.has_value()) << load.error;
  EXPECT_EQ(load.duplicate_cells, 0u);
  EXPECT_EQ(load.snapshot->cell_count(), shared_cells.load());

  std::size_t standalone_cells = 0;
  for (std::size_t k = 0; k < all_fitness_kinds().size(); ++k) {
    std::atomic<std::size_t> cells{0};
    analysis::CampaignControl alone;
    alone.on_cell = [&](std::uint64_t) { ++cells; };
    const FitnessKind fitness = all_fitness_kinds()[k];
    EXPECT_EQ(digests[k], hunt_digest(run_hunt(tiny_spec(fitness), nullptr, alone)))
        << to_string(fitness);
    standalone_cells += cells.load();
  }
  EXPECT_LT(shared_cells.load(), standalone_cells) << "no cell was shared";
}

TEST(Hunt, GoldenDigestPinned) {
  // Golden cross-platform constant, same philosophy as sim_golden_test: a
  // change here means the search trajectory itself changed — bump
  // deliberately, with a CHANGES.md note.
  const HuntResult result = run_hunt(tiny_spec());
  EXPECT_EQ(hunt_digest(result), 0x1afc49f41586d6d2ULL)
      << std::hex << hunt_digest(result);
}

TEST(Hunt, ValidatorRejectsBadSpecs) {
  HuntSpec spec = tiny_spec();
  spec.budget = 0;
  EXPECT_FALSE(validate_hunt_spec(spec).empty());
  spec = tiny_spec();
  spec.offspring = 0;
  EXPECT_FALSE(validate_hunt_spec(spec).empty());
  spec = tiny_spec();
  spec.bounds.n_min = 1;  // A swarm of one has no pair to hunt.
  EXPECT_FALSE(validate_hunt_spec(spec).empty());
  spec = tiny_spec();
  spec.bounds.n_min = 12;
  spec.bounds.n_max = 8;
  EXPECT_FALSE(validate_hunt_spec(spec).empty());
  spec = tiny_spec();
  spec.algorithm = "no-such-algorithm";
  EXPECT_FALSE(validate_hunt_spec(spec).empty());
  EXPECT_TRUE(validate_hunt_spec(tiny_spec()).empty());
}

// ---------------------------------------------------------------------------
// Minimizer.

// The serial sweep the windowed minimizer replaced, kept as its oracle: the
// same thirteen reductions in the same order, one candidate at a time.
std::optional<AdversaryPlan> serial_reduction(const AdversaryPlan& plan,
                                              const PlanBounds& bounds,
                                              std::size_t op,
                                              std::size_t index) {
  constexpr std::size_t kDropCrashTime = 2;
  if (op != kDropCrashTime && index > 0) return std::nullopt;
  AdversaryPlan out = plan;
  fault::FaultPlan& fault = out.fault;
  switch (op) {
    case 0:
      if (plan.n / 2 < bounds.n_min || plan.n / 2 == plan.n) return {};
      out.n = plan.n / 2;
      return out;
    case 1:
      if (plan.n <= bounds.n_min) return {};
      out.n = plan.n - 1;
      return out;
    case kDropCrashTime:
      if (index >= fault.crash.times.size()) return {};
      fault.crash.times.erase(fault.crash.times.begin() +
                              static_cast<std::ptrdiff_t>(index));
      return out;
    case 3:
      if (!fault.crash.active()) return {};
      fault.crash = fault::CrashPlan{};
      return out;
    case 4:
      if (fault.crash.count < 2) return {};
      --fault.crash.count;
      return out;
    case 5:
      if (!(fault.crash.rate > 0.0)) return {};
      fault.crash.rate /= 2.0;
      return out;
    case 6:
      if (!fault.light.active()) return {};
      fault.light = fault::LightCorruptionPlan{};
      return out;
    case 7:
      if (!(fault.light.probability > 0.0)) return {};
      fault.light.probability /= 2.0;
      return out;
    case 8:
      if (!fault.noise.active()) return {};
      fault.noise = fault::SensorNoisePlan{};
      return out;
    case 9:
      if (!(fault.noise.sigma > 0.0)) return {};
      fault.noise.sigma /= 2.0;
      return out;
    case 10:
      if (!(fault.noise.dropout > 0.0)) return {};
      fault.noise.dropout = 0.0;
      return out;
    case 11:
      if (plan.adversary == sched::AdversaryKind::kUniform) return {};
      out.adversary = sched::AdversaryKind::kUniform;
      return out;
    case 12:
      if (plan.scheduler == sim::SchedulerKind::kFsync ||
          plan.activation == sched::ActivationKind::kRandomHalf) {
        return {};
      }
      out.activation = sched::ActivationKind::kRandomHalf;
      return out;
    default:
      return {};
  }
}

MinimizeOutcome serial_minimize(const HuntSpec& spec, const Evaluation& winner) {
  constexpr std::size_t kReductions = 13;
  MinimizeOutcome outcome;
  outcome.evaluation = winner;
  if (winner.failed) return outcome;
  const int target_rank = outcome_rank(winner.metrics.outcome);
  bool improved = true;
  while (improved && outcome.evaluations < spec.minimize_budget) {
    improved = false;
    for (std::size_t op = 0; op < kReductions; ++op) {
      for (std::size_t index = 0;; ++index) {
        if (outcome.evaluations >= spec.minimize_budget) return outcome;
        std::optional<AdversaryPlan> candidate =
            serial_reduction(outcome.evaluation.plan, spec.bounds, op, index);
        if (!candidate.has_value()) break;
        if (*candidate == outcome.evaluation.plan) break;
        Evaluation trial = evaluate_plan(spec, *candidate, nullptr, {});
        ++outcome.evaluations;
        outcome.trail.push_back(trial);
        const bool keeps_class =
            !trial.failed &&
            outcome_rank(trial.metrics.outcome) == target_rank;
        if (keeps_class && trial.score >= winner.score) {
          outcome.evaluation = std::move(trial);
          ++outcome.accepted;
          improved = true;
          index = static_cast<std::size_t>(-1);
        }
      }
    }
  }
  return outcome;
}

void expect_same_evaluation(const Evaluation& a, const Evaluation& b,
                            const std::string& where) {
  EXPECT_EQ(a.plan, b.plan) << where;
  EXPECT_EQ(a.score, b.score) << where;
  EXPECT_EQ(a.metrics, b.metrics) << where;
  EXPECT_EQ(a.failed, b.failed) << where;
}

TEST(Minimize, WindowsReproduceTheSerialSweep) {
  // Whatever the window width, the minimizer keeps exactly the serial
  // sweep's trail, counts and result: discarded speculative candidates
  // leave no trace but a journal record.
  std::size_t accepted = 0;
  for (const FitnessKind fitness :
       {FitnessKind::kEpochs, FitnessKind::kOutcome,
        FitnessKind::kMinSeparation}) {
    HuntSpec spec = tiny_spec(fitness);
    spec.minimize_budget = 24;
    const HuntResult hunt = run_hunt(spec);
    ASSERT_TRUE(hunt.best.has_value());
    const MinimizeOutcome oracle = serial_minimize(spec, *hunt.best);
    accepted += oracle.accepted;
    for (const std::size_t threads : {1u, 2u, 3u, 4u, 7u}) {
      const std::string where = std::string(to_string(fitness)) + ", " +
                                std::to_string(threads) + " threads";
      util::ThreadPool pool{threads};
      const MinimizeOutcome windowed = minimize_plan(spec, *hunt.best, &pool);
      EXPECT_EQ(windowed.evaluations, oracle.evaluations) << where;
      EXPECT_EQ(windowed.accepted, oracle.accepted) << where;
      ASSERT_EQ(windowed.trail.size(), oracle.trail.size()) << where;
      for (std::size_t i = 0; i < oracle.trail.size(); ++i) {
        expect_same_evaluation(windowed.trail[i], oracle.trail[i],
                               where + ", trail " + std::to_string(i));
      }
      expect_same_evaluation(windowed.evaluation, oracle.evaluation, where);
    }
  }
  EXPECT_GT(accepted, 0u) << "no fitness accepted a shrink step";
}

TEST(Minimize, PreservesTheOutcomeClassAndTheScoreFloor) {
  const HuntSpec spec = tiny_spec(FitnessKind::kOutcome);
  const HuntResult result = run_hunt(spec);
  ASSERT_TRUE(result.best.has_value());
  ASSERT_TRUE(result.minimized.has_value());
  EXPECT_EQ(outcome_rank(result.minimized->metrics.outcome),
            outcome_rank(result.best->metrics.outcome));
  // A shrink step is only accepted when it keeps the full score.
  EXPECT_GE(result.minimized->score, result.best->score);
  // The minimized plan is never larger than the winner.
  EXPECT_LE(result.minimized->plan.n, result.best->plan.n);
}

TEST(Minimize, IsDeterministic) {
  const HuntSpec spec = tiny_spec(FitnessKind::kMinSeparation);
  const HuntResult a = run_hunt(spec);
  const HuntResult b = run_hunt(spec);
  ASSERT_TRUE(a.minimized.has_value());
  ASSERT_TRUE(b.minimized.has_value());
  EXPECT_EQ(a.minimized->plan, b.minimized->plan);
  EXPECT_EQ(a.minimize_evals, b.minimize_evals);
  EXPECT_EQ(a.minimize_accepted, b.minimize_accepted);
}

// ---------------------------------------------------------------------------
// Regression-scenario round-trip and replay.

TEST(ScenarioIO, MinimizedWinnerRoundTripsAndReplaysExactly) {
  const HuntSpec spec = tiny_spec();
  const HuntResult result = run_hunt(spec);
  ASSERT_TRUE(result.minimized.has_value());
  const AdversarialScenario scenario =
      make_regression_scenario(spec, *result.minimized, "unit test");
  const std::string text = adversarial_scenario_to_json(scenario);
  const auto parsed = adversarial_scenario_from_json(text);
  ASSERT_TRUE(parsed.scenario.has_value()) << parsed.error;
  EXPECT_EQ(adversarial_scenario_to_json(*parsed.scenario), text);

  // A replayed scenario reproduces its hunt evaluation bit-for-bit: the
  // oracle and the replay are the same hunt_scenario projection.
  const ReplayVerdict verdict = replay_adversarial_scenario(*parsed.scenario);
  EXPECT_TRUE(verdict.passed()) << verdict.detail;
  EXPECT_EQ(verdict.score, result.minimized->score);
}

TEST(ScenarioIO, RejectsUnknownKeysAndWrongType) {
  EXPECT_FALSE(
      adversarial_scenario_from_json(R"({"type": "wrong"})").scenario
          .has_value());
  const HuntSpec spec = tiny_spec();
  Evaluation fake;
  fake.plan = spec.seed_plan;
  const std::string text =
      adversarial_scenario_to_json(make_regression_scenario(spec, fake));
  const std::string corrupted =
      text.substr(0, text.size() - 2) + ",\n  \"extra\": 1\n}";
  const auto parsed = adversarial_scenario_from_json(corrupted);
  EXPECT_FALSE(parsed.scenario.has_value());
  EXPECT_NE(parsed.error.find("extra"), std::string::npos) << parsed.error;
}

TEST(Fitness, NamesRoundTripAndUnknownNamesAreRejected) {
  for (const FitnessKind kind : all_fitness_kinds()) {
    EXPECT_EQ(fitness_from_string(to_string(kind)), kind) << to_string(kind);
  }
  EXPECT_EQ(fitness_from_string("Epochs"), FitnessKind::kEpochs);  // One case rule.
  EXPECT_EQ(fitness_from_string(""), std::nullopt);
}

// ---------------------------------------------------------------------------
// E13 registration.

TEST(Experiment, ExternalRegistrationIsIdempotent) {
  register_hunt_experiment();
  const std::size_t count =
      analysis::ExperimentRegistry::instance().experiments().size();
  register_hunt_experiment();
  EXPECT_EQ(analysis::ExperimentRegistry::instance().experiments().size(),
            count);
  const auto* by_id = analysis::ExperimentRegistry::instance().find("E13");
  const auto* by_name =
      analysis::ExperimentRegistry::instance().find("adversarial-hunt");
  ASSERT_NE(by_id, nullptr);
  EXPECT_EQ(by_id, by_name);
}

TEST(Experiment, TinySpecProducesOneRowPerFitness) {
  register_hunt_experiment();
  const auto* e = analysis::ExperimentRegistry::instance().find("E13");
  ASSERT_NE(e, nullptr);
  analysis::ScenarioSpec spec = e->defaults;
  spec.ns = {8};
  spec.runs = 2;
  spec.run.max_cycles_per_robot = 96;
  analysis::ExperimentContext ctx;
  const auto result = e->run(spec, ctx);
  EXPECT_EQ(result.rows.size(), all_fitness_kinds().size());
  EXPECT_EQ(result.columns.size(), 8u);
  // Only the structural claim is budget-independent; whether a toy-budget
  // hunt beats the uniform tail is a property of the full-size run (the
  // committed E13 tables), not of this smoke-scale shape test.
  for (const auto& check : result.checks) {
    if (check.label.find("found and minimized") != std::string::npos) {
      EXPECT_EQ(check.verdict, analysis::Verdict::kPass) << check.label;
    }
  }
}

}  // namespace
}  // namespace lumen::search
