// Golden-seed regression pinning for run_simulation.
//
// Each scenario fixes (algorithm, family, n, seed, config) and pins a digest
// of the ENTIRE RunResult — positions, lights, move log, hull history, epoch
// and cycle counts, all doubles compared bit-for-bit. The digests were
// captured from the pre-ExecutionCore engines; the refactored engines must
// reproduce every execution exactly. The scenario set deliberately covers
// the quiescence-detection corners: light-only final state changes,
// non-rigid moves that stop short, SSYNC partial activation (singleton and
// random-half), and all three schedulers.
//
// Recapture (only legitimate after an INTENDED semantics change):
//   g++ -std=c++20 -DGOLDEN_DUMP -Isrc tests/sim_golden_test.cpp <libs> &&
//   ./a.out
#include "core/registry.hpp"
#include "gen/generators.hpp"
#include "model/algorithm.hpp"
#include "sim/run.hpp"

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#ifdef GOLDEN_DUMP
#include <cstdio>
#else
#include <gtest/gtest.h>
#endif

namespace lumen::sim {
namespace {

using geom::Vec2;
using model::Action;
using model::Light;

// --- Probe algorithms covering quiescence corners -------------------------

/// Never moves, always shows Corner: the last state change of every robot is
/// the one light flip Off -> Corner.
class StayProbe final : public model::Algorithm {
 public:
  Action compute(const model::Snapshot&) const override {
    return Action::stay(Light::kCorner);
  }
  std::string_view name() const noexcept override { return "probe-stay"; }
  std::span<const Light> palette() const noexcept override {
    return model::kAllLights;
  }
};

/// Moves exactly once, then performs a LIGHT-ONLY change, then is null:
/// Off -> (move, Transit) -> (stay, Corner) -> null. The run's last state
/// change is the light-only Transit -> Corner commit, which exercises the
/// "light change alone must reset quiescence" path.
class MoveThenRecolorProbe final : public model::Algorithm {
 public:
  Action compute(const model::Snapshot& snap) const override {
    if (snap.self_light == Light::kOff) {
      return Action::move_to(Vec2{1.0, 0.0}, Light::kTransit);
    }
    if (snap.self_light == Light::kTransit) {
      return Action::stay(Light::kCorner);  // Light-only change.
    }
    return Action::stay(Light::kCorner);
  }
  std::string_view name() const noexcept override { return "probe-move-recolor"; }
  std::span<const Light> palette() const noexcept override {
    return model::kAllLights;
  }
};

// --- RunResult digest ------------------------------------------------------

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t bits(double d) noexcept {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// `hull` is the HullHistoryRecorder's samples when the scenario records
/// them, mixed in where the digest has always placed the hull history.
std::uint64_t run_digest(const RunResult& r,
                         std::span<const HullSample> hull = {}) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, r.converged ? 1 : 0);
  h = mix(h, bits(r.final_time));
  h = mix(h, r.epochs);
  h = mix(h, r.rounds);
  h = mix(h, r.total_cycles);
  h = mix(h, r.total_moves);
  h = mix(h, bits(r.total_distance));
  for (const auto& p : r.initial_positions) {
    h = mix(h, bits(p.x));
    h = mix(h, bits(p.y));
  }
  for (const auto& p : r.final_positions) {
    h = mix(h, bits(p.x));
    h = mix(h, bits(p.y));
  }
  for (const Light l : r.final_lights) {
    h = mix(h, static_cast<std::uint64_t>(l));
  }
  for (const auto& m : r.moves) {
    h = mix(h, m.robot);
    h = mix(h, bits(m.t0));
    h = mix(h, bits(m.t1));
    h = mix(h, bits(m.from.x));
    h = mix(h, bits(m.from.y));
    h = mix(h, bits(m.to.x));
    h = mix(h, bits(m.to.y));
  }
  for (const auto& s : hull) {
    h = mix(h, s.epoch);
    h = mix(h, s.corners);
    h = mix(h, s.non_corners);
  }
  for (const bool b : r.lights_seen) h = mix(h, b ? 1 : 0);
  return h;
}

// --- Scenario table --------------------------------------------------------

struct Scenario {
  const char* label;
  const char* algorithm;  ///< Registry name, or "probe-stay"/"probe-move-recolor".
  SchedulerKind scheduler;
  sched::ActivationKind activation;
  sched::AdversaryKind adversary;
  gen::ConfigFamily family;
  std::size_t n;
  std::uint64_t seed;
  bool rigid;
  bool refresh_frames;
  bool hull_history;
  bool expect_converged;
  std::uint64_t expected_digest;
};

constexpr auto kDisk = gen::ConfigFamily::kUniformDisk;
constexpr auto kRing = gen::ConfigFamily::kRingWithCore;
constexpr auto kLattice = gen::ConfigFamily::kLattice;
constexpr auto kCollinear = gen::ConfigFamily::kCollinear;

// Digests captured from the seed engines (commit e8248a4); every entry was
// re-verified identical across the ExecutionCore refactor. async-hull-history
// was re-pinned when the corner census moved from every move completion to
// epoch boundaries; its RunResult half (run_digest with no census,
// 0x1d3bf26b76c34caa) did not change.
const Scenario kScenarios[] = {
    {"async-default", "async-log", SchedulerKind::kAsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kUniform, kDisk,
     24, 9, true, true, false, true, 0x72af1c94b18dca76ULL},
    {"async-nonrigid-stopshort", "async-log", SchedulerKind::kAsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kUniform, kDisk,
     24, 11, false, true, false, true, 0x72bee31a88d4f0e9ULL},
    {"async-fixed-frames-bursty", "async-log", SchedulerKind::kAsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kBursty, kDisk,
     16, 3, true, false, false, true, 0x0307521be868400fULL},
    {"async-hull-history", "async-log", SchedulerKind::kAsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kUniform, kRing,
     32, 6, true, true, true, true, 0xe19c95c0fcdb566cULL},
    {"async-stallone", "async-log", SchedulerKind::kAsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kStallOne, kDisk,
     16, 8, true, true, false, true, 0xe46f0fa4561f9308ULL},
    {"async-lockstep", "async-log", SchedulerKind::kAsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kLockstep, kDisk,
     16, 8, true, true, false, true, 0x069179f79cd8ce49ULL},
    {"async-seq-baseline", "seq-baseline", SchedulerKind::kAsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kUniform, kDisk,
     12, 4, true, true, false, true, 0xf529ce1e93aa23e5ULL},
    {"ssync-randomhalf", "ssync-parallel", SchedulerKind::kSsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kUniform, kDisk,
     20, 5, true, true, false, true, 0x26a963ee42f0017cULL},
    {"ssync-singleton-partial", "ssync-parallel", SchedulerKind::kSsync,
     sched::ActivationKind::kSingleton, sched::AdversaryKind::kUniform, kDisk,
     12, 2, true, true, false, true, 0x7de91e7e3e9820faULL},
    {"fsync-nonrigid", "ssync-parallel", SchedulerKind::kFsync,
     sched::ActivationKind::kAll, sched::AdversaryKind::kUniform, kDisk, 20, 5,
     false, true, false, true, 0xfd59f48fae3cf246ULL},
    {"async-light-only-final-change", "probe-move-recolor",
     SchedulerKind::kAsync, sched::ActivationKind::kRandomHalf,
     sched::AdversaryKind::kUniform, kDisk, 8, 13, true, true, false, true,
     0xfce4e5990005ef48ULL},
    {"ssync-singleton-light-only", "probe-move-recolor", SchedulerKind::kSsync,
     sched::ActivationKind::kSingleton, sched::AdversaryKind::kUniform, kDisk,
     6, 3, true, true, false, true, 0x3bfa1f5f46703c4dULL},
    {"async-stay-nonrigid", "probe-stay", SchedulerKind::kAsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kUniform, kDisk,
     10, 7, false, true, false, true, 0xe85142dab6edb307ULL},
    // Plugin algorithms (grid motion model / mutual-visibility predicate);
    // digests captured at the plugin-framework commit via GOLDEN_DUMP.
    {"grid-cv-lattice-async", "grid-cv", SchedulerKind::kAsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kUniform,
     kLattice, 16, 21, true, true, false, true, 0x75f6aba667366f17ULL},
    {"grid-cv-lattice-fsync", "grid-cv", SchedulerKind::kFsync,
     sched::ActivationKind::kAll, sched::AdversaryKind::kUniform, kLattice, 12,
     9, true, true, false, true, 0x7b3056d45912663aULL},
    {"mutual-vis-collinear-async", "mutual-vis", SchedulerKind::kAsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kUniform,
     kCollinear, 12, 5, true, true, false, true, 0x0e039c33356fe009ULL},
    {"mutual-vis-ssync", "mutual-vis", SchedulerKind::kSsync,
     sched::ActivationKind::kRandomHalf, sched::AdversaryKind::kUniform, kDisk,
     16, 7, true, true, false, true, 0xddc94f86894033cfULL},
};

struct ScenarioRun {
  RunResult run;
  std::vector<HullSample> hull;  ///< Empty unless the scenario records it.
};

ScenarioRun run_scenario(const Scenario& s) {
  RunConfig config;
  config.scheduler = s.scheduler;
  config.activation = s.activation;
  config.adversary = s.adversary;
  config.seed = s.seed;
  config.rigid_moves = s.rigid;
  config.refresh_frames_each_look = s.refresh_frames;
  const auto initial = gen::generate(s.family, s.n, s.seed);
  HullHistoryRecorder recorder;
  std::vector<RunObserver*> observers;
  if (s.hull_history) observers.push_back(&recorder);
  const auto run = [&](const model::Algorithm& algo) {
    ScenarioRun out{run_simulation(algo, initial, config, observers), {}};
    out.hull = std::move(recorder.samples());
    return out;
  };
  const std::string_view name{s.algorithm};
  if (name == "probe-stay") return run(StayProbe{});
  if (name == "probe-move-recolor") return run(MoveThenRecolorProbe{});
  return run(*core::make_algorithm(name));
}

#ifndef GOLDEN_DUMP

TEST(GoldenSeeds, RunResultsAreBitIdenticalAcrossSchedulers) {
  for (const Scenario& s : kScenarios) {
    const ScenarioRun out = run_scenario(s);
    EXPECT_EQ(out.run.converged, s.expect_converged) << s.label;
    EXPECT_EQ(run_digest(out.run, out.hull), s.expected_digest) << s.label;
  }
}

TEST(GoldenSeeds, DigestIsSensitiveToTheMoveLog) {
  // Guard against a digest that silently ignores fields: perturbing one move
  // endpoint must change it.
  RunResult run = run_scenario(kScenarios[0]).run;
  ASSERT_FALSE(run.moves.empty());
  const std::uint64_t before = run_digest(run);
  run.moves.back().to.x += 1e-9;
  EXPECT_NE(run_digest(run), before);
}

#else  // GOLDEN_DUMP

#endif

}  // namespace
}  // namespace lumen::sim

#ifdef GOLDEN_DUMP
int main() {
  using namespace lumen::sim;
  for (const Scenario& s : kScenarios) {
    const ScenarioRun out = run_scenario(s);
    std::printf("%-32s converged=%d digest=0x%016llxULL\n", s.label,
                out.run.converged ? 1 : 0,
                static_cast<unsigned long long>(run_digest(out.run, out.hull)));
  }
  return 0;
}
#endif
