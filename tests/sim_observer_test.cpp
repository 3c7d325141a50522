// RunObserver contract tests: hook ordering, recorder parity with the
// RunResult fields they replace, the hull recorder's cadence,
// streaming-vs-post-hoc collision audit equivalence, streaming epoch
// detection, and quiescence verdicts across schedulers.
#include "core/registry.hpp"
#include "gen/generators.hpp"
#include "sched/epoch.hpp"
#include "sim/monitors.hpp"
#include "sim/run.hpp"
#include "sim/streaming_collision.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace lumen::sim {
namespace {

using geom::Vec2;
using model::Light;

RunConfig scheduler_config(SchedulerKind scheduler, std::uint64_t seed) {
  RunConfig config;
  config.scheduler = scheduler;
  config.seed = seed;
  return config;
}

std::vector<Vec2> disk(std::size_t n, std::uint64_t seed) {
  return gen::generate(gen::ConfigFamily::kUniformDisk, n, seed);
}

// --- Hook ordering ---------------------------------------------------------

struct LoggedEvent {
  enum Kind { kBegin, kLook, kCommit, kMoveDone, kEpoch, kRound, kEnd } kind;
  double time = 0.0;
  std::size_t robot = 0;
};

class RecordingObserver final : public RunObserver {
 public:
  void on_run_begin(const WorldView& world) override {
    events.push_back({LoggedEvent::kBegin, world.time, 0});
  }
  void on_look(std::size_t robot, double time, const WorldView&) override {
    events.push_back({LoggedEvent::kLook, time, robot});
  }
  void on_commit(const CommitEvent& event, const WorldView&) override {
    events.push_back({LoggedEvent::kCommit, event.time, event.robot});
  }
  void on_move_complete(const MoveSegment& move, const WorldView& world) override {
    // The contract: the world already holds the landed position.
    EXPECT_EQ(world.position(move.robot).x, move.to.x);
    EXPECT_EQ(world.position(move.robot).y, move.to.y);
    EXPECT_FALSE(world.is_moving(move.robot));
    events.push_back({LoggedEvent::kMoveDone, move.t1, move.robot});
  }
  void on_epoch(std::size_t index, double end_time, const WorldView&) override {
    EXPECT_EQ(index, epochs_seen);
    ++epochs_seen;
    events.push_back({LoggedEvent::kEpoch, end_time, index});
  }
  void on_round(std::uint64_t round, double time, const WorldView&) override {
    events.push_back({LoggedEvent::kRound, time, round});
  }
  void on_run_end(const WorldView& world) override {
    events.push_back({LoggedEvent::kEnd, world.time, 0});
  }

  std::vector<LoggedEvent> events;
  std::size_t epochs_seen = 0;
};

TEST(ObserverHooks, AsyncDeliversTimeOrderedEventsBracketedByRunMarkers) {
  const auto algo = core::make_algorithm("async-log");
  const auto initial = disk(12, 21);
  RecordingObserver rec;
  RunObserver* obs[] = {&rec};
  const RunResult run =
      run_simulation(*algo, initial, scheduler_config(SchedulerKind::kAsync, 21), obs);
  ASSERT_TRUE(run.converged);
  ASSERT_GE(rec.events.size(), 4u);
  EXPECT_EQ(rec.events.front().kind, LoggedEvent::kBegin);
  EXPECT_EQ(rec.events.back().kind, LoggedEvent::kEnd);
  double last = 0.0;
  std::size_t completions = 0;
  for (const LoggedEvent& e : rec.events) {
    EXPECT_GE(e.time, last) << "hooks must fire in simulated-time order";
    last = e.time;
    if (e.kind == LoggedEvent::kMoveDone) ++completions;
    EXPECT_NE(e.kind, LoggedEvent::kRound) << "ASYNC has no rounds";
  }
  EXPECT_EQ(completions, run.total_moves);
  EXPECT_GT(rec.epochs_seen, 0u);
}

TEST(ObserverHooks, SyncDeliversAllCommitsBeforeAnyCompletionWithinARound) {
  const auto algo = core::make_algorithm("ssync-parallel");
  const auto initial = disk(14, 5);
  RecordingObserver rec;
  RunObserver* obs[] = {&rec};
  const RunResult run = run_simulation(
      *algo, initial, scheduler_config(SchedulerKind::kSsync, 5), obs);
  ASSERT_TRUE(run.converged);
  // Between round markers, no commit may follow a move completion.
  bool saw_completion = false;
  std::uint64_t rounds_seen = 0;
  for (const LoggedEvent& e : rec.events) {
    switch (e.kind) {
      case LoggedEvent::kRound:
        EXPECT_EQ(e.robot, rounds_seen) << "rounds must arrive in order";
        ++rounds_seen;
        saw_completion = false;
        break;
      case LoggedEvent::kMoveDone: saw_completion = true; break;
      case LoggedEvent::kCommit:
        EXPECT_FALSE(saw_completion)
            << "a round's commits must precede its completions";
        break;
      default: break;
    }
  }
  EXPECT_EQ(rounds_seen, run.rounds);
}

// --- Recorder parity -------------------------------------------------------

TEST(ObserverRecorders, ExternalMoveLogMatchesRunResultMoves) {
  const auto algo = core::make_algorithm("async-log");
  const auto initial = disk(16, 7);
  MoveLogRecorder recorder;
  RunObserver* obs[] = {&recorder};
  const RunResult run = run_simulation(
      *algo, initial, scheduler_config(SchedulerKind::kAsync, 7), obs);
  const auto& mine = recorder.moves();
  ASSERT_EQ(mine.size(), run.moves.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i].robot, run.moves[i].robot);
    EXPECT_EQ(mine[i].t0, run.moves[i].t0);
    EXPECT_EQ(mine[i].t1, run.moves[i].t1);
    EXPECT_EQ(mine[i].from.x, run.moves[i].from.x);
    EXPECT_EQ(mine[i].to.x, run.moves[i].to.x);
  }
}

TEST(ObserverRecorders, HullRecorderSamplesAtItsSchedulersCadence) {
  for (const SchedulerKind scheduler :
       {SchedulerKind::kAsync, SchedulerKind::kSsync, SchedulerKind::kFsync}) {
    const auto algo = core::make_algorithm(
        scheduler == SchedulerKind::kAsync ? "async-log" : "ssync-parallel");
    const auto initial = disk(18, 9);
    HullHistoryRecorder recorder;
    RecordingObserver epochs;
    RunObserver* obs[] = {&recorder, &epochs};
    const RunResult run = run_simulation(
        *algo, initial, scheduler_config(scheduler, 9), obs);
    ASSERT_TRUE(run.converged) << to_string(scheduler);
    ASSERT_GT(epochs.epochs_seen, 0u) << to_string(scheduler);
    const auto& samples = recorder.samples();
    // One census at run begin, one per closed epoch, one at run end — the
    // same rule under every scheduler.
    ASSERT_EQ(samples.size(), 2 + epochs.epochs_seen) << to_string(scheduler);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(samples[i].epoch, i) << to_string(scheduler);
      EXPECT_EQ(samples[i].corners + samples[i].non_corners, initial.size())
          << to_string(scheduler);
    }
    EXPECT_EQ(samples.back().corners, initial.size()) << to_string(scheduler);
  }
}

TEST(ObserverRecorders, RecordMovesOffDropsTheLogButKeepsTotals) {
  const auto algo = core::make_algorithm("async-log");
  const auto initial = disk(16, 3);
  const RunConfig with = scheduler_config(SchedulerKind::kAsync, 3);
  RunConfig without = with;
  without.record_moves = false;
  const RunResult full = run_simulation(*algo, initial, with);
  const RunResult lean = run_simulation(*algo, initial, without);
  ASSERT_FALSE(full.moves.empty());
  EXPECT_TRUE(lean.moves.empty());
  EXPECT_EQ(lean.total_moves, full.total_moves);
  EXPECT_EQ(lean.total_distance, full.total_distance);
  EXPECT_EQ(lean.converged, full.converged);
  EXPECT_EQ(lean.final_time, full.final_time);
  EXPECT_EQ(lean.epochs, full.epochs);
  EXPECT_EQ(lean.total_cycles, full.total_cycles);
  ASSERT_EQ(lean.final_positions.size(), full.final_positions.size());
  for (std::size_t i = 0; i < lean.final_positions.size(); ++i) {
    EXPECT_EQ(lean.final_positions[i].x, full.final_positions[i].x);
    EXPECT_EQ(lean.final_positions[i].y, full.final_positions[i].y);
  }
}

// --- Streaming collision audit --------------------------------------------

TEST(StreamingCollision, MatchesPostHocAuditOnConvergedRuns) {
  struct Case {
    const char* algorithm;
    SchedulerKind scheduler;
    std::size_t n;
    std::uint64_t seed;
    bool rigid;
  };
  const Case cases[] = {
      {"async-log", SchedulerKind::kAsync, 20, 4, true},
      {"async-log", SchedulerKind::kAsync, 16, 12, false},
      {"seq-baseline", SchedulerKind::kAsync, 10, 2, true},
      {"ssync-parallel", SchedulerKind::kSsync, 16, 6, true},
      {"ssync-parallel", SchedulerKind::kFsync, 16, 6, true},
  };
  for (const Case& c : cases) {
    for (const double tolerance : {0.0, 1e-3}) {
      const auto algo = core::make_algorithm(c.algorithm);
      const auto initial = disk(c.n, c.seed);
      RunConfig config = scheduler_config(c.scheduler, c.seed);
      config.rigid_moves = c.rigid;
      StreamingCollisionMonitor monitor(tolerance);
      RunObserver* obs[] = {&monitor};
      const RunResult run = run_simulation(*algo, initial, config, obs);
      ASSERT_TRUE(run.converged) << c.algorithm << " seed " << c.seed;
      const CollisionReport post = check_collisions(
          run.initial_positions, run.moves, run.final_time, tolerance);
      const CollisionReport& live = monitor.report();
      // Bit-identical closest approach: both audits evaluate the same piece
      // windows with the same arguments.
      EXPECT_EQ(live.min_separation, post.min_separation)
          << c.algorithm << " tol " << tolerance;
      EXPECT_EQ(live.position_collisions, post.position_collisions);
      EXPECT_EQ(live.path_crossings, post.path_crossings);
      EXPECT_EQ(live.clean(), post.clean());
      EXPECT_EQ(live.hazard_free(1e-9), post.hazard_free(1e-9));
      EXPECT_EQ(live.first_incident.has_value(), post.first_incident.has_value());
      // No fault ever fires, so no channel is blamed.
      EXPECT_EQ(monitor.dominant_channel(), fault::FaultChannel::kNone);
    }
  }
}

TEST(StreamingCollision, FlagsAnEngineeredHeadOnCollision) {
  // Two robots swap positions along the same line in the same FSYNC round:
  // both a position collision (they meet halfway) and a crossing of paths.
  class SwapProbe final : public model::Algorithm {
   public:
    model::Action compute(const model::Snapshot& snap) const override {
      if (snap.self_light != Light::kOff || snap.visible_count() == 0) {
        return model::Action::stay(snap.self_light == Light::kOff
                                       ? Light::kCorner
                                       : snap.self_light);
      }
      return model::Action::move_to(snap.other_positions().front(),
                                    Light::kCorner);
    }
    std::string_view name() const noexcept override { return "probe-swap"; }
    std::span<const Light> palette() const noexcept override {
      return model::kAllLights;
    }
  };
  const SwapProbe probe;
  const std::vector<Vec2> initial{{0.0, 0.0}, {1.0, 0.0}};
  const RunConfig config = scheduler_config(SchedulerKind::kFsync, 1);
  // Local-frame round-trips leave the targets within ulps of an exact swap,
  // so the closest approach is ~0 but not bitwise zero; audit with a small
  // positive tolerance.
  const double tolerance = 1e-9;
  StreamingCollisionMonitor monitor(tolerance);
  RunObserver* obs[] = {&monitor};
  const RunResult run = run_simulation(probe, initial, config, obs);
  const CollisionReport post = check_collisions(
      run.initial_positions, run.moves, run.final_time, tolerance);
  EXPECT_GT(monitor.report().position_collisions, 0u);
  EXPECT_LT(monitor.report().min_separation, tolerance);
  EXPECT_EQ(monitor.report().min_separation, post.min_separation);
  EXPECT_EQ(monitor.report().position_collisions, post.position_collisions);
  EXPECT_EQ(monitor.report().path_crossings, post.path_crossings);
  EXPECT_FALSE(monitor.report().clean());
  // A fault-free collision is blamed on no channel.
  EXPECT_EQ(monitor.dominant_channel(), fault::FaultChannel::kNone);
}

TEST(StreamingCollision, RetainsBoundedPieceHistoryOnLongRuns) {
  // The whole point of the streaming audit: its working set tracks the
  // moves currently in reach, not the run length.
  class PeakProbe final : public RunObserver {
   public:
    explicit PeakProbe(const StreamingCollisionMonitor& monitor)
        : monitor_(monitor) {}
    void on_move_complete(const MoveSegment&, const WorldView&) override {
      peak = std::max(peak, monitor_.retained_pieces());
    }
    std::size_t peak = 0;

   private:
    const StreamingCollisionMonitor& monitor_;
  };
  // A probe that wanders forever (unit step in a freshly random local frame
  // every cycle) and runs to the cycle cap: the move count grows with the
  // cap, the retained window must not.
  class WanderProbe final : public model::Algorithm {
   public:
    model::Action compute(const model::Snapshot&) const override {
      return model::Action::move_to(Vec2{1.0, 0.0}, Light::kOff);
    }
    std::string_view name() const noexcept override { return "probe-wander"; }
    std::span<const Light> palette() const noexcept override {
      return model::kAllLights;
    }
  };
  const WanderProbe wander;
  const auto initial = disk(6, 17);
  StreamingCollisionMonitor monitor(0.0);
  PeakProbe probe(monitor);
  RunObserver* obs[] = {&monitor, &probe};
  RunConfig config = scheduler_config(SchedulerKind::kAsync, 17);
  config.record_moves = false;
  config.max_cycles_per_robot = 100;
  const RunResult run = run_simulation(wander, initial, config, obs);
  ASSERT_FALSE(run.converged);  // Capped, by construction.
  ASSERT_GT(run.total_moves, 400u);
  // Pieces (idle + move) retained at once stay well below the full log a
  // post-hoc audit would need (2 * total_moves + n pieces).
  EXPECT_LT(probe.peak, run.total_moves / 4);
}

// --- Streaming epochs ------------------------------------------------------

TEST(StreamingEpochs, DetectorMatchesPostHocTimelineBoundaries) {
  // Synthetic staggered cycles, including an instantaneous-cycle cluster
  // that exercises the zero-length-epoch guard.
  const sched::CycleRecord records[] = {
      {0, 0.0, 1.0}, {1, 0.0, 2.5}, {2, 0.5, 0.5},  // epoch 1 needs all three
      {0, 1.0, 1.5}, {2, 0.5, 3.0},                 // robot 2 re-qualifies
      {1, 2.5, 4.0}, {0, 3.5, 4.5}, {2, 3.0, 5.0},
      {0, 4.5, 4.5}, {1, 4.5, 4.5}, {2, 4.5, 4.5},  // instantaneous cluster
      {0, 4.5, 6.0}, {1, 5.0, 6.5}, {2, 5.5, 7.0},
  };
  sched::EpochTimeline timeline(3);
  sched::StreamingEpochDetector detector(3);
  std::size_t closed = 0;
  for (const auto& rec : records) {
    timeline.add_cycle(rec);
    closed += detector.add_cycle(rec);
  }
  EXPECT_EQ(closed, detector.boundaries().size());
  for (const double horizon : {0.0, 1.0, 2.5, 3.0, 4.49, 4.5, 5.0, 7.0, 99.0}) {
    EXPECT_EQ(detector.count_epochs(horizon), timeline.count_epochs(horizon))
        << "horizon " << horizon;
  }
  const auto post = timeline.epoch_boundaries(1e300);
  ASSERT_EQ(detector.boundaries().size(), post.size());
  for (std::size_t i = 0; i < post.size(); ++i) {
    EXPECT_EQ(detector.boundaries()[i], post[i]);
  }
}

// --- Quiescence verdicts across schedulers ---------------------------------

TEST(Quiescence, LightOnlyFinalChangeConvergesEverywhere) {
  // Off -> (move, Transit) -> light-only (stay, Corner) -> null: the last
  // world change is a light flip, which must still arm quiescence.
  class MoveThenRecolor final : public model::Algorithm {
   public:
    model::Action compute(const model::Snapshot& snap) const override {
      if (snap.self_light == Light::kOff) {
        return model::Action::move_to(Vec2{1.0, 0.0}, Light::kTransit);
      }
      return model::Action::stay(Light::kCorner);
    }
    std::string_view name() const noexcept override { return "probe-recolor"; }
    std::span<const Light> palette() const noexcept override {
      return model::kAllLights;
    }
  };
  const MoveThenRecolor probe;
  for (const SchedulerKind scheduler :
       {SchedulerKind::kAsync, SchedulerKind::kSsync, SchedulerKind::kFsync}) {
    const auto initial = disk(8, 2);
    RunConfig config = scheduler_config(scheduler, 2);
    config.activation = sched::ActivationKind::kSingleton;
    const RunResult run = run_simulation(probe, initial, config);
    EXPECT_TRUE(run.converged) << to_string(scheduler);
    for (const Light l : run.final_lights) EXPECT_EQ(l, Light::kCorner);
  }
}

TEST(Quiescence, NonRigidStopShortStillConverges) {
  const auto initial = disk(14, 11);
  for (const SchedulerKind scheduler :
       {SchedulerKind::kAsync, SchedulerKind::kSsync, SchedulerKind::kFsync}) {
    RunConfig config = scheduler_config(scheduler, 11);
    config.rigid_moves = false;
    const auto name =
        scheduler == SchedulerKind::kAsync ? "async-log" : "ssync-parallel";
    const RunResult run =
        run_simulation(*core::make_algorithm(name), initial, config);
    EXPECT_TRUE(run.converged) << to_string(scheduler);
    EXPECT_TRUE(verify_complete_visibility(run.final_positions).complete())
        << to_string(scheduler);
  }
}

}  // namespace
}  // namespace lumen::sim
