#include "sim/execution_core.hpp"

#include "util/thread_pool.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace lumen::sim {

namespace {

/// The non-rigid adversary's delta: a moving robot always travels at least
/// min(kNonrigidMinProgress, the full distance).
constexpr double kNonrigidMinProgress = 0.5;

std::size_t light_index(model::Light l) noexcept {
  return static_cast<std::size_t>(l);
}

}  // namespace

ExecutionCore::ExecutionCore(const model::Algorithm& algorithm,
                             std::span<const geom::Vec2> initial,
                             const RunConfig& config,
                             std::span<RunObserver* const> observers)
    : algo_(algorithm),
      config_(config),
      grid_(algorithm.motion_model() == model::MotionModel::kGrid),
      n_(initial.size()),
      rng_(config.seed),
      epochs_(initial.size()),
      observers_(observers) {
  if (grid_) {
    // Grid motion: the world lives on the integer lattice from the first
    // instant — initial positions snap to the nearest lattice point. The
    // drivers read initial_positions back from the world state, so results
    // report the snapped configuration the run actually started from.
    std::vector<geom::Vec2> snapped(initial.begin(), initial.end());
    for (geom::Vec2& p : snapped) {
      p = geom::Vec2{std::nearbyint(p.x), std::nearbyint(p.y)};
    }
    world_.reset(snapped);
  } else {
    world_.reset(initial);
  }
  current_move_.assign(n_, MoveSegment{});
  cycle_start_.assign(n_, 0.0);
  look_time_.assign(n_, 0.0);
  pending_.assign(n_, model::Action{});
  pending_null_.assign(n_, 1);
  last_null_look_.assign(n_, -1.0);
  in_wait_.assign(n_, 1);
  lights_seen_[light_index(model::Light::kOff)] = true;
  arena_ = config.arena != nullptr ? config.arena : &own_arena_;
  // The look fill starts as a mirror of the committed coordinates; from here
  // on fill_look_world / complete_move keep it coherent incrementally.
  arena_->look_xs.assign(world_.xs().begin(), world_.xs().end());
  arena_->look_ys.assign(world_.ys().begin(), world_.ys().end());
  arena_->prev_movers.clear();
  // Zeroes the cache's hit counters too, so they count this run alone even
  // when the arena is shared across runs.
  arena_->visibility_cache.reset(n_, config.visibility_cache_budget);
  // Fault streams are split() children of rng_, so an empty plan leaves
  // every existing stream untouched (bit-identity with fault-free runs).
  fault_.init(config.fault, rng_, n_);
  if (config.deadline_ms > 0) {
    deadline_armed_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(config.deadline_ms);
  }
  // Local frames: the persistent per-robot parameters (used when
  // refresh_frames_each_look is false) are drawn in robot order, and
  // refreshed frames come from their own stream.
  util::Prng frame_rng = rng_.split("frames");
  frame_params_.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    frame_params_.push_back(FrameParams{
        frame_rng.uniform(0.0, 6.283185307179586),
        std::exp2(frame_rng.uniform(-2.0, 2.0)),
        frame_rng.bernoulli(0.5),
    });
  }
  look_frame_rng_ = rng_.split("look-frames");
}

bool ExecutionCore::deadline_exceeded() noexcept {
  if (!deadline_armed_ || deadline_hit_) return deadline_hit_;
  if (std::chrono::steady_clock::now() >= deadline_) deadline_hit_ = true;
  return deadline_hit_;
}

util::Prng ExecutionCore::split_stream(std::string_view tag) const noexcept {
  return rng_.split(tag);
}

void ExecutionCore::begin_cycle(std::size_t robot, double time) {
  cycle_start_[robot] = time;
}

bool ExecutionCore::crash_check(std::size_t robot, double time) {
  if (!fault_.try_crash(robot, time)) return false;
  fault::FaultEvent event;
  event.channel = fault::FaultChannel::kCrash;
  event.robot = robot;
  event.time = time;
  event.position = world_.position(robot);
  for (RunObserver* o : observers_) o->on_fault(event, world(time));
  // The dead robot drops out of the epoch requirement: later epochs measure
  // survivor progress. Retiring the laggard can close pent-up epochs.
  notify_epochs(epochs_.retire(robot), time);
  return true;
}

void ExecutionCore::notify_look_faults(std::size_t robot, double time,
                                       geom::Vec2 position,
                                       const fault::LookFaultStats& stats) {
  if (!stats.any()) return;
  if (stats.corrupted != 0) {
    fault::FaultEvent event;
    event.channel = fault::FaultChannel::kLight;
    event.robot = robot;
    event.time = time;
    event.position = position;
    event.corrupted_reads = stats.corrupted;
    for (RunObserver* o : observers_) o->on_fault(event, world(time));
  }
  if (stats.dropped + stats.perturbed != 0) {
    fault::FaultEvent event;
    event.channel = fault::FaultChannel::kNoise;
    event.robot = robot;
    event.time = time;
    event.position = position;
    event.dropped = stats.dropped;
    event.perturbed = stats.perturbed;
    for (RunObserver* o : observers_) o->on_fault(event, world(time));
  }
}

std::pair<std::span<const double>, std::span<const double>>
ExecutionCore::fill_look_world(double t) {
  LookArena& a = *arena_;
  // Undo the previous fill's interpolations. Every other slot already holds
  // the committed coordinate: set_position happens only in complete_move,
  // which writes through to the fill arrays.
  for (const std::uint32_t r : a.prev_movers) {
    a.look_xs[r] = world_.xs()[r];
    a.look_ys[r] = world_.ys()[r];
  }
  a.prev_movers.clear();
  if (world_.moving_count() == 0) {
    // Nobody mid-move (every SYNC Look): snapshot the committed arrays
    // directly, no copy at all.
    return {world_.xs(), world_.ys()};
  }
  const std::span<const std::uint64_t> words = world_.moving().words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const std::size_t r =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const geom::Vec2 p = current_move_[r].at(t);
      a.look_xs[r] = p.x;
      a.look_ys[r] = p.y;
      a.prev_movers.push_back(static_cast<std::uint32_t>(r));
    }
  }
  return {a.look_xs, a.look_ys};
}

void ExecutionCore::compute_pending(std::size_t robot,
                                    const model::LocalFrame& frame,
                                    std::uint64_t look_seq,
                                    std::span<const double> xs,
                                    std::span<const double> ys,
                                    model::SnapshotScratch& scratch,
                                    model::Snapshot& snap,
                                    fault::ViewScratch& view,
                                    fault::LookFaultStats& stats) {
  const std::span<const model::Light> lights = world_.lights();
  const bool noisy = fault_.view_active() && fault_.noise_active();
  if (!noisy) {
    geom::VisibilityCache& cache = arena_->visibility_cache;
    if (cache.cached_observers() > 0) {
      // Incremental path: replay/repair this observer's retained angular
      // order against the committed-write log (bit-identical to the
      // one-shot kernel; see geom::VisibilityCache).
      cache.visible_from(xs, ys, robot, world_.write_log(),
                         world_.moving_count(), scratch.visibility,
                         scratch.visible_ids);
      model::fill_snapshot(xs, ys, lights, robot, scratch.visible_ids, frame,
                           snap);
    } else {
      model::build_snapshot(xs, ys, lights, robot, frame, scratch, snap);
    }
  }
  if (fault_.view_active()) {
    // Corruption draws are a pure function of (seed, robot, look_seq), so
    // this stays safe and bit-identical under the parallel SYNC batch.
    util::Prng rng = fault_.look_rng(robot, look_seq);
    if (fault_.noise_active()) {
      const std::size_t observer =
          fault_.make_noisy_view(robot, rng, xs, ys, lights, view, stats);
      model::build_snapshot(view.xs, view.ys, view.lights, observer, frame,
                            scratch, snap);
    }
    fault_.corrupt_lights(rng, snap, stats);
    fault_.account(stats);
  }
  // Compute is deterministic on the snapshot, so evaluating it now and
  // committing later is equivalent to evaluating at commit time.
  const model::Action action = algo_.compute(snap);
  pending_[robot] = model::Action{frame.to_world(action.target), action.light};
  // Encode "stay" in world terms: a stay action keeps the world position.
  if (!action.moves()) pending_[robot].target = geom::Vec2{xs[robot], ys[robot]};
  if (grid_) {
    // Grid motion: the world-frame goal snaps to the nearest lattice point.
    // A move whose goal snaps back onto the robot's own cell is a null
    // action — it must count toward quiescence or sub-half-cell targets
    // would keep the run alive forever.
    geom::Vec2& t = pending_[robot].target;
    t = geom::Vec2{std::nearbyint(t.x), std::nearbyint(t.y)};
    pending_null_[robot] = (t == geom::Vec2{xs[robot], ys[robot]} &&
                            action.light == world_.light(robot))
                               ? 1
                               : 0;
    return;
  }
  pending_null_[robot] =
      (!action.moves() && action.light == world_.light(robot)) ? 1 : 0;
}

void ExecutionCore::look(std::span<const std::size_t> robots, double time) {
  // Serial prologue in `robots` order: state writes, frame-rng draws and
  // look sequence numbers. One world fill serves every robot, since they
  // all Look at the same instant.
  const auto [xs, ys] = fill_look_world(time);
  LookArena& a = *arena_;
  a.frames.clear();
  a.seqs.clear();
  a.stats.assign(robots.size(), fault::LookFaultStats{});
  for (const std::size_t r : robots) {
    in_wait_[r] = 0;
    look_time_[r] = time;
    a.frames.push_back(make_frame(r, geom::Vec2{xs[r], ys[r]}));
    a.seqs.push_back(look_seq_++);
  }
  util::ThreadPool* pool = robots.size() < 2 ? nullptr : config_.pool;
  const std::size_t slots = pool == nullptr ? 1 : pool->slot_count();
  if (a.slots.size() < slots) a.slots.resize(slots);
  const auto compute = [&, xs = xs, ys = ys](std::size_t slot, std::size_t k) {
    LookSlot& ls = a.slots[slot];
    compute_pending(robots[k], a.frames[k], a.seqs[k], xs, ys, ls.scratch,
                    ls.snapshot, ls.view, a.stats[k]);
  };
  if (pool == nullptr) {
    for (std::size_t k = 0; k < robots.size(); ++k) compute(0, k);
  } else {
    // Thread interleaving cannot affect the result: Compute is pure, fault
    // draws are keyed by the pre-assigned look sequence, the visibility
    // cache touches only the observer's own entry, and every write lands in
    // the robot's own slot.
    pool->parallel_for_slots(robots.size(), compute);
  }
  // Observers fire serially afterwards, in `robots` order: nothing a Look
  // mutates is visible through WorldView.
  for (std::size_t k = 0; k < robots.size(); ++k) {
    const std::size_t r = robots[k];
    notify_look_faults(r, time, geom::Vec2{xs[r], ys[r]}, a.stats[k]);
    for (RunObserver* o : observers_) o->on_look(r, time, world(time));
  }
}

geom::Vec2 ExecutionCore::grid_leg(geom::Vec2 from, geom::Vec2 goal) noexcept {
  const double dx = goal.x - from.x;
  const double dy = goal.y - from.y;
  if (dx == 0.0 && dy == 0.0) return from;
  // Dominant axis first (ties go to x): one full rectilinear leg per commit,
  // so both endpoints are lattice points and intermediate Looks observe the
  // robot travelling along a grid line.
  if (std::abs(dx) >= std::abs(dy)) return geom::Vec2{goal.x, from.y};
  return geom::Vec2{from.x, goal.y};
}

geom::Vec2 ExecutionCore::apply_motion_adversary(geom::Vec2 from, geom::Vec2 to,
                                                 util::Prng& rng) const {
  if (config_.rigid_moves) return to;
  const double dist = geom::distance(from, to);
  if (dist <= kNonrigidMinProgress) return to;
  const double fraction = rng.uniform(0.0, 1.0);
  const double travelled = std::max(kNonrigidMinProgress, fraction * dist);
  return geom::lerp(from, to, travelled / dist);
}

bool ExecutionCore::commit(std::size_t robot, double t0, double t1,
                           double changed_at, util::Prng& motion_rng) {
  const model::Action action = pending_[robot];
  const bool light_changed = world_.light(robot) != action.light;
  world_.set_light(robot, action.light);
  lights_seen_[light_index(action.light)] = true;
  const geom::Vec2 from = world_.position(robot);
  // Grid commits travel one axis leg and skip the motion adversary (no rng
  // draw — grid algorithms are new, so no stream compatibility to keep).
  const geom::Vec2 to = grid_ ? grid_leg(from, action.target)
                              : apply_motion_adversary(from, action.target,
                                                       motion_rng);
  const bool moved = to != from;
  CommitEvent event;
  event.robot = robot;
  event.time = t0;
  event.action = model::Action{to, action.light};
  event.light_changed = light_changed;
  if (moved) {
    current_move_[robot] = MoveSegment{robot, t0, t1, from, to};
    world_.begin_move(robot);
    event.move_started = &current_move_[robot];
  }
  if (light_changed || moved) {
    last_change_ = changed_at;
  } else {
    // Null cycle: this Look observed a configuration the robot is content
    // with; quiescence needs it to postdate the last world change.
    last_null_look_[robot] = look_time_[robot];
  }
  notify_commit(event, t0);
  return moved;
}

void ExecutionCore::complete_move(std::size_t robot, double t) {
  const geom::Vec2 to = current_move_[robot].to;
  world_.set_position(robot, to);
  // Write through to the look fill: this robot may never be interpolated by
  // a Look during its flight (so it never enters prev_movers), and after
  // this commit its fill slot must already hold the new committed value.
  arena_->look_xs[robot] = to.x;
  arena_->look_ys[robot] = to.y;
  world_.end_move(robot);
  ++total_moves_;
  total_distance_ += current_move_[robot].length();
  last_change_ = t;
  for (RunObserver* o : observers_) {
    o->on_move_complete(current_move_[robot], world(t));
  }
}

void ExecutionCore::record_cycle(std::size_t robot, double end) {
  in_wait_[robot] = 1;
  const std::size_t closed = epochs_.add_cycle(
      sched::CycleRecord{robot, cycle_start_[robot], end});
  ++total_cycles_;
  notify_epochs(closed, end);
}

bool ExecutionCore::quiescent() const noexcept {
  for (std::size_t i = 0; i < n_; ++i) {
    // Crashed robots execute no further cycles: quiescence is over the
    // survivors (a fully-crashed swarm is trivially quiescent).
    if (fault_.crashed(i)) continue;
    if (world_.is_moving(i)) return false;
    if (in_wait_[i] == 0 && pending_null_[i] == 0) return false;
    if (last_null_look_[i] < last_change_) return false;
  }
  return true;
}

WorldView ExecutionCore::world(double time) const noexcept {
  WorldView view;
  view.xs = world_.xs();
  view.ys = world_.ys();
  view.lights = world_.lights();
  view.moving_words = world_.moving().words();
  view.current_moves = current_move_;
  view.time = time;
  return view;
}

void ExecutionCore::notify_run_begin() {
  for (RunObserver* o : observers_) o->on_run_begin(world(0.0));
}

void ExecutionCore::notify_round(std::uint64_t round, double time) {
  for (RunObserver* o : observers_) o->on_round(round, time, world(time));
}

void ExecutionCore::notify_run_end(double time) {
  for (RunObserver* o : observers_) o->on_run_end(world(time));
}

void ExecutionCore::notify_epochs(std::size_t closed, double time) {
  const std::vector<double>& ends = epochs_.boundaries();
  for (std::size_t index = ends.size() - closed; index < ends.size(); ++index) {
    for (RunObserver* o : observers_) {
      o->on_epoch(index, ends[index], world(time));
    }
  }
}

void ExecutionCore::notify_commit(const CommitEvent& event, double time) {
  for (RunObserver* o : observers_) o->on_commit(event, world(time));
}

model::LocalFrame ExecutionCore::make_frame(std::size_t robot,
                                            geom::Vec2 origin) {
  if (config_.refresh_frames_each_look) {
    return model::LocalFrame::random(origin, look_frame_rng_);
  }
  const FrameParams& p = frame_params_[robot];
  return model::LocalFrame{origin, p.rotation, p.scale, p.reflected};
}

void ExecutionCore::finalize(RunResult& result, bool converged,
                             double final_time) const {
  result.converged = converged;
  result.final_time = final_time;
  result.total_cycles = total_cycles_;
  result.total_moves = total_moves_;
  result.total_distance = total_distance_;
  result.final_positions.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    result.final_positions[i] = world_.position(i);
  }
  result.final_lights.assign(world_.lights().begin(), world_.lights().end());
  for (std::size_t i = 0; i < lights_seen_.size(); ++i) {
    if (lights_seen_[i]) result.lights_seen[i] = true;
  }
  // Convergence time is the LAST state change, not the (later) instant at
  // which quiescence became detectable; count one extra epoch so the final
  // observing cycle is included, matching the theoretical measure.
  result.epochs = n_ == 0 ? 0 : epochs_.count_epochs(last_change_) + 1;
  // A run that reached quiescence is converged even if the watchdog probe
  // fired on the same boundary; the deadline only classifies runs the
  // driver actually cut short.
  result.outcome = !converged ? (deadline_hit_ ? RunOutcome::kDeadlineExceeded
                                               : RunOutcome::kBudgetExhausted)
                   : fault_.crash_count() > 0 ? RunOutcome::kStalled
                                              : RunOutcome::kConverged;
  result.faults = fault_.counters();
  const auto crashed = fault_.crashed_flags();
  result.crashed.assign(crashed.begin(), crashed.end());
  // This run's visibility-cache hit mix (reset at construction).
  const geom::VisibilityCache& cache = arena_->visibility_cache;
  result.cache_replays = cache.replays();
  result.cache_repairs = cache.repairs();
  result.cache_rebuilds = cache.rebuilds();
}

}  // namespace lumen::sim
