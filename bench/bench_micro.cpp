// E7 — substrate microbenchmarks (google-benchmark).
//
// Throughput of the kernels everything else is built on: robust orientation
// predicate (filtered vs forced-exact), convex hull, the single-observer
// angular sweep (warmed scratch, allocation-counted), whole-graph
// obstructed visibility serial vs pooled (vs the O(n^3) oracle), snapshot
// construction (scratch-reusing, with a heap-allocation counter) and its
// frame transform alone, an interior
// view's local hull, Compute's classification (disk corner, near-flat ring
// corner and interior views), async-log's exit planning and arbitration
// (a disk view and a late-stage ring view), one full SSYNC round serial vs
// pooled, a campaign cell's success verdict, and one full ASYNC engine
// run per size.
//
// bench/baselines/seed_bench_micro.json holds the pre-kernel-rewrite
// numbers; bench/compare_bench.py gates CI on regressions against the
// committed baseline.
//
// Output: unless --benchmark_out is passed explicitly, results are also
// written as machine-readable JSON to bench_micro.json (console output
// stays human-readable); CI archives the JSON artifact.
#include <benchmark/benchmark.h>

#include "core/beacon.hpp"
#include "core/cv_async.hpp"
#include "core/registry.hpp"
#include "core/view.hpp"
#include "gen/generators.hpp"
#include "geom/hull.hpp"
#include "geom/predicates.hpp"
#include "geom/simd.hpp"
#include "geom/visibility.hpp"
#include "model/snapshot.hpp"
#include "sim/monitors.hpp"
#include "sim/run.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

// Heap-allocation counter for the zero-allocation claims: every global new
// in this binary bumps the counter; benchmarks report the per-iteration
// delta as a counter column (and in the JSON). Atomic because the pooled
// benchmarks allocate from worker threads (relaxed: only totals matter).
namespace {
std::atomic<std::size_t> g_alloc_count{0};

std::size_t alloc_count() noexcept {
  return g_alloc_count.load(std::memory_order_relaxed);
}
}  // namespace

// GCC inlines these replacements into google-benchmark's static
// initializers and then flags free() on a new-pointer; the malloc/free
// pairing across the replaced operators is intentional.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using lumen::geom::Vec2;

std::vector<Vec2> random_points(std::size_t n, std::uint64_t seed) {
  lumen::util::Prng rng{seed};
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(-100, 100), rng.uniform(-100, 100)});
  }
  return pts;
}

struct SplitPoints {
  std::vector<double> xs;
  std::vector<double> ys;
};

/// Points as the split x/y arrays the visibility kernel and the Look
/// snapshot take (sim::WorldState's layout).
SplitPoints split(const std::vector<Vec2>& pts) {
  SplitPoints s;
  for (const Vec2 p : pts) {
    s.xs.push_back(p.x);
    s.ys.push_back(p.y);
  }
  return s;
}

SplitPoints random_split_points(std::size_t n, std::uint64_t seed) {
  return split(random_points(n, seed));
}

void BM_Orient2dFiltered(benchmark::State& state) {
  const auto pts = random_points(3072, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    const int s = lumen::geom::orient2d(pts[i], pts[i + 1], pts[i + 2]);
    benchmark::DoNotOptimize(s);
    i = (i + 3) % 3069;
  }
}
BENCHMARK(BM_Orient2dFiltered);

void BM_Orient2dExactPath(benchmark::State& state) {
  // Collinear triples force the exact expansion fallback.
  const Vec2 a{0.1, 0.2}, b{0.2, 0.4}, c{0.4, 0.8};
  for (auto _ : state) {
    const int s = lumen::geom::detail::orient2d_exact_sign(a, b, c);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Orient2dExactPath);

void BM_ConvexHull(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto hull = lumen::geom::convex_hull_indices(pts);
    benchmark::DoNotOptimize(hull);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConvexHull)->Range(64, 4096)->Complexity(benchmark::oNLogN);

void BM_VisibleFromSoA(benchmark::State& state) {
  // Single-observer angular sweep on warmed scratch — the exact kernel one
  // Look executes, fed split arrays exactly as sim::WorldState does. The
  // counter column pins the zero-allocation claim for the steady-state
  // Look path.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [xs, ys] = random_split_points(n, 3);
  lumen::geom::VisibilityScratch scratch;
  std::vector<std::size_t> out;
  lumen::geom::visible_from(xs, ys, 0, scratch, out);  // Warm.
  const std::size_t allocs_before = alloc_count();
  std::size_t i = 0;
  for (auto _ : state) {
    lumen::geom::visible_from(xs, ys, i, scratch, out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % n;
  }
  state.counters["heap_allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_count() - allocs_before) /
      static_cast<double>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VisibleFromSoA)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(65536)
    ->Complexity();

void BM_BuildKeys(benchmark::State& state) {
  // The batched SoA sort-record build in isolation — the stage the SIMD
  // dispatch vectorizes (subtraction, half-plane split, diamond key, one
  // 8-byte record per robot). Runs at the level the dispatcher selected for this CPU; the
  // context section records it.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [xs, ys] = random_split_points(n, 3);
  lumen::geom::VisibilityScratch scratch;
  const lumen::geom::Vec2 o{xs[0], ys[0]};
  lumen::geom::simd::build_keys_soa(xs.data(), ys.data(), n, 0, o, scratch);
  const std::size_t allocs_before = alloc_count();
  std::size_t i = 0;
  for (auto _ : state) {
    lumen::geom::simd::build_keys_soa(xs.data(), ys.data(), n, i,
                                      {xs[i], ys[i]}, scratch);
    benchmark::DoNotOptimize(scratch.upper.data());
    benchmark::DoNotOptimize(scratch.lower.data());
    i = (i + 1) % n;
  }
  state.counters["heap_allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_count() - allocs_before) /
      static_cast<double>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildKeys)->Arg(256)->Arg(4096)->Arg(65536)->Complexity(benchmark::oN);

void BM_HullCull(benchmark::State& state) {
  // The batched Akl–Toussaint certify-only cull in isolation: one mask
  // sweep over n points against the coordinate-extreme quad.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = random_points(n, 2);
  std::size_t iw = 0, ie = 0, is = 0, in = 0;
  for (std::size_t j = 1; j < n; ++j) {
    if (pts[j].x < pts[iw].x) iw = j;
    if (pts[j].x > pts[ie].x) ie = j;
    if (pts[j].y < pts[is].y) is = j;
    if (pts[j].y > pts[in].y) in = j;
  }
  // A 4-vertex quad, not the hull's 8-vertex polygon: the gated baseline
  // was recorded with it.
  const Vec2 quad[4] = {pts[iw], pts[is], pts[ie], pts[in]};
  std::vector<std::uint8_t> inside(n);
  for (auto _ : state) {
    lumen::geom::simd::hull_cull_mask(pts.data(), n, quad, inside.data());
    benchmark::DoNotOptimize(inside.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HullCull)->Arg(256)->Arg(4096)->Arg(65536)->Complexity(benchmark::oN);

void BM_ComputeVisibility(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto g = lumen::geom::compute_visibility(pts);
    benchmark::DoNotOptimize(g);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ComputeVisibility)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_ComputeVisibilityPooled(benchmark::State& state) {
  // Same sweep with the observer loop fanned over a worker pool (one worker
  // per hardware thread). On a single-core host this measures the fan-out
  // overhead, not a speedup; pair with BM_ComputeVisibility to see both.
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 3);
  lumen::util::ThreadPool pool;
  for (auto _ : state) {
    auto g = lumen::geom::compute_visibility(pts, &pool);
    benchmark::DoNotOptimize(g);
  }
  state.counters["pool_workers"] = static_cast<double>(pool.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ComputeVisibilityPooled)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

lumen::sim::RunConfig ssync_round_config() {
  lumen::sim::RunConfig config;
  config.scheduler = lumen::sim::SchedulerKind::kSsync;
  config.activation = lumen::sched::ActivationKind::kAll;
  config.seed = 7;
  config.max_cycles_per_robot = 1;  // Exactly one round per run.
  config.record_moves = false;
  return config;
}

void BM_SsyncRoundStep(benchmark::State& state) {
  // One full SSYNC round with every robot active: N Looks against the same
  // configuration (N angular sorts), N Computes, N commits, N move sweeps.
  // The engine setup cost is O(N) and amortizes into noise at these sizes.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto algo = lumen::core::make_algorithm("ssync-parallel");
  const auto initial =
      lumen::gen::generate(lumen::gen::ConfigFamily::kUniformDisk, n, 7);
  const auto config = ssync_round_config();
  for (auto _ : state) {
    auto run = lumen::sim::run_simulation(*algo, initial, config);
    benchmark::DoNotOptimize(run);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SsyncRoundStep)
    ->RangeMultiplier(2)
    ->Range(256, 4096)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_SsyncRoundStepPooled(benchmark::State& state) {
  // The same round with Look+Compute fanned over RunConfig::pool —
  // bit-identical output (tests/sim_pool_invariance_test.cpp), so this pair
  // of benchmarks isolates what in-run parallelism buys on this host.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto algo = lumen::core::make_algorithm("ssync-parallel");
  const auto initial =
      lumen::gen::generate(lumen::gen::ConfigFamily::kUniformDisk, n, 7);
  lumen::util::ThreadPool pool;
  auto config = ssync_round_config();
  config.pool = &pool;
  for (auto _ : state) {
    auto run = lumen::sim::run_simulation(*algo, initial, config);
    benchmark::DoNotOptimize(run);
  }
  state.counters["pool_workers"] = static_cast<double>(pool.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SsyncRoundStepPooled)
    ->RangeMultiplier(2)
    ->Range(256, 1024)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalRound(benchmark::State& state) {
  // Multi-round SSYNC run with the incremental visibility cache enabled:
  // range(0) robots, range(1) rounds per iteration. Rounds past the second
  // flow through the cache's replay/repair/rebuild triage (admission stores
  // on the second Look), so this family prices the whole write-log pipeline
  // end to end — WorldState commits, arena reuse, cache triage — not just
  // the sort kernel. It runs one iteration: a 4096-robot run of three
  // rounds takes seconds, not microseconds.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto algo = lumen::core::make_algorithm("ssync-parallel");
  const auto initial =
      lumen::gen::generate(lumen::gen::ConfigFamily::kUniformDisk, n, 7);
  auto config = ssync_round_config();
  config.max_cycles_per_robot = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto run = lumen::sim::run_simulation(*algo, initial, config);
    benchmark::DoNotOptimize(run);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IncrementalRound)
    ->Args({4096, 3})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_VisibilityNaiveOracle(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto g = lumen::geom::compute_visibility_naive(pts);
    benchmark::DoNotOptimize(g);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VisibilityNaiveOracle)->Range(32, 256)->Complexity();

void BM_BuildSnapshotScratch(benchmark::State& state) {
  // The engine's steady-state Look path: warmed scratch buffers, zero heap
  // traffic (the counter column proves it).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [xs, ys] = random_split_points(n, 5);
  const std::vector<lumen::model::Light> lights(n, lumen::model::Light::kOff);
  lumen::util::Prng rng{6};
  const auto frame = lumen::model::LocalFrame::random({xs[0], ys[0]}, rng);
  lumen::model::SnapshotScratch scratch;
  lumen::model::Snapshot snap;
  // Warm.
  lumen::model::build_snapshot(xs, ys, lights, 0, frame, scratch, snap);
  const std::size_t allocs_before = alloc_count();
  for (auto _ : state) {
    lumen::model::build_snapshot(xs, ys, lights, 0, frame, scratch, snap);
    benchmark::DoNotOptimize(snap);
  }
  state.counters["heap_allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_count() - allocs_before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BuildSnapshotScratch)->Range(32, 1024);

void BM_FillSnapshot(benchmark::State& state) {
  // The Look's frame transform alone: an interior observer's visible ids
  // (uniform disk) mapped into a random local frame, as a cache replay
  // does. The counter column pins the zero-allocation claim.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [xs, ys] = split(
      lumen::gen::generate(lumen::gen::ConfigFamily::kUniformDisk, n, 8));
  const std::vector<lumen::model::Light> lights(n, lumen::model::Light::kOff);
  std::size_t observer = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (xs[i] * xs[i] + ys[i] * ys[i] <
        xs[observer] * xs[observer] + ys[observer] * ys[observer]) {
      observer = i;
    }
  }
  lumen::geom::VisibilityScratch scratch;
  std::vector<std::size_t> ids;
  lumen::geom::visible_from(xs, ys, observer, scratch, ids);
  lumen::util::Prng rng{6};
  const auto frame =
      lumen::model::LocalFrame::random({xs[observer], ys[observer]}, rng);
  lumen::model::Snapshot snap;
  lumen::model::fill_snapshot(xs, ys, lights, observer, ids, frame, snap);
  const std::size_t allocs_before = alloc_count();
  for (auto _ : state) {
    lumen::model::fill_snapshot(xs, ys, lights, observer, ids, frame, snap);
    benchmark::DoNotOptimize(snap.positions.data());
    benchmark::DoNotOptimize(snap.lights.data());
    benchmark::ClobberMemory();
  }
  state.counters["heap_allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_count() - allocs_before) /
      static_cast<double>(state.iterations()));
  state.counters["visible"] = static_cast<double>(ids.size());
}
BENCHMARK(BM_FillSnapshot)->Arg(512)->Arg(4096);

/// The observer's Look snapshot of a `world` with `lights` (visible robots
/// in the Look's angular order, identity frame).
lumen::model::Snapshot look_snapshot(const std::vector<Vec2>& world,
                                     const std::vector<lumen::model::Light>& lights,
                                     std::size_t observer) {
  const auto [xs, ys] = split(world);
  lumen::model::SnapshotScratch scratch;
  lumen::model::Snapshot snap;
  lumen::model::build_snapshot(xs, ys, lights, observer,
                               lumen::model::LocalFrame{world[observer], 0.0, 1.0, false},
                               scratch, snap);
  return snap;
}

/// An observer's Look snapshot of a uniform-disk world (visible robots in
/// the Look's angular order): hull vertices Corner-lit, a `transit_share` of
/// the rest Transit-lit. The observer is a hull vertex (`corner`) or the
/// robot nearest the centroid.
lumen::model::Snapshot disk_snapshot(std::size_t n, bool corner,
                                     double transit_share,
                                     lumen::model::Light self) {
  using lumen::model::Light;
  const auto world =
      lumen::gen::generate(lumen::gen::ConfigFamily::kUniformDisk, n, 8);
  const auto hull = lumen::geom::convex_hull_indices(world);
  std::vector<Light> lights(n, Light::kOff);
  lumen::util::Prng rng{9};
  for (Light& light : lights) {
    if (rng.bernoulli(transit_share)) light = Light::kTransit;
  }
  for (const std::size_t k : hull) lights[k] = Light::kCorner;
  std::size_t observer = hull.front();
  if (!corner) {
    Vec2 centroid{};
    for (const Vec2 p : world) centroid += p;
    centroid = centroid / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (lumen::geom::distance_sq(world[i], centroid) <
          lumen::geom::distance_sq(world[observer], centroid)) {
        observer = i;
      }
    }
  }
  lights[observer] = self;
  return look_snapshot(world, lights, observer);
}

void BM_ConvexHullView(benchmark::State& state) {
  // The local hull of an interior observer's snapshot — what a non-Corner
  // Compute builds, and ssync-wide's largest stage.
  const auto snap = disk_snapshot(static_cast<std::size_t>(state.range(0)),
                                  false, 0.0, lumen::model::Light::kOff);
  for (auto _ : state) {
    auto hull = lumen::geom::convex_hull_indices(snap.positions);
    benchmark::DoNotOptimize(hull);
  }
  state.counters["visible"] = static_cast<double>(snap.visible_count());
}
BENCHMARK(BM_ConvexHullView)->Arg(512)->Arg(4096);

/// A late-stage async-log world: n robots, ~88% of them Corner-lit on a
/// unit ring (jittered angles), the rest inside it, a `transit_share` of
/// those Transit-lit. The observer is a ring robot (`corner`) — a
/// near-flat corner, its interior angle about pi - 2 pi / ring — or the
/// interior robot nearest the centre, lit `self`.
lumen::model::Snapshot ring_snapshot(std::size_t n, bool corner, double transit_share,
                                     lumen::model::Light self) {
  using lumen::model::Light;
  const std::size_t ring = n * 7 / 8;
  lumen::util::Prng rng{21};
  std::vector<Vec2> world;
  std::vector<Light> lights;
  for (std::size_t k = 0; k < ring; ++k) {
    const double a = 6.283185307179586 * (static_cast<double>(k) + rng.uniform(-0.3, 0.3)) /
                     static_cast<double>(ring);
    world.push_back({std::cos(a), std::sin(a)});
    lights.push_back(Light::kCorner);
  }
  std::size_t observer = 0;
  while (world.size() < n) {
    const Vec2 p{rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)};
    if (lumen::geom::norm(p) > 0.9) continue;
    world.push_back(p);
    lights.push_back(rng.bernoulli(transit_share) ? Light::kTransit : Light::kInterior);
    if (!corner && (observer == 0 || lumen::geom::norm(p) < lumen::geom::norm(world[observer]))) {
      observer = world.size() - 1;
    }
  }
  lights[observer] = self;
  return look_snapshot(world, lights, observer);
}

/// The Compute-stage benchmark views.
enum class StageView { kDiskCorner, kRingCorner, kDiskInterior, kRingInterior };

lumen::model::Snapshot stage_snapshot(StageView kind, std::size_t n,
                                      double transit_share, lumen::model::Light self) {
  switch (kind) {
    case StageView::kDiskCorner:
      return disk_snapshot(n, true, transit_share, self);
    case StageView::kRingCorner:
      return ring_snapshot(n, true, transit_share, self);
    case StageView::kDiskInterior:
      return disk_snapshot(n, false, transit_share, self);
    case StageView::kRingInterior:
      break;
  }
  return ring_snapshot(n, false, transit_share, self);
}

void BM_BuildView(benchmark::State& state, StageView kind) {
  // Compute's classification step. A Corner view is decided by the corner
  // certificate; an interior one still builds the local hull.
  const auto snap = stage_snapshot(kind, static_cast<std::size_t>(state.range(0)), 0.0,
                                   lumen::model::Light::kCorner);
  for (auto _ : state) {
    auto view = lumen::core::build_view(snap);
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK_CAPTURE(BM_BuildView, corner, StageView::kDiskCorner)->Arg(512);
BENCHMARK_CAPTURE(BM_BuildView, flat_corner, StageView::kRingCorner)->Arg(512);
BENCHMARK_CAPTURE(BM_BuildView, interior, StageView::kDiskInterior)->Arg(512);

void BM_AsyncArbitration(benchmark::State& state, StageView kind) {
  // A Transit observer's move-Look in async-log: plan, then arbitrate
  // against ~40% Transit rivals (reach prefilter, rival re-planning). The
  // disk view has ~27 hull edges; the late-stage ring view ~450, like the
  // interior views of async-headline's large cells.
  const auto snap = stage_snapshot(kind, static_cast<std::size_t>(state.range(0)), 0.4,
                                   lumen::model::Light::kTransit);
  const lumen::core::CompleteVisibilityAsync algo;
  for (auto _ : state) {
    auto action = algo.compute(snap);
    benchmark::DoNotOptimize(action);
  }
}
BENCHMARK_CAPTURE(BM_AsyncArbitration, disk, StageView::kDiskInterior)->Arg(512);
BENCHMARK_CAPTURE(BM_AsyncArbitration, late, StageView::kRingInterior)->Arg(512);

void BM_PlanExits(benchmark::State& state) {
  // The planning a late-stage Transit observer does in one Compute: its
  // view's gate table, its own plans, and the plans of every Transit rival
  // it models.
  using lumen::model::Light;
  const auto snap = ring_snapshot(static_cast<std::size_t>(state.range(0)), false, 0.4,
                                  Light::kTransit);
  const auto view = lumen::core::build_view(snap);
  std::vector<std::size_t> subjects = {0};
  for (std::size_t i = 1; i < view.count(); ++i) {
    if (view.lights[i] == Light::kTransit) subjects.push_back(i);
  }
  std::vector<lumen::core::ExitPlan> plans;
  for (auto _ : state) {
    const lumen::core::GateTable table(view);
    for (const std::size_t i : subjects) {
      table.plan_exits(view.pts[i], plans);
      benchmark::DoNotOptimize(plans.data());
    }
  }
  state.counters["subjects"] = static_cast<double>(subjects.size());
  state.counters["hull"] = static_cast<double>(view.hull.size());
}
BENCHMARK(BM_PlanExits)->Arg(512);

void BM_VerifySuccess(benchmark::State& state, bool converged) {
  // A campaign cell's success verdict under "complete-visibility": a
  // converged (strictly convex) final configuration, or an unconverged
  // uniform disk. Both are decided by the convex-position certificate.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Vec2> world;
  if (converged) {
    for (std::size_t i = 0; i < n; ++i) {
      const double a = 6.283185307179586 * static_cast<double>(i) /
                       static_cast<double>(n);
      world.push_back({100 * std::cos(a), 100 * std::sin(a)});
    }
  } else {
    world = lumen::gen::generate(lumen::gen::ConfigFamily::kUniformDisk, n, 8);
  }
  for (auto _ : state) {
    const bool ok =
        lumen::sim::verify_success("complete-visibility", world).satisfied;
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK_CAPTURE(BM_VerifySuccess, converged, true)->Arg(512)->Arg(4096);
BENCHMARK_CAPTURE(BM_VerifySuccess, unconverged, false)->Arg(512)->Arg(4096);

void BM_FullAsyncRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto algo = lumen::core::make_algorithm("async-log");
  const auto initial =
      lumen::gen::generate(lumen::gen::ConfigFamily::kUniformDisk, n, 7);
  for (auto _ : state) {
    lumen::sim::RunConfig config;
    config.seed = 7;
    auto run = lumen::sim::run_simulation(*algo, initial, config);
    benchmark::DoNotOptimize(run);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullAsyncRun)->RangeMultiplier(2)->Range(16, 64)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: default to ALSO writing JSON (bench_micro.json) so the
// results are machine-readable without extra flags; any explicit
// --benchmark_out takes precedence.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=bench_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  // library_build_type in the JSON reports how google-benchmark ITSELF was
  // compiled (a debug system package taints it irreparably); what the
  // regression gate must trust is how THIS binary — the code under test —
  // was compiled. compare_bench.py hard-fails on anything but "release".
#ifdef NDEBUG
  benchmark::AddCustomContext("lumen_build_type", "release");
#else
  benchmark::AddCustomContext("lumen_build_type", "debug");
#endif
  benchmark::AddCustomContext(
      "lumen_simd",
      std::string(lumen::geom::simd::to_string(
          lumen::geom::simd::active_level())));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
