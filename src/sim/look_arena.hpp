// lumen_sim: cross-run Look-path workspace.
//
// Every buffer the Look path touches — the per-pool-slot visibility sort
// scratch, snapshot arrays and fault view buffers, the interpolated
// world-fill arrays and the incremental visibility cache — lives in a
// LookArena. ExecutionCore owns a private arena by default, which preserves
// the historical per-run behavior; a caller that executes many runs back to
// back (the campaign worker loop) passes one arena through RunConfig::arena
// instead, so capacity warmed by one cell carries into the next and the
// steady state stays allocation-free across engine resets, not just across
// Looks. Like RunConfig::pool, the arena is a process-local resource, never
// serialized, and never read concurrently by two runs.
#pragma once

#include "fault/state.hpp"
#include "geom/visibility_cache.hpp"
#include "model/snapshot.hpp"

#include <cstdint>
#include <vector>

namespace lumen::sim {

/// One pool slot's private Look workspace (tasks sharing a slot never run
/// concurrently, so slot count bounds live copies).
struct LookSlot {
  model::SnapshotScratch scratch;
  model::Snapshot snapshot;
  fault::ViewScratch view;
};

struct LookArena {
  // Per-pool-slot workspaces; a serial Look uses slot 0.
  std::vector<LookSlot> slots;

  // Interpolated world fill: committed coordinates with in-flight movers
  // overwritten per Look. `prev_movers` lists the slots dirtied by the
  // previous fill so the next one restores O(#movers) entries instead of
  // recopying the arrays (see ExecutionCore::fill_look_world).
  std::vector<double> look_xs;
  std::vector<double> look_ys;
  std::vector<std::uint32_t> prev_movers;

  // Incremental per-observer visibility maintenance (reset per run; entry
  // capacity survives, which is the point of sharing the arena).
  geom::VisibilityCache visibility_cache;

  // Per-Look staging, aligned with the robots that Look at one instant.
  std::vector<model::LocalFrame> frames;
  std::vector<std::uint64_t> seqs;
  std::vector<fault::LookFaultStats> stats;
};

}  // namespace lumen::sim
