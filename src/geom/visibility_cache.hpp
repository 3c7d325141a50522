// lumen_geom: incremental obstructed-visibility maintenance.
//
// The one-shot kernel (visible_from) rebuilds an observer's whole angular
// order every Look. Between two Looks of the same observer, though, only
// the robots that COMMITTED a position change since the last rebuild can
// have altered its angular neighborhood — everyone else's sort key (diff,
// dist2, pseudo-angle) is bit-for-bit unchanged. VisibilityCache exploits
// that: per observer it retains the exactly-sorted half-plane key arrays
// plus the emitted visible-id list, stamped with the world version at
// build time. On the next Look the dirty set is read off the world's
// write log suffix (O(#writes since), not O(N)):
//
//   * empty dirty set            -> replay the stored id list verbatim;
//   * small dirty set, observer
//     itself clean               -> REPAIR: delete the dirty robots' stale
//                                   keys, exact-insert their recomputed
//                                   keys (the arrays stay the unique
//                                   exactly-sorted sequence), re-emit;
//   * observer dirty / large set -> full rebuild.
//
// Bit-identity: every path yields exactly the sequence visible_from would
// produce on the same coordinate arrays. Replay returns a list produced by
// an identical emission over an identical world; repair reconstructs the
// unique exact-sorted key sequence (insertion uses the same strict total
// order as the sort) and runs the same emission. The property tests in
// tests/sim_incremental_visibility_test.cpp pin cache == naive oracle
// under random moves, crashes and noise on every scheduler.
//
// Deaths need no invalidation: a crash-stopped robot keeps its body (and
// thus keeps obstructing) at an unchanged position, so it never dirties
// anyone's neighborhood.
//
// Storage is budgeted: entries exist only for the observer prefix [0, cap)
// where cap is sized so retained keys+ids stay within `budget_bytes`
// (~40 bytes per robot per cached observer). Observers beyond the prefix
// fall through to the one-shot kernel — this is what keeps N = 65536
// rounds inside a fixed footprint instead of the ~2.6 MB/observer a full
// cache would need. In-flight movers (interpolated coordinates that never
// hit the write log) force the transient path: entries are neither stored
// nor repaired while anyone is mid-move.
//
// Concurrency: distinct observers touch distinct entries, and the world
// arrays plus write log are frozen during a Look batch, so the parallel
// SYNC fan-out may call visible_from() concurrently for distinct i. The
// hit/repair/rebuild counters are relaxed atomics.
#pragma once

#include "geom/visibility.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lumen::geom {

class VisibilityCache {
 public:
  /// Per-cached-observer storage estimate, bytes per robot: one AngularKey
  /// (32) plus one retained id (8).
  static constexpr std::size_t kBytesPerRobot = sizeof(AngularKey) + 8;

  /// Dirty sets larger than size/kRepairDivisor robots take the rebuild
  /// path: beyond that the exact re-insertions cost more than one radix
  /// presort of the whole half.
  static constexpr std::size_t kRepairDivisor = 8;

  VisibilityCache() = default;
  VisibilityCache(const VisibilityCache&) = delete;
  VisibilityCache& operator=(const VisibilityCache&) = delete;

  /// Rebinds to a swarm of n robots under a storage budget (0 disables
  /// caching entirely). Invalidates every entry — version stamps restart
  /// with each run — and zeroes the hit counters, but keeps entry capacity,
  /// so reuse across engine resets (sim::LookArena) stays allocation-free in
  /// steady state.
  void reset(std::size_t n, std::size_t budget_bytes);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Observers below this index are cached; the rest always rebuild.
  [[nodiscard]] std::size_t cached_observers() const noexcept { return cap_; }

  /// Visible ids of observer i against the current world, bit-identical to
  /// geom::visible_from(xs, ys, i, ...). `write_log` is the world's full
  /// committed-write log (see sim::WorldState): the suffix past an entry's
  /// stored version IS its dirty set. `moving_count` > 0 signals that
  /// xs/ys contain interpolated in-flight positions (transient; bypasses
  /// storage).
  void visible_from(std::span<const double> xs, std::span<const double> ys,
                    std::size_t i, std::span<const std::uint32_t> write_log,
                    std::size_t moving_count, VisibilityScratch& scratch,
                    std::vector<std::size_t>& out);

  [[nodiscard]] std::uint64_t replays() const noexcept {
    return replays_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t repairs() const noexcept {
    return repairs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rebuilds() const noexcept {
    return rebuilds_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    bool valid = false;
    /// Admission counter: an entry is stored only on the observer's SECOND
    /// rebuild of a run. One-shot workloads (an observer that Looks once,
    /// e.g. a single-round bench or a converged robot's last Look) would
    /// otherwise pay the gather-and-copy of ~n keys for a reuse that never
    /// comes; recurring observers pay one extra plain rebuild and then
    /// replay/repair from the third Look on.
    std::uint8_t touches = 0;
    std::uint64_t version = 0;           ///< write_log length at build time.
    std::vector<AngularKey> upper;       ///< Exactly sorted, angle in [0, pi).
    std::vector<AngularKey> lower;       ///< Exactly sorted, angle in [pi, 2pi).
    std::vector<std::size_t> ids;        ///< Emission result at `version`.
  };

  /// Full rebuild for observer i; stores into `e` when storable (committed
  /// world, i within the cached prefix).
  void rebuild(std::span<const double> xs, std::span<const double> ys,
               std::size_t i, Entry* e, std::uint64_t version, bool storable,
               VisibilityScratch& scratch, std::vector<std::size_t>& out);

  std::size_t n_ = 0;
  std::size_t cap_ = 0;
  std::vector<Entry> entries_;
  mutable std::atomic<std::uint64_t> replays_{0};
  mutable std::atomic<std::uint64_t> repairs_{0};
  mutable std::atomic<std::uint64_t> rebuilds_{0};
};

}  // namespace lumen::geom
