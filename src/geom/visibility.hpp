// lumen_geom: obstructed visibility among point robots.
//
// Robot i sees robot j iff no third robot lies on the open segment (i, j).
// Because robots are dimensionless points, a blocker must be EXACTLY
// collinear — so from any observer, among all robots lying on one ray only
// the nearest is visible. That observation gives the fast kernel: sort the
// other robots around the observer with an exact angular comparator
// (O(n log n) per observer, O(n^2 log n) for the full graph) and keep, per
// equal-direction run, the exact nearest robot plus anything coincident
// with it.
//
// The sort itself is two-tier. Each robot becomes one 8-byte record: the
// float diamond pseudo-angle of its direction (uncertainty ~3e-7,
// dominated by the f32 rounding, orders of magnitude below kSuspectEps) in
// the high word, its index in the low word. A radix pass orders the
// records by that angle, and only "suspect groups" — maximal chains of
// records whose consecutive pseudo-angles sit within kSuspectEps — are
// re-sorted with the exact orient2d_around comparator, which recomputes
// the direction and squared distance from the coordinates. Because the
// exact comparator is a strict total order (orientation, then squared
// distance, then index), the fixed-up sequence is the unique exact-sorted
// order, so the output is bit-identical to a direct exact sort. Records
// stream out of split x/y coordinate arrays (the simulation's WorldState
// layout); the Vec2 entry points split their points once and run the same
// kernel. A brute-force O(n^3) checker is kept as the test oracle.
#pragma once

#include "geom/vec2.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lumen::util {
class ThreadPool;
}

namespace lumen::geom {

/// Symmetric visibility relation over a fixed point set. Rows are stored as
/// 64-bit blocks so edge_count/complete work on whole words instead of
/// scanning bits one at a time.
class VisibilityGraph {
 public:
  VisibilityGraph() = default;
  explicit VisibilityGraph(std::size_t n)
      : n_(n), words_(n == 0 ? 0 : (n + 63) / 64), bits_(n * words_, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool sees(std::size_t i, std::size_t j) const noexcept {
    return ((bits_[i * words_ + (j >> 6)] >> (j & 63)) & 1u) != 0;
  }
  void set(std::size_t i, std::size_t j) noexcept {
    set_half(i, j);
    set_half(j, i);
  }
  /// One direction only — the parallel observer sweep: each task owns row i
  /// outright (no two tasks touch the same word), and the mirrored sweep
  /// from j supplies the symmetric bit. Use set() everywhere else.
  void set_half(std::size_t i, std::size_t j) noexcept {
    bits_[i * words_ + (j >> 6)] |= std::uint64_t{1} << (j & 63);
  }

  /// Number of (unordered) visible pairs. O(n^2 / 64).
  [[nodiscard]] std::size_t edge_count() const noexcept;
  /// True iff every pair of distinct robots is mutually visible.
  /// Early-exits on the first block with a missing pair.
  [[nodiscard]] bool complete() const noexcept;

 private:
  std::size_t n_ = 0;
  std::size_t words_ = 0;  ///< 64-bit blocks per row.
  std::vector<std::uint64_t> bits_;
};

/// One angular-sort key with its direction and squared distance: the
/// element of the visibility cache's stored halves (geom/visibility_cache),
/// whose repair inserts by the exact comparator without recomputing the
/// survivors' differences.
struct AngularKey {
  Vec2 diff;            ///< pts[index] - observer, rounded once.
  double dist2;         ///< |diff|^2 for the same-ray tie-break.
  float akey;           ///< Diamond pseudo-angle of diff within its half.
  std::uint32_t index;  ///< Original point id.
};

/// Reusable workspace for visible_from: the per-observer sort records
/// (akey bits << 32 | robot index) partitioned by half-plane (angle in
/// [0, pi) vs [pi, 2pi)), plus the radix scatter buffer. Holding one per
/// caller (or per pool worker) makes the steady-state visibility sweep
/// allocation-free: every buffer keeps its capacity across calls,
/// including across ExecutionCore resets when the scratch is owned above
/// the engine (see sim::LookArena).
struct VisibilityScratch {
  std::vector<std::uint64_t> upper;     ///< Direction angle in [0, pi).
  std::vector<std::uint64_t> lower;     ///< Direction angle in [pi, 2pi).
  std::vector<std::uint64_t> sort_tmp;  ///< Radix scatter buffer.
  std::vector<std::uint32_t> dirty;     ///< VisibilityCache: deduped dirty set.
  std::vector<std::uint8_t> mark;       ///< VisibilityCache: membership mask.
};

/// Fills `out` with the indices of the robots visible from observer `i`
/// (excluding i itself) among the points {xs[j], ys[j]}, using `scratch`
/// for the sort records and workspace. Coincident points never see each other
/// (they are collisions, flagged elsewhere). O(n log n); performs no heap
/// allocation once the buffers have warmed to the point count.
void visible_from(std::span<const double> xs, std::span<const double> ys,
                  std::size_t i, VisibilityScratch& scratch,
                  std::vector<std::size_t>& out);

/// Full visibility graph, O(n^2 log n): splits the points once into xs/ys
/// and runs visible_from per observer. With a pool, observers fan out
/// across the workers (each task fills only its own rows, so the result is
/// bit-identical to the serial sweep for any pool size); nullptr runs
/// serially on the caller.
[[nodiscard]] VisibilityGraph compute_visibility(std::span<const Vec2> pts,
                                                 util::ThreadPool* pool = nullptr);

/// Brute-force oracle: is j visible from i? O(n) per query.
[[nodiscard]] bool visible_naive(std::span<const Vec2> pts, std::size_t i,
                                 std::size_t j);

/// Brute-force full graph, O(n^3). Test oracle only.
[[nodiscard]] VisibilityGraph compute_visibility_naive(std::span<const Vec2> pts);

}  // namespace lumen::geom
