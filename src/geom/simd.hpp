// lumen_geom: runtime-dispatched SIMD batch kernels over split arrays.
//
// The hottest inner loops of the geometry substrate — the per-observer
// angular-key build that feeds the visibility sort, the Akl–Toussaint
// extremes scan and interior cull that shrink the convex-hull candidate
// set, and the in-cone skip of a Compute's corner walk — are data parallel
// over the coordinate arrays. This layer provides
// batched versions of them, compiled per instruction set (SSE2/AVX2 on
// x86-64, NEON on aarch64, plus an always-present scalar reference). The
// CPU alone picks the level: the dispatched entry points run the widest
// level this binary carries and this host can execute, resolved once on
// first use.
//
// The hard contract is BIT-IDENTITY: every level produces byte-for-byte the
// same AngularKey sequences, presort records, extremes, cull mask and
// skip index as the scalar reference. The vector kernels evaluate
// exactly the scalar formulas — same IEEE operations in the same order,
// compiled with FP contraction off so no fused multiply-add can change a
// rounding — and SIMD is only ever allowed to CERTIFY a stage-A decision
// the scalar filter would also certify, never to decide an uncertain one
// (uncertain lanes keep the conservative outcome, exactly like the scalar
// certify-only filter geom::certainly_ccw in predicates.hpp).
// tests/geom_simd_test.cpp walks kernel_table() and pins every row against
// the scalar row; the golden-seed digests pin it end to end.
#pragma once

#include "geom/vec2.hpp"
#include "geom/visibility.hpp"
#include "util/strings.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace lumen::geom::simd {

/// Dispatch levels in increasing preference order. kSse2 and kNeon are both
/// "128-bit wide" kernels (two double lanes); which one exists depends on
/// the architecture the library was compiled for.
enum class Level : int {
  kScalar = 0,
  kSse2 = 1,
  kNeon = 2,
  kAvx2 = 3,
};

inline constexpr auto kLevelNames = std::to_array<util::Named<Level>>({
    {Level::kScalar, "scalar"},
    {Level::kSse2, "sse2"},
    {Level::kNeon, "neon"},
    {Level::kAvx2, "avx2"},
});

[[nodiscard]] constexpr std::string_view to_string(Level level) noexcept {
  return util::name_of(kLevelNames, level);
}

/// Indices of the extreme points in the 8 directions the hull cull polygon
/// is built from, in CCW order of the outward normals (west, south-west,
/// south, ... north-west): min of x, x+y, y, y-x, then max of the same
/// four. The sums and differences are the rounded doubles; ties keep the
/// smallest index.
using HullExtremes = std::array<std::uint32_t, 8>;

/// One dispatch level's batch kernels; each entry has the signature and
/// contract of the dispatched function of the same name below.
struct Kernels {
  Level level;
  void (*build_keys_soa)(const double* xs, const double* ys, std::size_t n,
                         std::size_t i, Vec2 o, VisibilityScratch& scratch);
  void (*sort_angular_records)(std::vector<std::uint64_t>& records,
                               std::vector<std::uint64_t>& tmp, float max_key);
  HullExtremes (*hull_extremes)(const Vec2* pts, std::size_t n);
  void (*hull_cull_mask)(const Vec2* pts, std::size_t n,
                         std::span<const Vec2> polygon, std::uint8_t* inside);
  std::size_t (*cone_skip)(const Vec2* pts, std::size_t begin, std::size_t n,
                           Vec2 o, Vec2 da, Vec2 db);
};

/// The levels compiled into this binary AND runnable on this CPU, in
/// increasing width: the scalar reference is always the first row, and
/// the dispatched entry points below run the last row.
[[nodiscard]] std::span<const Kernels> kernel_table() noexcept;

/// The level the dispatched entry points run: kernel_table().back().level.
[[nodiscard]] Level active_level() noexcept;

/// Batched SoA angular-key build over pt(j) = {xs[j], ys[j]} (observer `i`
/// and coincident points skipped; each key is detail::make_key's), filling
/// scratch.upper/lower with the half-partitioned AngularKeys AND
/// scratch.upper_order/lower_order with the (akey bits << 32 | slot)
/// presort records the presort consumes. All four vectors are sized
/// exactly (a cheap vectorized counting pass precedes the build), so cold
/// calls reserve the true split rather than a guess.
void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch);

/// Batched value-bucketed presort of (float_bits << 32 | slot) records —
/// the dispatched form of util::sort_f32key_records (same preconditions:
/// keys are bit images of finite non-negative floats bounded by max_key).
/// Vector levels batch the float->bucket computation of the histogram and
/// scatter passes; the result is the full ascending 64-bit order, which is
/// CANONICAL — every level produces identical bytes by construction, so
/// this kernel carries no bit-identity risk at all. `tmp` is the bucket
/// cursor + scatter workspace and keeps its capacity across calls.
void sort_angular_records(std::vector<std::uint64_t>& records,
                          std::vector<std::uint64_t>& tmp, float max_key);

/// Batched scan for the 8 directional extremes of pts[0..n) (n >= 1).
[[nodiscard]] HullExtremes hull_extremes(const Vec2* pts, std::size_t n);

/// Batched Akl–Toussaint stage-A cull: inside[j] = 1 iff point j is
/// CERTIFIED strictly left of every edge of the closed polyline `polygon`
/// (polygon[i] -> polygon[i+1], last -> first) by the scalar certify-only
/// filter (geom/predicates.hpp: certainly_ccw). When the vertices are
/// input points, such a point has winding number >= 1 and so lies strictly
/// inside the hull whether or not the polyline is convex (DESIGN §15.6);
/// uncertified lanes report 0 ("keep"), so a hull built from the surviving
/// points is bit-identical to one built from all points. Any vertex count
/// is accepted; a zero-length edge certifies nothing.
void hull_cull_mask(const Vec2* pts, std::size_t n,
                    std::span<const Vec2> polygon, std::uint8_t* inside);

/// The in-cone skip of the corner walk: the first index j in [begin, n)
/// whose point the stage-A filter does not certify strictly inside the cone
/// around o from ray o->a counter-clockwise to ray o->b, given the offsets
/// da = a - o and db = b - o; n when every point is certified. A point p
/// is certified when certainly_ccw(da, p - o) and certainly_ccw(p - o, db)
/// hold, which proves orient(o, a, p) > 0 and orient(o, p, b) > 0. Points
/// equal to o, on a ray, outside the cone or too close to call stop the
/// skip, so the caller decides them exactly.
[[nodiscard]] std::size_t cone_skip(const Vec2* pts, std::size_t begin,
                                    std::size_t n, Vec2 o, Vec2 da, Vec2 db);

}  // namespace lumen::geom::simd
