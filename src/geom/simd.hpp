// lumen_geom: runtime-dispatched SIMD batch kernels over split arrays.
//
// The hottest inner loops of the geometry substrate — the per-observer
// angular-key build that feeds the visibility sort, the Akl–Toussaint
// extremes scan and interior cull that shrink the convex-hull candidate
// set, and the corner certificate of a Compute's view — are data parallel
// over the coordinate arrays. This layer provides
// batched versions of them, compiled per instruction set (SSE2/AVX2 on
// x86-64, NEON on aarch64, plus an always-present scalar reference). The
// CPU alone picks the level: the dispatched entry points run the widest
// level this binary carries and this host can execute, resolved once on
// first use.
//
// The hard contract is BIT-IDENTITY: every level produces byte-for-byte the
// same AngularKey sequences, presort records, extremes, cull mask and
// corner verdict as the scalar reference. The vector kernels evaluate
// exactly the scalar formulas — same IEEE operations in the same order,
// compiled with FP contraction off so no fused multiply-add can change a
// rounding — and SIMD is only ever allowed to CERTIFY a stage-A decision
// the scalar filter would also certify, never to decide an uncertain one
// (uncertain lanes keep the conservative outcome, exactly like the scalar
// certify-only filters, or take the exact predicate).
// tests/geom_simd_test.cpp walks kernel_table() and pins every row against
// the scalar row; the golden-seed digests pin it end to end.
#pragma once

#include "geom/vec2.hpp"
#include "geom/visibility.hpp"

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

[[nodiscard]] std::string_view to_string(Level level) noexcept;

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
  bool (*corner_certificate)(const Vec2* pts, std::size_t n);
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
/// filter (geom/simd_common.hpp: certainly_left). When the vertices are
/// input points, such a point has winding number >= 1 and so lies strictly
/// inside the hull whether or not the polyline is convex (DESIGN §15.6);
/// uncertified lanes report 0 ("keep"), so a hull built from the surviving
/// points is bit-identical to one built from all points. Any vertex count
/// is accepted; a zero-length edge certifies nothing.
void hull_cull_mask(const Vec2* pts, std::size_t n,
                    std::span<const Vec2> polygon, std::uint8_t* inside);

/// The one-pass corner certificate: true only when it PROVES pts[0] a
/// strict vertex of conv(pts[0..n)) (n >= 1). It picks the candidate cone (a, b) — the
/// points of least and greatest pseudo-angle (simd_common.hpp: cone_key)
/// measured from the first point distinct from pts[0], ties to the smallest
/// index — then verifies orient(pts[0], a, b) > 0 and, for every point p,
/// orient(pts[0], a, p) >= 0 and orient(pts[0], p, b) >= 0: every point
/// other than pts[0] then lies in a closed cone opening below pi. The
/// orientations are exact: a stage-A filter certifies the clear lanes and
/// orient2d_around decides the rest. False means "not proven", never "not
/// a vertex" — the pick can miss the true extremes by rounding — so
/// callers keep an exact fallback. Every level returns the scalar row's
/// answer, because the pick and the exact verification are the same.
[[nodiscard]] bool corner_certificate(const Vec2* pts, std::size_t n);

}  // namespace lumen::geom::simd
