// lumen_geom: robust geometric predicates.
//
// Orientation of three points is THE decision the whole system hangs on:
// convex-hull corners, collinearity (hence obstructed visibility), and
// path-crossing classification all reduce to it. Plain double determinants
// misclassify near-degenerate triples, so orient2d() uses Shewchuk's
// adaptive scheme: a cheap filtered determinant whose error bound certifies
// the sign (certainly_ccw, the one stage-A filter every caller shares,
// scalar or SIMD), falling back to exact floating-point expansion
// arithmetic when the filter cannot decide. The exact path is exercised
// directly by tests with adversarially collinear inputs.
//
// The exact stage assumes products do not underflow: it splits each
// coordinate product into a rounded head and an FMA-computed tail, and that
// split is exact only while the tail is a normal double (a nonzero product
// of magnitude above about 2^-968). Below that a tail may round away and
// the sign of an almost-collinear triple can be wrong. Robot coordinates
// never come near that scale.
#pragma once

#include "geom/vec2.hpp"

#include <cmath>

namespace lumen::geom {

namespace detail {
/// Exact sign of (b-a) x (c-a) via expansion arithmetic. Exposed for tests.
[[nodiscard]] int orient2d_exact_sign(Vec2 a, Vec2 b, Vec2 c) noexcept;

/// Machine half-ulp (2^-53) and Shewchuk's stage-A error coefficient.
inline constexpr double kEpsilon = 0x1.0p-53;
inline constexpr double kCcwErrBoundA = (3.0 + 16.0 * kEpsilon) * kEpsilon;
}  // namespace detail

/// True only when the stage-A filter CERTIFIES u x v > 0 for rounded
/// offsets u = a - c and v = b - c, i.e. orient2d(a, b, c) > 0 (c strictly
/// left of a->b). The error sum is |u.x v.y| + |u.y v.x|, and a product
/// rounded to zero certifies nothing. The bound is strict: for subnormal
/// products it rounds to zero, and det = 0 must not pass. An uncertain
/// sign returns false; callers without an exact fallback (the hull's
/// interior cull, the corner walk's cone skip) read that as "decide this
/// one exactly", which is sound because a false negative merely forgoes a
/// shortcut.
[[nodiscard]] inline bool certainly_ccw(Vec2 u, Vec2 v) noexcept {
  const double dl = u.x * v.y;
  const double dr = u.y * v.x;
  const double det = dl - dr;
  return dl != 0.0 &&
         det > detail::kCcwErrBoundA * (std::fabs(dl) + std::fabs(dr));
}

/// Orientation sign of the triple (a, b, c), given the PRECOMPUTED rounded
/// differences u = a - c and v = b - c. Callers that compare many points
/// around one origin hoist the subtractions out of the comparator; the
/// exact expansion fallback on the ORIGINAL coordinates keeps the result
/// exact.
[[nodiscard]] inline int orient2d_around(Vec2 u, Vec2 v, Vec2 a, Vec2 b,
                                         Vec2 c) noexcept {
  if (certainly_ccw(u, v)) return 1;
  if (certainly_ccw(v, u)) return -1;
  return detail::orient2d_exact_sign(a, b, c);
}

/// Sign of the signed area of triangle (a, b, c):
///   +1  -> c is to the left of directed line a->b  (counter-clockwise)
///    0  -> a, b, c are exactly collinear
///   -1  -> c is to the right (clockwise)
/// Exact: the returned sign is the sign of the real-arithmetic determinant.
[[nodiscard]] inline int orient2d(Vec2 a, Vec2 b, Vec2 c) noexcept {
  return orient2d_around(a - c, b - c, a, b, c);
}

/// The filtered determinant value (not just sign); exact fallback applied.
/// Useful where magnitude matters but only near-zero needs exactness.
[[nodiscard]] double orient2d_value(Vec2 a, Vec2 b, Vec2 c) noexcept;

/// True iff a, b, c lie on one line (orient2d == 0).
[[nodiscard]] inline bool collinear(Vec2 a, Vec2 b, Vec2 c) noexcept {
  return orient2d(a, b, c) == 0;
}

/// True iff p lies on the CLOSED segment [a, b] (collinear and within the
/// bounding box). Exact.
[[nodiscard]] bool on_segment_closed(Vec2 a, Vec2 b, Vec2 p) noexcept;

/// True iff p lies strictly between a and b on the OPEN segment (a, b):
/// collinear, inside the box, and distinct from both endpoints. Exact.
/// This is precisely the "blocking" relation of obstructed visibility.
[[nodiscard]] bool on_segment_open(Vec2 a, Vec2 b, Vec2 p) noexcept;

}  // namespace lumen::geom
