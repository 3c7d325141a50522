// lumen_geom: scalar building blocks shared by every SIMD dispatch level.
//
// The vector kernels in simd_batch.inl process full lanes and delegate
// block tails (and the whole input, at the scalar level) to these helpers,
// so "what one point contributes" is defined in exactly one place. The
// scalar formulas here ARE the bit-identity reference: a vector lane is
// correct iff it reproduces these doubles bit for bit.
#pragma once

#include "geom/predicates.hpp"
#include "geom/simd.hpp"
#include "geom/visibility.hpp"
#include "geom/visibility_detail.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

namespace lumen::geom::simd::detail {

/// Packs the radix presort record for a key about to land at `slot` in its
/// half (callers pass half.size() BEFORE the push_back).
inline std::uint64_t order_record(float akey, std::size_t slot) noexcept {
  return (std::uint64_t{std::bit_cast<std::uint32_t>(akey)} << 32) |
         static_cast<std::uint32_t>(slot);
}

/// Appends point j's angular key (direction d = p - o, nonzero; the key is
/// detail::make_key's) to the half-partitioned key vectors, together with
/// its presort record.
inline void append_key(Vec2 d, std::uint32_t j, VisibilityScratch& scratch) {
  using geom::detail::diamond_key;
  using geom::detail::half_of;
  if (half_of(d) == 0) {
    const float akey = diamond_key(d);
    scratch.upper_order.push_back(order_record(akey, scratch.upper.size()));
    scratch.upper.push_back(AngularKey{d, norm_sq(d), akey, j});
  } else {
    const float akey = diamond_key(Vec2{-d.x, -d.y});
    scratch.lower_order.push_back(order_record(akey, scratch.lower.size()));
    scratch.lower.push_back(AngularKey{d, norm_sq(d), akey, j});
  }
}

/// True only when the stage-A filter CERTIFIES orient2d(a, b, c) > 0 (c
/// strictly left of a->b). No exact fallback: an uncertain sign returns
/// false, which the interior cull treats as "keep the point" — sound,
/// because a false negative merely forgoes a discard.
inline bool certainly_left(Vec2 a, Vec2 b, Vec2 c) noexcept {
  const double detleft = (a.x - c.x) * (b.y - c.y);
  const double detright = (a.y - c.y) * (b.x - c.x);
  const double det = detleft - detright;
  if (!(det > 0.0)) return false;
  double detsum = 0.0;
  if (detleft > 0.0) {
    if (detright <= 0.0) return true;  // Opposite signs: det sign is exact.
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    detsum = -detleft - detright;  // det > 0 forces detright < detleft < 0.
  } else {
    return false;  // detleft rounded to zero: cannot certify.
  }
  return det >= geom::detail::kCcwErrBoundA * detsum;
}

/// The four keys whose minima and maxima are the hull extremes, in the
/// HullExtremes order: x, x+y, y, y-x.
struct ExtremeKeys {
  double q[4];
};

inline ExtremeKeys extreme_keys(Vec2 p) noexcept {
  return {{p.x, p.x + p.y, p.y, p.y - p.x}};
}

/// Folds point j into the running extremes `ext` (whose current minima and
/// maxima are `lo` / `hi`). Strict comparisons: of equal keys, the point
/// folded first wins.
inline void fold_extremes(Vec2 p, std::uint32_t j, ExtremeKeys& lo,
                          ExtremeKeys& hi, HullExtremes& ext) noexcept {
  const ExtremeKeys k = extreme_keys(p);
  for (std::size_t i = 0; i < 4; ++i) {
    if (k.q[i] < lo.q[i]) {
      lo.q[i] = k.q[i];
      ext[i] = j;
    }
    if (k.q[i] > hi.q[i]) {
      hi.q[i] = k.q[i];
      ext[i + 4] = j;
    }
  }
}

/// Pseudo-angle of the offset d measured from the reference direction r:
/// in [0, 2] counter-clockwise of r and in [-2, 0] clockwise of it,
/// monotone in the signed angle as computed. NaN when the dot and cross
/// products both round to zero or overflow; such a key is never picked.
inline double cone_key(Vec2 r, Vec2 d) noexcept {
  const double x = r.x * d.x + r.y * d.y;
  const double y = r.x * d.y - r.y * d.x;
  const double s = x / (std::fabs(x) + std::fabs(y));
  return y >= 0.0 ? 1.0 - s : s - 1.0;
}

/// The corner certificate's candidate pair: the smallest and largest cone
/// keys folded so far and the indices that attain them first.
struct ConePick {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// Folds point j (offset d from the observer) into the pick. Offsets equal
/// to zero (robots coincident with the observer) are skipped. Strict
/// comparisons: of equal keys, the point folded first wins.
inline void fold_cone_key(Vec2 r, Vec2 d, std::uint32_t j, ConePick& pick) noexcept {
  if (d.x == 0.0 && d.y == 0.0) return;
  const double key = cone_key(r, d);
  if (key < pick.lo) {
    pick.lo = key;
    pick.a = j;
  }
  if (key > pick.hi) {
    pick.hi = key;
    pick.b = j;
  }
}

/// The offset of the first point after pts[0] that differs from it, or the
/// zero vector when every point coincides with pts[0].
inline Vec2 cone_reference(const Vec2* pts, std::size_t n) noexcept {
  for (std::size_t j = 1; j < n; ++j) {
    if (pts[j] != pts[0]) return pts[j] - pts[0];
  }
  return Vec2{};
}

/// The candidate cone from ray o->a counter-clockwise to ray o->b, with the
/// offsets da = a - o and db = b - o every orientation below shares.
struct Cone {
  Vec2 o, a, b, da, db;
};

/// Exact: orient(o, a, b) > 0, so the cone opens strictly below pi.
inline bool cone_is_proper(const Cone& c) noexcept {
  return orient2d_around(c.da, c.db, c.a, c.b, c.o) > 0;
}

/// Exact: p (offset dp = p - o) lies in the closed cone, i.e.
/// orient(o, a, p) >= 0 and orient(o, p, b) >= 0.
inline bool in_closed_cone(const Cone& c, Vec2 p, Vec2 dp) noexcept {
  return orient2d_around(c.da, dp, c.a, p, c.o) >= 0 &&
         orient2d_around(dp, c.db, p, c.b, c.o) >= 0;
}

/// Scalar cull test for one point against the closed polyline `polygon`,
/// matching the vector lanes decision for decision. An empty polyline
/// certifies nothing.
inline bool inside_polygon(std::span<const Vec2> polygon, Vec2 p) noexcept {
  const std::size_t k = polygon.size();
  if (k == 0 || !certainly_left(polygon[k - 1], polygon[0], p)) return false;
  for (std::size_t i = 0; i + 1 < k; ++i) {
    if (!certainly_left(polygon[i], polygon[i + 1], p)) return false;
  }
  return true;
}

}  // namespace lumen::geom::simd::detail
