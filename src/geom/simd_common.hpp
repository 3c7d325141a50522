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
#include <cstdint>
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

/// Scalar cull test for one point against the closed polyline `polygon`
/// (geom::certainly_ccw per edge), matching the vector lanes decision for
/// decision. An empty polyline certifies nothing.
inline bool inside_polygon(std::span<const Vec2> polygon, Vec2 p) noexcept {
  const std::size_t k = polygon.size();
  if (k == 0 || !certainly_ccw(polygon[k - 1] - p, polygon[0] - p)) return false;
  for (std::size_t i = 0; i + 1 < k; ++i) {
    if (!certainly_ccw(polygon[i] - p, polygon[i + 1] - p)) return false;
  }
  return true;
}

}  // namespace lumen::geom::simd::detail
