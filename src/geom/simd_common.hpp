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

#include <cstdint>
#include <span>

namespace lumen::geom::simd::detail {

/// Write cursors into the two record halves, each sized to hold every
/// robot plus one slot of slack (see build_records).
struct RecordSink {
  std::uint64_t* upper;
  std::uint64_t* lower;
  std::size_t n_upper = 0;
  std::size_t n_lower = 0;
};

/// Appends the sort records of robots [begin, end) (observer o, coincident
/// robots skipped) one robot at a time: the scalar level's whole build and
/// the vector levels' block tails.
inline void append_records(const double* xs, const double* ys,
                           std::size_t begin, std::size_t end, Vec2 o,
                           RecordSink& sink) noexcept {
  for (std::size_t j = begin; j < end; ++j) {
    const Vec2 d{xs[j] - o.x, ys[j] - o.y};
    if (d.x == 0.0 && d.y == 0.0) continue;
    const std::uint64_t rec = geom::detail::make_record(
        geom::detail::akey_within_half(d), static_cast<std::uint32_t>(j));
    if (geom::detail::half_of(d) == 0) {
      sink.upper[sink.n_upper++] = rec;
    } else {
      sink.lower[sink.n_lower++] = rec;
    }
  }
}

/// The record build every level shares: sizes both halves for every robot
/// plus one slot of slack (the vector levels' both-sides store writes one
/// slot past a half's fill), runs the level's `append_range` over the
/// robots before and after observer i, and trims each half to its fill.
template <class AppendRange>
void build_records(const double* xs, const double* ys, std::size_t n,
                   std::size_t i, Vec2 o, VisibilityScratch& scratch,
                   const AppendRange& append_range) {
  scratch.upper.resize(n + 1);
  scratch.lower.resize(n + 1);
  RecordSink sink{scratch.upper.data(), scratch.lower.data()};
  append_range(xs, ys, 0, i, o, sink);
  append_range(xs, ys, i + 1 < n ? i + 1 : n, n, o, sink);
  scratch.upper.resize(sink.n_upper);
  scratch.lower.resize(sink.n_lower);
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
