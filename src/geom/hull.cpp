#include "geom/hull.hpp"

#include "geom/predicates.hpp"
#include "geom/simd.hpp"
#include "util/radix.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace lumen::geom {

namespace {

/// Monotone 64-bit image of a double coordinate: unsigned order of the key
/// equals numeric order of the value (sign bit remapped; -0.0 canonicalized
/// to +0.0 by the `+ 0.0` so the two zero encodings map to one key). The
/// image is EXACT — equal keys mean equal doubles — so a stable radix sort
/// by this key is already the exact coordinate order, with no approximate-
/// key tie runs to repair.
inline std::uint64_t coord_key64(double v) noexcept {
  const std::uint64_t u = std::bit_cast<std::uint64_t>(v + 0.0);
  return (u & 0x8000000000000000ull) != 0 ? ~u : (u | 0x8000000000000000ull);
}

/// Below this size the extreme-polygon cull costs more than the chain work it
/// saves. Output-neutral: the cull never changes the hull, only its cost.
/// Measured with BM_ConvexHull and BM_ConvexHullView at 8-128 points (AVX2
/// Xeon): the cull loses up to ~12 points, is a wash at 14-18, and from 20
/// points up takes 0.45-0.75x the time of the uncull hull.
inline constexpr std::size_t kCullMin = 20;

/// Exact lexicographic (x, y, index) sort of the fringe records, where
/// record.key is coord_key64(x) and the y/index tie-breaks read the points.
/// One monotone value-bucket scatter (bucket = (x - min_x) * scale, so
/// bucket order equals key order and equal keys share a bucket) followed by
/// exact per-bucket comparison sorts of the tiny runs — the same shape as
/// util::sort_f32key_records, but with the double coordinate as the bucket
/// value and the full three-way comparator as the finish. Chaining two
/// 8-pass 64-bit LSD radix sorts here costs 16 histogram+scatter sweeps and
/// loses ~2x to this at realistic sizes; the bucketed form does one.
inline void sort_fringe_records(std::vector<util::Key64Record>& records,
                                std::vector<util::Key64Record>& tmp,
                                std::span<const Vec2> points, double min_x,
                                double max_x) {
  const std::size_t m = records.size();
  const auto exact_less = [&points](const util::Key64Record& a,
                                    const util::Key64Record& b) {
    if (a.key != b.key) return a.key < b.key;  // Exact x order.
    const Vec2 pa = points[a.slot];
    const Vec2 pb = points[b.slot];
    if (pa.y != pb.y) return pa.y < pb.y;
    return a.slot < b.slot;
  };
  const auto compare_sort = [&] {
    std::sort(records.begin(), records.end(), exact_less);
  };
  const double range = max_x - min_x;
  // Tiny fringe, or every x equal (degenerate polygon): compare-sort.
  if (m < util::kRadixMinRecords || !(range > 0.0)) return compare_sort();
  const std::size_t nb =
      std::min<std::size_t>(std::bit_floor(m), std::size_t{1} << 13);
  const double scale = static_cast<double>(nb) / range;
  // A subnormal range overflows the scale to inf and an overflowed range
  // drops it to 0; either way (x - min_x) * scale can be NaN, whose cast to
  // a bucket index is undefined, so compare-sort those too.
  if (!(scale > 0.0) || !std::isfinite(scale)) return compare_sort();
  const auto bucket_of = [&](const util::Key64Record& r) {
    const auto b = static_cast<std::size_t>(
        (points[r.slot].x - min_x) * scale);
    return b < nb ? b : nb - 1;
  };
  std::vector<std::size_t> cursors(nb + 1, 0);
  for (const util::Key64Record& r : records) ++cursors[bucket_of(r) + 1];
  for (std::size_t b = 1; b <= nb; ++b) cursors[b] += cursors[b - 1];
  tmp.resize(m);
  for (const util::Key64Record& r : records) tmp[cursors[bucket_of(r)]++] = r;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t end = cursors[b];  // Post-scatter: one past bucket b.
    if (end - begin > 1) {
      std::sort(tmp.begin() + static_cast<std::ptrdiff_t>(begin),
                tmp.begin() + static_cast<std::ptrdiff_t>(end), exact_less);
    }
    begin = end;
  }
  records.swap(tmp);
}

}  // namespace

std::vector<std::size_t> convex_hull_indices(std::span<const Vec2> points) {
  const std::size_t n = points.size();
  // Exact lexicographic (x, y, index) sort: records carry the monotone
  // 64-bit image of x (so the primary comparison is one integer compare and
  // -0.0/+0.0 collapse), sort_fringe_records buckets by the x value and
  // finishes each tiny bucket with the exact (x, y, index) comparator. The
  // index tie-break makes the order — and hence the surviving duplicate
  // below — deterministic.
  std::vector<util::Key64Record> records;
  std::vector<util::Key64Record> tmp;
  records.reserve(n);
  double min_x = 0.0;
  double max_x = 0.0;
  if (n >= kCullMin) {
    // Akl–Toussaint interior cull against the polygon of the extreme
    // points in 8 directions (geom/simd.hpp: HullExtremes, CCW). A point
    // the certify-only stage-A filter puts strictly left of every edge of
    // a closed polyline through input points has winding number >= 1, so
    // it is strictly inside the hull and the monotone chain below could
    // never emit it (DESIGN §15.6) — this holds for any such polyline, so
    // the rounded x+y / y-x extremes and their tie-breaks need not be
    // exact. Dropping those points shrinks both the sort and the chain to
    // the candidate fringe while leaving the output bit-identical. Repeated
    // consecutive vertices are dropped because a zero-length edge certifies
    // nothing; on fully collinear input the polygon is degenerate, nothing
    // is certified, and the degenerate branch still sees the complete
    // sorted order.
    const simd::HullExtremes ext = simd::hull_extremes(points.data(), n);
    std::array<Vec2, 8> polygon;
    std::size_t k = 0;
    for (const std::uint32_t e : ext) {
      if (k == 0 || points[e] != polygon[k - 1]) polygon[k++] = points[e];
    }
    while (k > 1 && polygon[k - 1] == polygon[0]) --k;
    std::vector<std::uint8_t> inside(n);
    simd::hull_cull_mask(points.data(), n, {polygon.data(), k}, inside.data());
    for (std::uint32_t j = 0; j < n; ++j) {
      if (inside[j] != 0) continue;
      records.push_back(util::Key64Record{coord_key64(points[j].x), j});
    }
    min_x = points[ext[0]].x;
    max_x = points[ext[4]].x;
  } else {
    for (std::uint32_t j = 0; j < n; ++j) {
      records.push_back(util::Key64Record{coord_key64(points[j].x), j});
    }
  }
  sort_fringe_records(records, tmp, points, min_x, max_x);
  std::vector<std::size_t> order;
  order.reserve(records.size());
  for (const util::Key64Record& r : records) {
    order.push_back(r.slot);
  }
  // Drop exact duplicates (keep the first occurrence in sorted order).
  order.erase(std::unique(order.begin(), order.end(),
                          [&](std::size_t i, std::size_t j) {
                            return points[i] == points[j];
                          }),
              order.end());
  const std::size_t m = order.size();
  if (m <= 2) return order;

  // Check for full collinearity: monotone chain would return just the two
  // extremes anyway, but short-circuiting keeps the degenerate contract
  // explicit.
  bool degenerate = true;
  for (std::size_t i = 2; i < m; ++i) {
    if (orient2d(points[order[0]], points[order[1]], points[order[i]]) != 0) {
      degenerate = false;
      break;
    }
  }
  if (degenerate) return {order.front(), order.back()};

  std::vector<std::size_t> hull(2 * m);
  std::size_t k = 0;
  // Lower hull.
  for (std::size_t idx = 0; idx < m; ++idx) {
    const std::size_t i = order[idx];
    while (k >= 2 && orient2d(points[hull[k - 2]], points[hull[k - 1]],
                              points[i]) <= 0) {
      --k;
    }
    hull[k++] = i;
  }
  // Upper hull.
  const std::size_t lower_size = k + 1;
  for (std::size_t idx = m - 1; idx-- > 0;) {
    const std::size_t i = order[idx];
    while (k >= lower_size && orient2d(points[hull[k - 2]],
                                       points[hull[k - 1]], points[i]) <= 0) {
      --k;
    }
    hull[k++] = i;
  }
  hull.resize(k - 1);  // Last point equals the first.
  return hull;
}

HullPosition classify_against_hull(std::span<const Vec2> hull, Vec2 query) {
  const std::size_t h = hull.size();
  if (h == 0) return HullPosition::kOutside;
  if (h == 1) return query == hull[0] ? HullPosition::kVertex : HullPosition::kOutside;
  if (h == 2) {
    if (query == hull[0] || query == hull[1]) return HullPosition::kVertex;
    return on_segment_open(hull[0], hull[1], query) ? HullPosition::kEdge
                                                    : HullPosition::kOutside;
  }
  bool on_boundary = false;
  for (std::size_t i = 0; i < h; ++i) {
    const Vec2 a = hull[i];
    const Vec2 b = hull[(i + 1) % h];
    if (query == a) return HullPosition::kVertex;
    const int o = orient2d(a, b, query);
    if (o < 0) return HullPosition::kOutside;
    if (o == 0 && on_segment_closed(a, b, query)) on_boundary = true;
  }
  return on_boundary ? HullPosition::kEdge : HullPosition::kInterior;
}

bool points_in_strictly_convex_position(std::span<const Vec2> points) {
  // Two coincident points form a one-vertex hull, not two strict vertices;
  // for n >= 3 the hull drops duplicates, so a true verdict always means
  // the points are distinct.
  if (points.size() == 2) return points[0] != points[1];
  if (points.size() < 2) return true;
  if (all_collinear(points)) return false;
  const auto hull = convex_hull_indices(points);
  return hull.size() == points.size();
}

bool nearly_collinear(std::span<const Vec2> points, double rel_tol) {
  const std::size_t n = points.size();
  if (n <= 2) return true;
  // Anchor the line on the pair (p0, q) with q farthest from p0 — a
  // 2-approximation of the diameter, good enough for a tolerance test.
  std::size_t far_idx = 0;
  double far_sq = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const double d = distance_sq(points[0], points[i]);
    if (d > far_sq) {
      far_sq = d;
      far_idx = i;
    }
  }
  if (far_sq == 0.0) return true;  // All coincident.
  const Vec2 a = points[0];
  const Vec2 b = points[far_idx];
  // |orient| = 2 * area = |ab| * dist(c, line ab); require dist <= tol*|ab|.
  const double threshold = rel_tol * far_sq;
  for (std::size_t i = 1; i < n; ++i) {
    if (std::fabs(orient2d_value(a, b, points[i])) > threshold) return false;
  }
  return true;
}

bool all_collinear(std::span<const Vec2> points) {
  const std::size_t n = points.size();
  if (n <= 2) return true;
  // Find two distinct anchor points, then test the rest against them.
  std::size_t second = 1;
  while (second < n && points[second] == points[0]) ++second;
  if (second == n) return true;  // All coincident.
  for (std::size_t i = second + 1; i < n; ++i) {
    if (orient2d(points[0], points[second], points[i]) != 0) return false;
  }
  return true;
}

}  // namespace lumen::geom
