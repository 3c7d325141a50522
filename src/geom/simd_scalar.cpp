// lumen_geom: scalar reference implementation of the batch kernels.
//
// This level always exists (it is the first row of kernel_table(), and
// hosts with no vector kernels compiled in dispatch to it). It IS the
// bit-identity reference: every vector level must reproduce these outputs
// byte for byte. Note it still performs the exact-split counting pass and fuses the
// presort-record build, so "scalar" differs from the vector levels only in
// lane width, never in behavior.
#include "geom/simd.hpp"
#include "geom/simd_common.hpp"
#include "util/radix.hpp"

namespace lumen::geom::simd::scalar {

void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch) {
  scratch.upper.clear();
  scratch.lower.clear();
  scratch.upper_order.clear();
  scratch.lower_order.clear();
  std::size_t n_upper = 0;
  std::size_t n_valid = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j == i) continue;
    const double dx = xs[j] - o.x;
    const double dy = ys[j] - o.y;
    if (dx == 0.0 && dy == 0.0) continue;
    ++n_valid;
    if (dy > 0.0 || (dy == 0.0 && dx > 0.0)) ++n_upper;
  }
  scratch.upper.reserve(n_upper);
  scratch.upper_order.reserve(n_upper);
  scratch.lower.reserve(n_valid - n_upper);
  scratch.lower_order.reserve(n_valid - n_upper);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == i) continue;
    const double dx = xs[j] - o.x;
    const double dy = ys[j] - o.y;
    if (dx == 0.0 && dy == 0.0) continue;
    detail::append_key(Vec2{dx, dy}, static_cast<std::uint32_t>(j), scratch);
  }
}

HullExtremes hull_extremes(const Vec2* pts, std::size_t n) {
  HullExtremes ext{};
  detail::ExtremeKeys lo = detail::extreme_keys(pts[0]);
  detail::ExtremeKeys hi = lo;
  for (std::size_t j = 1; j < n; ++j) {
    detail::fold_extremes(pts[j], static_cast<std::uint32_t>(j), lo, hi, ext);
  }
  return ext;
}

void hull_cull_mask(const Vec2* pts, std::size_t n,
                    std::span<const Vec2> polygon, std::uint8_t* inside) {
  for (std::size_t j = 0; j < n; ++j) {
    inside[j] = detail::inside_polygon(polygon, pts[j]) ? 1 : 0;
  }
}

void sort_f32key_records(std::vector<std::uint64_t>& records,
                         std::vector<std::uint64_t>& tmp, float max_key) {
  util::sort_f32key_records(records, tmp, max_key);
}

std::size_t cone_skip(const Vec2* pts, std::size_t begin, std::size_t n,
                      Vec2 o, Vec2 da, Vec2 db) {
  for (std::size_t j = begin; j < n; ++j) {
    const Vec2 d = pts[j] - o;
    if (!geom::certainly_ccw(da, d) || !geom::certainly_ccw(d, db)) return j;
  }
  return n;
}

}  // namespace lumen::geom::simd::scalar
