// lumen_geom: scalar reference implementation of the batch kernels.
//
// This level always exists (it is the first row of kernel_table(), and
// hosts with no vector kernels compiled in dispatch to it). It IS the
// bit-identity reference: every vector level must reproduce these outputs
// byte for byte, so "scalar" differs from the vector levels only in lane
// width, never in behavior.
#include "geom/simd.hpp"
#include "geom/simd_common.hpp"

namespace lumen::geom::simd::scalar {

void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch) {
  detail::build_records(xs, ys, n, i, o, scratch, detail::append_records);
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

std::size_t cone_skip(const Vec2* pts, std::size_t begin, std::size_t n,
                      Vec2 o, Vec2 da, Vec2 db) {
  for (std::size_t j = begin; j < n; ++j) {
    const Vec2 d = pts[j] - o;
    if (!geom::certainly_ccw(da, d) || !geom::certainly_ccw(d, db)) return j;
  }
  return n;
}

}  // namespace lumen::geom::simd::scalar
