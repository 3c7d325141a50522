// lumen_geom: SIMD level detection and kernel dispatch.
#include "geom/simd.hpp"

#include <array>

namespace lumen::geom::simd {

// Per-level kernel entry points. The scalar level always exists; the wide
// levels exist only when src/geom/CMakeLists.txt compiled their TU for
// this architecture (LUMEN_SIMD_HAVE_* definitions).
namespace scalar {
void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch);
HullExtremes hull_extremes(const Vec2* pts, std::size_t n);
void hull_cull_mask(const Vec2* pts, std::size_t n,
                    std::span<const Vec2> polygon, std::uint8_t* inside);
void sort_f32key_records(std::vector<std::uint64_t>& records,
                         std::vector<std::uint64_t>& tmp, float max_key);
std::size_t cone_skip(const Vec2* pts, std::size_t begin, std::size_t n,
                      Vec2 o, Vec2 da, Vec2 db);
}  // namespace scalar

#ifdef LUMEN_SIMD_HAVE_WIDE128
namespace wide128 {
void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch);
HullExtremes hull_extremes(const Vec2* pts, std::size_t n);
void hull_cull_mask(const Vec2* pts, std::size_t n,
                    std::span<const Vec2> polygon, std::uint8_t* inside);
void sort_f32key_records(std::vector<std::uint64_t>& records,
                         std::vector<std::uint64_t>& tmp, float max_key);
std::size_t cone_skip(const Vec2* pts, std::size_t begin, std::size_t n,
                      Vec2 o, Vec2 da, Vec2 db);
}  // namespace wide128
#endif

#ifdef LUMEN_SIMD_HAVE_AVX2
namespace avx2 {
void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch);
HullExtremes hull_extremes(const Vec2* pts, std::size_t n);
void hull_cull_mask(const Vec2* pts, std::size_t n,
                    std::span<const Vec2> polygon, std::uint8_t* inside);
void sort_f32key_records(std::vector<std::uint64_t>& records,
                         std::vector<std::uint64_t>& tmp, float max_key);
std::size_t cone_skip(const Vec2* pts, std::size_t begin, std::size_t n,
                      Vec2 o, Vec2 da, Vec2 db);
}  // namespace avx2
#endif

namespace {

/// The rows of kernel_table(): at most scalar, one 128-bit level and AVX2.
struct Table {
  std::array<Kernels, 3> rows{};
  std::size_t size = 0;
};

Table make_table() noexcept {
  Table t;
  t.rows[t.size++] = {Level::kScalar, scalar::build_keys_soa,
                      scalar::sort_f32key_records, scalar::hull_extremes,
                      scalar::hull_cull_mask, scalar::cone_skip};
#ifdef LUMEN_SIMD_HAVE_WIDE128
  // The 128-bit level's public name depends on the architecture the
  // wide128 TU was compiled for.
#if defined(__aarch64__) || defined(_M_ARM64)
  constexpr Level kWide128Level = Level::kNeon;
#else
  constexpr Level kWide128Level = Level::kSse2;
#endif
  t.rows[t.size++] = {kWide128Level, wide128::build_keys_soa,
                      wide128::sort_f32key_records, wide128::hull_extremes,
                      wide128::hull_cull_mask, wide128::cone_skip};
#endif
#ifdef LUMEN_SIMD_HAVE_AVX2
  if (__builtin_cpu_supports("avx2") != 0) {
    t.rows[t.size++] = {Level::kAvx2, avx2::build_keys_soa,
                        avx2::sort_f32key_records, avx2::hull_extremes,
                        avx2::hull_cull_mask, avx2::cone_skip};
  }
#endif
  return t;
}

/// The dispatched row, resolved once.
const Kernels& active() noexcept {
  static const Kernels& k = kernel_table().back();
  return k;
}

}  // namespace

std::span<const Kernels> kernel_table() noexcept {
  static const Table t = make_table();
  return {t.rows.data(), t.size};
}

Level active_level() noexcept { return active().level; }

void build_keys_soa(const double* xs, const double* ys, std::size_t n,
                    std::size_t i, Vec2 o, VisibilityScratch& scratch) {
  active().build_keys_soa(xs, ys, n, i, o, scratch);
}

void sort_angular_records(std::vector<std::uint64_t>& records,
                          std::vector<std::uint64_t>& tmp, float max_key) {
  active().sort_angular_records(records, tmp, max_key);
}

HullExtremes hull_extremes(const Vec2* pts, std::size_t n) {
  return active().hull_extremes(pts, n);
}

void hull_cull_mask(const Vec2* pts, std::size_t n,
                    std::span<const Vec2> polygon, std::uint8_t* inside) {
  active().hull_cull_mask(pts, n, polygon, inside);
}

std::size_t cone_skip(const Vec2* pts, std::size_t begin, std::size_t n,
                      Vec2 o, Vec2 da, Vec2 db) {
  return active().cone_skip(pts, begin, n, o, da, db);
}

}  // namespace lumen::geom::simd
