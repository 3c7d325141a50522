// Bit-identity pinning for the dispatched SIMD batch kernels.
//
// The contract in geom/simd.hpp is that every vector level reproduces the
// scalar reference BYTE FOR BYTE: same AngularKey images, same presort
// records, same hull extremes and cull mask, same sorted record order.
// These tests walk geom::simd::kernel_table() — every level compiled in and
// runnable on this CPU, scalar first — and memcmp each row's output against the scalar row
// across adversarial input families — uniform random, collinear-heavy (exercises
// the dy == 0 half-plane tie-break), coincident-heavy (skipped lanes), and
// a small integer lattice (exactly representable coordinates, maximal key
// ties) — at sizes chosen to hit every vector-width remainder path.
#include "geom/predicates.hpp"
#include "geom/simd.hpp"
#include "geom/visibility.hpp"
#include "split_points.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace lumen {
namespace {

using geom::Vec2;
using geom::simd::Kernels;
using geom::simd::Level;

struct InputFamily {
  const char* name;
  std::vector<Vec2> (*make)(std::size_t n, std::uint64_t seed);
};

std::vector<Vec2> make_random(std::size_t n, std::uint64_t seed) {
  util::Prng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    pts.push_back(Vec2{rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)});
  }
  return pts;
}

std::vector<Vec2> make_collinear_heavy(std::size_t n, std::uint64_t seed) {
  // Mostly points on two rays through the observer region (lots of exact
  // dy == 0 and equal-akey lanes), with a sprinkle of generic points.
  util::Prng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    switch (j % 4) {
      case 0: pts.push_back(Vec2{static_cast<double>(j) + 1.0, 0.0}); break;
      case 1: pts.push_back(Vec2{-static_cast<double>(j), 0.0}); break;
      case 2:
        pts.push_back(Vec2{static_cast<double>(j), 2.0 * static_cast<double>(j)});
        break;
      default:
        pts.push_back(Vec2{rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)});
    }
  }
  return pts;
}

std::vector<Vec2> make_coincident_heavy(std::size_t n, std::uint64_t seed) {
  // Half the points duplicate a handful of sites (including the observer
  // slot's own position, which every kernel must skip as coincident).
  util::Prng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (j % 2 == 0) {
      const double site = static_cast<double>(j % 6);
      pts.push_back(Vec2{site, -site});
    } else {
      pts.push_back(Vec2{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
    }
  }
  return pts;
}

std::vector<Vec2> make_lattice(std::size_t n, std::uint64_t /*seed*/) {
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    pts.push_back(Vec2{static_cast<double>(j % 17) - 8.0,
                       static_cast<double>(j / 17) - 8.0});
  }
  return pts;
}

constexpr InputFamily kFamilies[] = {
    {"random", make_random},
    {"collinear", make_collinear_heavy},
    {"coincident", make_coincident_heavy},
    {"lattice", make_lattice},
};

// Sizes straddling every remainder path of the 2- and 4-lane kernels.
constexpr std::size_t kSizes[] = {0, 1, 2, 3, 5, 8, 9, 16, 17, 64, 257};

void run_build(const Kernels& row, const std::vector<Vec2>& pts,
               std::size_t i, geom::VisibilityScratch& scratch) {
  const auto [xs, ys] = testutil::split_points(pts);
  const Vec2 o = pts.empty() ? Vec2{0.0, 0.0} : pts[i];
  row.build_keys_soa(xs.data(), ys.data(), pts.size(), i, o, scratch);
}

void expect_keys_equal(const std::vector<geom::AngularKey>& ref,
                       const std::vector<geom::AngularKey>& got,
                       const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  if (!ref.empty()) {
    EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                          ref.size() * sizeof(geom::AngularKey)),
              0)
        << what << ": AngularKey bytes differ from the scalar reference";
  }
}

TEST(GeomSimd, KernelTableStartsScalarAndDispatchesItsLastRow) {
  const auto table = geom::simd::kernel_table();
  ASSERT_FALSE(table.empty());
  EXPECT_EQ(table.front().level, Level::kScalar);
  EXPECT_EQ(geom::simd::active_level(), table.back().level);
}

TEST(GeomSimd, EveryLevelBuildsBitIdenticalKeys) {
  const auto table = geom::simd::kernel_table();
  const Kernels& scalar = table.front();
  for (const InputFamily& family : kFamilies) {
    for (std::size_t n : kSizes) {
      const auto pts = family.make(n, 7u * n + 13u);
      std::vector<std::size_t> observers = {0};
      if (n > 2) observers.push_back(n / 2);
      if (n > 1) observers.push_back(n - 1);
      for (std::size_t i : observers) {
        geom::VisibilityScratch ref;
        run_build(scalar, pts, i, ref);
        for (const Kernels& row : table.subspan(1)) {
          geom::VisibilityScratch got;
          run_build(row, pts, i, got);
          const std::string what =
              std::string(family.name) + " n=" + std::to_string(n) + " i=" +
              std::to_string(i) + " level=" +
              std::string(geom::simd::to_string(row.level));
          expect_keys_equal(ref.upper, got.upper, what + " upper");
          expect_keys_equal(ref.lower, got.lower, what + " lower");
          EXPECT_EQ(ref.upper_order, got.upper_order) << what;
          EXPECT_EQ(ref.lower_order, got.lower_order) << what;
        }
      }
    }
  }
}

/// Brute force: the first index attaining each directional extreme.
geom::simd::HullExtremes brute_extremes(const std::vector<Vec2>& pts) {
  geom::simd::HullExtremes expected{};
  for (std::size_t d = 0; d < 8; ++d) {
    const auto key = [&](std::size_t j) {
      const Vec2 p = pts[j];
      const double q[4] = {p.x, p.x + p.y, p.y, p.y - p.x};
      return d < 4 ? q[d] : -q[d - 4];
    };
    std::size_t best = 0;
    for (std::size_t j = 1; j < pts.size(); ++j) {
      if (key(j) < key(best)) best = j;
    }
    expected[d] = static_cast<std::uint32_t>(best);
  }
  return expected;
}

TEST(GeomSimd, EveryLevelFindsTheSameExtremes) {
  const auto table = geom::simd::kernel_table();
  for (const InputFamily& family : kFamilies) {
    for (std::size_t n : kSizes) {
      if (n == 0) continue;
      const auto pts = family.make(n, 17u * n + 3u);
      const auto expected = brute_extremes(pts);
      for (const Kernels& row : table) {
        EXPECT_EQ(expected, row.hull_extremes(pts.data(), n))
            << family.name << " n=" << n
            << " level=" << geom::simd::to_string(row.level);
      }
    }
  }
}

TEST(GeomSimd, ExtremesKeepTheFirstOfTiesAcrossChunks) {
  // Every extreme is planted twice, far apart, so equal keys land in
  // different lanes and chunks of the vector scan; ±0 keys compare equal.
  auto pts = make_random(1000, 5);
  const Vec2 planted[] = {{-500, 1},   {-300, -300}, {2, -500}, {300, -300},
                          {500, 3},    {300, 300},   {4, 500},  {-300, 300},
                          {-0.0, 0.0}, {0.0, -0.0}};
  std::size_t at = 137;
  for (const Vec2 p : planted) {
    pts[at % 1000] = p;
    pts[(at * 7 + 411) % 1000] = p;
    at += 89;
  }
  const auto expected = brute_extremes(pts);
  for (const Kernels& row : geom::simd::kernel_table()) {
    EXPECT_EQ(expected, row.hull_extremes(pts.data(), pts.size()))
        << "level=" << geom::simd::to_string(row.level);
  }
}

/// Cull polygons of k = 3..8 vertices over `pts`: the extreme polygon
/// hull.cpp builds (before its repeat removal, so it may carry repeated
/// vertices), random input points in random (mostly non-convex) order, the
/// same with consecutive and non-consecutive repeats, and a clockwise one.
std::vector<std::vector<Vec2>> cull_polygons(const std::vector<Vec2>& pts,
                                             std::uint64_t seed) {
  std::vector<std::vector<Vec2>> polys;
  const auto ext = geom::simd::hull_extremes(pts.data(), pts.size());
  std::vector<Vec2> extreme;
  for (const std::uint32_t e : ext) extreme.push_back(pts[e]);
  polys.push_back(extreme);
  util::Prng rng(seed);
  const auto pick = [&] { return pts[rng.next_below(pts.size())]; };
  for (std::size_t k = 3; k <= 8; ++k) {
    std::vector<Vec2> poly;
    for (std::size_t v = 0; v < k; ++v) poly.push_back(pick());
    polys.push_back(poly);
    std::vector<Vec2> repeated = poly;
    repeated[1] = repeated[0];          // Consecutive repeat.
    repeated[k - 1] = repeated[k / 2];  // Non-consecutive repeat.
    polys.push_back(repeated);
    polys.push_back({extreme.begin(), extreme.begin() + static_cast<std::ptrdiff_t>(k)});
    polys.push_back({extreme.rbegin(), extreme.rbegin() + static_cast<std::ptrdiff_t>(k)});
  }
  return polys;
}

TEST(GeomSimd, EveryLevelCullsBitIdentically) {
  const auto table = geom::simd::kernel_table();
  for (const InputFamily& family : kFamilies) {
    for (std::size_t n : kSizes) {
      if (n == 0) continue;
      const auto pts = family.make(n, 31u * n + 5u);
      for (const auto& poly : cull_polygons(pts, 7u * n + 1u)) {
        std::vector<std::uint8_t> ref(n, 0xcd);
        table.front().hull_cull_mask(pts.data(), n, poly, ref.data());
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_LE(ref[j], 1) << family.name << " n=" << n;
          if (ref[j] == 0) continue;
          // Certify-only: a culled point is strictly left of every edge.
          for (std::size_t e = 0; e < poly.size(); ++e) {
            ASSERT_GT(geom::orient2d(poly[e], poly[(e + 1) % poly.size()],
                                     pts[j]),
                      0)
                << family.name << " n=" << n << " j=" << j;
          }
        }
        for (const Kernels& row : table.subspan(1)) {
          std::vector<std::uint8_t> got(n, 0xab);
          row.hull_cull_mask(pts.data(), n, poly, got.data());
          EXPECT_EQ(0, std::memcmp(ref.data(), got.data(), n))
              << family.name << " n=" << n << " k=" << poly.size()
              << " level=" << geom::simd::to_string(row.level);
        }
      }
    }
  }
}

TEST(GeomSimd, CullStaysSoundNextToAnEdge) {
  // Points stepped one ulp at a time around a point of edge a->b of a
  // triangle whose third vertex lies far to the left. The vertex offsets
  // are rounded, so a plain sign test of the orientation would certify
  // some points on or outside the edge; every certified point must be
  // strictly inside by the exact predicate, at every level.
  util::Prng rng(77);
  const auto table = geom::simd::kernel_table();
  std::size_t certified = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Vec2 a{rng.uniform(-20, 20), rng.uniform(-20, 20)};
    const Vec2 b{rng.uniform(-20, 20), rng.uniform(-20, 20)};
    const double t = rng.uniform(0.05, 0.95);
    const Vec2 on{a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
    const std::vector<Vec2> triangle = {
        a, b, {on.x - 3 * (b.y - a.y), on.y + 3 * (b.x - a.x)}};
    std::vector<Vec2> pts;
    for (int i = -8; i <= 8; ++i) {
      for (int j = -8; j <= 8; ++j) {
        Vec2 p = on;
        for (int k = 0; k < std::abs(i); ++k) p.x = std::nextafter(p.x, i * 1e9);
        for (int k = 0; k < std::abs(j); ++k) p.y = std::nextafter(p.y, j * 1e9);
        pts.push_back(p);
      }
    }
    std::vector<std::uint8_t> ref(pts.size());
    table.front().hull_cull_mask(pts.data(), pts.size(), triangle, ref.data());
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (ref[j] == 0) continue;
      ++certified;
      ASSERT_GT(geom::orient2d(a, b, pts[j]), 0) << "trial=" << trial;
    }
    for (const Kernels& row : table.subspan(1)) {
      std::vector<std::uint8_t> got(pts.size());
      row.hull_cull_mask(pts.data(), pts.size(), triangle, got.data());
      ASSERT_EQ(ref, got) << "trial=" << trial
                          << " level=" << geom::simd::to_string(row.level);
    }
  }
  EXPECT_GT(certified, 0u);  // The grids are not all uncertain.
}

TEST(GeomSimd, EmptyOrDegeneratePolygonCertifiesNothing) {
  const auto pts = make_random(37, 99);
  const std::vector<Vec2> degenerate[] = {
      {}, {pts[0]}, {pts[0], pts[1]}, {pts[0], pts[0], pts[0]}};
  for (const Kernels& row : geom::simd::kernel_table()) {
    for (const auto& poly : degenerate) {
      std::vector<std::uint8_t> got(pts.size(), 0xab);
      row.hull_cull_mask(pts.data(), pts.size(), poly, got.data());
      EXPECT_EQ(got, std::vector<std::uint8_t>(pts.size(), 0))
          << "k=" << poly.size()
          << " level=" << geom::simd::to_string(row.level);
    }
  }
}

TEST(GeomSimd, EveryLevelSortsRecordsCanonically) {
  util::Prng rng(424242);
  for (std::size_t m : {0u, 1u, 50u, 95u, 96u, 97u, 300u, 4096u}) {
    // Diamond pseudo-angles: finite floats in [0, 2), heavy on ties.
    std::vector<std::uint64_t> records;
    records.reserve(m);
    for (std::size_t k = 0; k < m; ++k) {
      const float key = (k % 5 == 0)
                            ? static_cast<float>(k % 7) * 0.25f
                            : static_cast<float>(rng.uniform(0.0, 2.0));
      std::uint64_t bits = 0;
      std::memcpy(&bits, &key, sizeof(key));
      records.push_back((bits << 32) | static_cast<std::uint32_t>(k));
    }
    std::vector<std::uint64_t> expected = records;
    std::sort(expected.begin(), expected.end());
    for (const Kernels& row : geom::simd::kernel_table()) {
      std::vector<std::uint64_t> got = records;
      std::vector<std::uint64_t> tmp;
      row.sort_angular_records(got, tmp, 2.0f);
      EXPECT_EQ(expected, got)
          << "m=" << m << " level=" << geom::simd::to_string(row.level);
    }
  }
}

// --- the corner walk's in-cone skip ----------------------------------------

/// An observer at the origin followed by its view.
using CornerView = std::vector<Vec2>;

CornerView disk_view(util::Prng& rng, std::size_t n) {
  // A disk whose centre ranges from the origin to well beyond its rim.
  const Vec2 centre{rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)};
  CornerView pts = {Vec2{}};
  while (pts.size() < n) {
    const Vec2 p{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (geom::norm(p) <= 1.0) pts.push_back(centre + p);
  }
  return pts;
}

CornerView lattice_half_plane_view(util::Prng& rng, std::size_t n) {
  // Lattice points with a*i + b*j >= 0: exact collinearities on the
  // boundary line, which holds points on one ray, both or neither.
  const auto a = rng.uniform_int(-3, 3);
  const auto b = rng.uniform_int(-3, 3);
  CornerView pts = {Vec2{}};
  for (std::size_t tries = 0; pts.size() < n && tries < 40 * n; ++tries) {
    const auto i = rng.uniform_int(-9, 9);
    const auto j = rng.uniform_int(-9, 9);
    if ((i == 0 && j == 0) || a * i + b * j < 0) continue;
    pts.push_back(Vec2{static_cast<double>(i), static_cast<double>(j)});
  }
  return pts;
}

CornerView collinear_but_one_view(util::Prng& rng, std::size_t n) {
  const Vec2 dir{static_cast<double>(rng.uniform_int(-3, 3)),
                 static_cast<double>(rng.uniform_int(1, 3))};
  const Vec2 offset = rng.bernoulli(0.5) ? Vec2{}
                                         : Vec2{static_cast<double>(rng.uniform_int(-2, 2)),
                                                static_cast<double>(rng.uniform_int(-2, 2))};
  const bool both_rays = rng.bernoulli(0.5);
  CornerView pts = {Vec2{}};
  while (pts.size() + 1 < n) {
    auto t = static_cast<double>(1 + rng.next_below(40));
    if (both_rays && rng.bernoulli(0.5)) t = -t;
    const Vec2 p = offset + dir * t;
    if (p != Vec2{}) pts.push_back(p);
  }
  pts.push_back(Vec2{static_cast<double>(rng.uniform_int(-5, 5)),
                     static_cast<double>(rng.uniform_int(-5, 5))});
  return pts;
}

CornerView coincident_view(util::Prng& rng, std::size_t n) {
  // A disk view with copies of the observer (both zero signs) and repeated
  // robots in every lane position.
  CornerView pts = disk_view(rng, n);
  for (std::size_t j = 1; j < pts.size(); ++j) {
    if (rng.bernoulli(0.3)) {
      pts[j] = rng.bernoulli(0.5) ? Vec2{0.0, 0.0} : Vec2{-0.0, -0.0};
    } else if (rng.bernoulli(0.3)) {
      pts[j] = pts[1 + rng.next_below(j)];
    }
  }
  return pts;
}

CornerView circle_through_origin_view(util::Prng& rng, std::size_t n) {
  // Rounded points of a circle through the origin: the observer's
  // neighbours make near-degenerate orientations; the centre, when added,
  // makes the origin lose its corner status.
  const double phi = rng.uniform(0.0, 6.283185307179586);
  const Vec2 centre{std::cos(phi), std::sin(phi)};
  const double spread = rng.bernoulli(0.5) ? 1e-6 : 3.0;
  CornerView pts = {Vec2{}};
  while (pts.size() < n) {
    const double theta = phi + 3.141592653589793 + rng.uniform(-spread, spread);
    pts.push_back(centre + Vec2{std::cos(theta), std::sin(theta)});
  }
  if (rng.bernoulli(0.3)) pts[1 + rng.next_below(n - 1)] = centre;
  return pts;
}

CornerView regular_polygon_view(util::Prng& rng, std::size_t n) {
  // A vertex of a regular 4096-gon seeing n - 1 of the others, in offsets
  // from it: the neighbours lie within pi/4096 of the extreme rays.
  const auto vertex = [](std::size_t k) {
    const double a = 6.283185307179586 * static_cast<double>(k) / 4096.0;
    return Vec2{1000.0 * std::cos(a), 1000.0 * std::sin(a)};
  };
  const std::size_t self = rng.next_below(4096);
  CornerView pts = {Vec2{}};
  while (pts.size() < n) {
    const std::size_t k = rng.next_below(4096);
    if (k != self) pts.push_back(vertex(k) - vertex(self));
  }
  // Both neighbours in view, so the extreme rays are the polygon's edges.
  pts[1 + rng.next_below(n - 1)] = vertex((self + 1) % 4096) - vertex(self);
  pts[1 + rng.next_below(n - 1)] = vertex((self + 4095) % 4096) - vertex(self);
  return pts;
}

CornerView off_ray_view(util::Prng& rng, std::size_t n) {
  // A cone of opening below pi filled with robots, plus robots on its two
  // extreme rays nudged a few ulps to either side of them.
  const double start = rng.uniform(0.0, 6.283185307179586);
  const double opening = rng.uniform(0.5, 3.14159);
  const Vec2 a{std::cos(start), std::sin(start)};
  const Vec2 b{std::cos(start + opening), std::sin(start + opening)};
  CornerView pts = {Vec2{}, a, b};
  while (pts.size() < n) {
    const double t = rng.uniform(0.5, 3.0);
    Vec2 p;
    switch (rng.next_below(3)) {
      case 0: p = a * t; break;
      case 1: p = b * t; break;
      default: {
        const double theta = start + rng.uniform(0.0, opening);
        p = Vec2{std::cos(theta), std::sin(theta)} * t;
      }
    }
    const auto ulps = static_cast<int>(rng.next_below(4));
    const double toward = rng.bernoulli(0.5) ? 1e9 : -1e9;
    for (int k = 0; k < ulps; ++k) {
      if (rng.bernoulli(0.5)) {
        p.x = std::nextafter(p.x, toward);
      } else {
        p.y = std::nextafter(p.y, toward);
      }
    }
    pts.push_back(p);
  }
  return pts;
}

struct CornerFamily {
  const char* name;
  CornerView (*make)(util::Prng& rng, std::size_t n);
};

constexpr CornerFamily kCornerFamilies[] = {
    {"disk", disk_view},
    {"lattice-half-plane", lattice_half_plane_view},
    {"collinear-but-one", collinear_but_one_view},
    {"coincident", coincident_view},
    {"circle-through-origin", circle_through_origin_view},
    {"regular-4096-gon", regular_polygon_view},
    {"off-ray", off_ray_view},
};

/// The cone a corner walk ends with: the robots of least and greatest
/// angle around pts[0], found with exact orientations (meaningful when the
/// robots fit in an open half-plane through pts[0]; some pair otherwise).
std::pair<Vec2, Vec2> extreme_rays(const CornerView& pts) {
  std::size_t first = 1;
  while (first + 1 < pts.size() && pts[first] == pts[0]) ++first;
  Vec2 a = pts[first];
  Vec2 b = a;
  for (const Vec2& p : pts) {
    if (p == pts[0]) continue;
    if (geom::orient2d(pts[0], a, p) < 0) a = p;
    if (geom::orient2d(pts[0], b, p) > 0) b = p;
  }
  return {a, b};
}

TEST(GeomSimd, EveryLevelSkipsWhereTheScalarRowSkips) {
  // Random starts and cones — the view's extreme rays, where robots sit on
  // and a few ulps off the rays, or two random robots of the view: every
  // level returns the scalar row's index, and every robot skipped lies
  // strictly inside the cone by the exact predicate.
  const auto table = geom::simd::kernel_table();
  util::Prng rng(4242);
  constexpr std::size_t kViewSizes[] = {2, 3, 4, 5, 8, 9, 17, 64, 257, 700};
  for (const CornerFamily& family : kCornerFamilies) {
    std::size_t skipped = 0;
    for (const double scale : {1e-3, 1.0, 1e6}) {
      for (const std::size_t n : kViewSizes) {
        for (int trial = 0; trial < 12; ++trial) {
          CornerView pts = family.make(rng, n);
          for (Vec2& p : pts) p = p * scale;
          const Vec2 o = pts[0];
          auto [a, b] = rng.bernoulli(0.5)
                            ? extreme_rays(pts)
                            : std::pair{pts[rng.next_below(n)], pts[rng.next_below(n)]};
          if (geom::orient2d(o, a, b) < 0) std::swap(a, b);
          const std::size_t begin = rng.next_below(n + 1);
          const std::size_t ref =
              table.front().cone_skip(pts.data(), begin, n, o, a - o, b - o);
          const std::string what = std::string(family.name) + " n=" + std::to_string(n) +
                                   " scale=" + std::to_string(scale) +
                                   " begin=" + std::to_string(begin);
          ASSERT_GE(ref, begin) << what;
          ASSERT_LE(ref, n) << what;
          for (std::size_t j = begin; j < ref; ++j) {
            ASSERT_GT(geom::orient2d(o, a, pts[j]), 0) << what << " j=" << j;
            ASSERT_GT(geom::orient2d(o, pts[j], b), 0) << what << " j=" << j;
          }
          skipped += ref - begin;
          for (const Kernels& row : table.subspan(1)) {
            EXPECT_EQ(ref, row.cone_skip(pts.data(), begin, n, o, a - o, b - o))
                << what << " level=" << geom::simd::to_string(row.level);
          }
        }
      }
    }
    EXPECT_GT(skipped, 0u) << family.name;
  }
}

TEST(GeomSimd, UnderflowedProductsCertifyNothing) {
  // At coordinates near 2^-515 the filter's products are subnormal and its
  // error bound rounds to zero, so a zero determinant must not pass it: a
  // point on a polygon edge stays uncertified by the cull, and a robot on a
  // cone's ray stops the skip, at every level.
  const double s = std::ldexp(1.0, -515);
  const std::vector<Vec2> triangle = {{s, s}, {2 * s, 2 * s}, {0.0, 2 * s}};
  const std::vector<Vec2> on_edge(8, Vec2{1.5 * s, 1.5 * s});
  const CornerView view = {Vec2{}, {s, 2 * s}, {s, 2 * s}, {s, 2 * s}, {s, 2 * s},
                           {s, 2 * s}, {2 * s, 2 * s}, {s, 2 * s}, {s, 2 * s}};
  for (const Kernels& row : geom::simd::kernel_table()) {
    std::vector<std::uint8_t> mask(on_edge.size(), 0xab);
    row.hull_cull_mask(on_edge.data(), on_edge.size(), triangle, mask.data());
    EXPECT_EQ(mask, std::vector<std::uint8_t>(on_edge.size(), 0))
        << geom::simd::to_string(row.level);
    // Cone from ray (s, s) to ray (0, s): robot 6 sits on the first ray.
    EXPECT_EQ(6u, row.cone_skip(view.data(), 1, view.size(), Vec2{}, Vec2{s, s},
                                Vec2{0.0, s}))
        << geom::simd::to_string(row.level);
  }
}

}  // namespace
}  // namespace lumen
