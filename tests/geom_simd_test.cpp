// Bit-identity pinning for the dispatched SIMD batch kernels.
//
// The contract in geom/simd.hpp is that every vector level reproduces the
// scalar reference BYTE FOR BYTE: same AngularKey images, same presort
// records, same cull mask, same sorted record order. These tests walk
// geom::simd::kernel_table() — every level compiled in and runnable on this
// CPU, scalar first — and memcmp each row's output against the scalar row
// across adversarial input families — uniform random, collinear-heavy (exercises
// the dy == 0 half-plane tie-break), coincident-heavy (skipped lanes), and
// a small integer lattice (exactly representable coordinates, maximal key
// ties) — at sizes chosen to hit every vector-width remainder path.
#include "geom/simd.hpp"
#include "geom/visibility.hpp"
#include "split_points.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
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

TEST(GeomSimd, EveryLevelCullsBitIdentically) {
  const auto table = geom::simd::kernel_table();
  for (const InputFamily& family : kFamilies) {
    for (std::size_t n : kSizes) {
      if (n < 4) continue;
      const auto pts = family.make(n, 31u * n + 5u);
      // The Akl–Toussaint extreme quad, exactly as hull.cpp assembles it.
      std::size_t iw = 0, is = 0, ie = 0, in = 0;
      for (std::size_t j = 1; j < n; ++j) {
        if (pts[j].x < pts[iw].x) iw = j;
        if (pts[j].y < pts[is].y) is = j;
        if (pts[j].x > pts[ie].x) ie = j;
        if (pts[j].y > pts[in].y) in = j;
      }
      const Vec2 quad[4] = {pts[iw], pts[is], pts[ie], pts[in]};
      std::vector<std::uint8_t> ref(n, 0xcd);
      table.front().hull_cull_mask(pts.data(), n, quad, ref.data());
      for (const Kernels& row : table.subspan(1)) {
        std::vector<std::uint8_t> got(n, 0xab);
        row.hull_cull_mask(pts.data(), n, quad, got.data());
        EXPECT_EQ(ref, got)
            << family.name << " n=" << n
            << " level=" << geom::simd::to_string(row.level);
      }
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

}  // namespace
}  // namespace lumen
