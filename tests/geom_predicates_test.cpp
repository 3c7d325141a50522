// Robust-predicate tests: the exact orientation sign is the foundation of
// hulls, visibility, and collision classification — these tests include the
// adversarially near-degenerate inputs the floating filter must hand off to
// the exact expansion path.
#include "geom/predicates.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <tuple>

#include "util/prng.hpp"

namespace lumen::geom {
namespace {

TEST(Orient2d, BasicLeftRightCollinear) {
  const Vec2 a{0, 0}, b{1, 0};
  EXPECT_EQ(orient2d(a, b, {0.5, 1.0}), 1);
  EXPECT_EQ(orient2d(a, b, {0.5, -1.0}), -1);
  EXPECT_EQ(orient2d(a, b, {2.0, 0.0}), 0);
  EXPECT_EQ(orient2d(a, b, {-3.0, 0.0}), 0);
  EXPECT_EQ(orient2d(a, b, a), 0);
  EXPECT_EQ(orient2d(a, b, b), 0);
}

TEST(Orient2d, AntisymmetricUnderSwap) {
  util::Prng rng{42};
  for (int i = 0; i < 1000; ++i) {
    const Vec2 a{rng.uniform(-10, 10), rng.uniform(-10, 10)};
    const Vec2 b{rng.uniform(-10, 10), rng.uniform(-10, 10)};
    const Vec2 c{rng.uniform(-10, 10), rng.uniform(-10, 10)};
    EXPECT_EQ(orient2d(a, b, c), -orient2d(b, a, c));
    EXPECT_EQ(orient2d(a, b, c), orient2d(b, c, a));
    EXPECT_EQ(orient2d(a, b, c), orient2d(c, a, b));
  }
}

TEST(Orient2d, ExactZeroOnConstructedCollinearTriples) {
  // Points constructed as exact multiples of one direction vector: the real
  // determinant is zero whenever the floating representations are collinear,
  // which holds for power-of-two multipliers.
  const Vec2 d{0.1234567890123, -0.9876543210987};
  const Vec2 a = d * 1.0;
  const Vec2 b = d * 2.0;
  const Vec2 c = d * 4.0;
  EXPECT_EQ(orient2d(a, b, c), 0);
  EXPECT_EQ(orient2d(b, c, a), 0);
}

TEST(Orient2d, NearDegenerateSignMatchesExact) {
  // Classic filter-killer: points nearly on a line, offsets at the last ulp.
  const Vec2 a{0.5, 0.5};
  const Vec2 b{12.0, 12.0};
  for (int k = -10; k <= 10; ++k) {
    const double eps = static_cast<double>(k) * 0x1.0p-52;
    const Vec2 c{24.0, 24.0 + eps};
    const int fast_exact = detail::orient2d_exact_sign(a, b, c);
    EXPECT_EQ(orient2d(a, b, c), fast_exact) << "k=" << k;
    // Analytic expectation on the STORED coordinate (the addition may round
    // back to 24 for sub-half-ulp offsets): the line is y = x, so the sign
    // is that of c.y - c.x.
    const int expected = c.y > c.x ? 1 : (c.y < c.x ? -1 : 0);
    EXPECT_EQ(fast_exact, expected) << "k=" << k;
  }
}

TEST(Orient2d, FilterAndExactAgreeOnRandomInputs) {
  util::Prng rng{7};
  for (int i = 0; i < 20000; ++i) {
    const Vec2 a{rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)};
    const Vec2 b{rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)};
    const Vec2 c{rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)};
    EXPECT_EQ(orient2d(a, b, c), detail::orient2d_exact_sign(a, b, c));
  }
}

TEST(Orient2d, TranslatedGridDegeneracies) {
  // Lattice triples at a large offset: differences are exact, products are
  // not — the filter must still classify collinear runs as zero.
  const double base = 1e7;
  for (int i = 0; i < 50; ++i) {
    const Vec2 a{base + i, base + 2 * i};
    const Vec2 b{base + i + 1, base + 2 * (i + 1)};  // Not collinear with a's line...
    const Vec2 c{base + i + 2, base + 2 * (i + 2)};
    // a,b,c all on the line y = 2x - base exactly? y-coords: base+2i vs
    // 2*(base+i) - base = base + 2i. Yes: exactly collinear.
    EXPECT_EQ(orient2d(a, b, c), 0) << i;
  }
}

TEST(Orient2d, CollinearSubnormalTripleReadsZeroInEveryPermutation) {
  // In every order the two stage-A products are equal subnormals, so
  // det = 0 and the error bound underflows to zero: a non-strict filter
  // (det >= bound) would certify det = 0 as a sign. Every entry point must
  // defer to the exact stage.
  const Vec2 p{std::ldexp(1.0, -515), std::ldexp(1.0, -515)};
  const Vec2 q{std::ldexp(1.0, -514), std::ldexp(1.0, -514)};
  const Vec2 r{std::ldexp(1.5, -515), std::ldexp(1.5, -515)};
  const std::array<std::array<Vec2, 3>, 6> perms = {{
      {p, q, r}, {p, r, q}, {q, p, r}, {q, r, p}, {r, p, q}, {r, q, p},
  }};
  for (const auto& [a, b, c] : perms) {
    const int exact = detail::orient2d_exact_sign(a, b, c);
    EXPECT_EQ(exact, 0);
    EXPECT_EQ(orient2d(a, b, c), exact);
    EXPECT_EQ(orient2d_around(a - c, b - c, a, b, c), exact);
  }
}

TEST(OnSegment, OpenVsClosedEndpoints) {
  const Vec2 a{0, 0}, b{10, 0};
  EXPECT_TRUE(on_segment_closed(a, b, a));
  EXPECT_TRUE(on_segment_closed(a, b, b));
  EXPECT_FALSE(on_segment_open(a, b, a));
  EXPECT_FALSE(on_segment_open(a, b, b));
  EXPECT_TRUE(on_segment_open(a, b, {5, 0}));
  EXPECT_FALSE(on_segment_open(a, b, {5, 1e-300}));
  EXPECT_FALSE(on_segment_open(a, b, {10.0000001, 0}));
  EXPECT_FALSE(on_segment_open(a, b, {-0.0000001, 0}));
}

TEST(OnSegment, VerticalAndDiagonal) {
  EXPECT_TRUE(on_segment_open({0, 0}, {0, 8}, {0, 3}));
  EXPECT_FALSE(on_segment_open({0, 0}, {0, 8}, {0, 9}));
  EXPECT_TRUE(on_segment_open({1, 1}, {5, 5}, {3, 3}));
  EXPECT_FALSE(on_segment_open({1, 1}, {5, 5}, {3, 3.0000001}));
}

TEST(Orient2dValue, SignConsistentWithPredicate) {
  util::Prng rng{99};
  for (int i = 0; i < 5000; ++i) {
    const Vec2 a{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const Vec2 b{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const Vec2 c{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const double v = orient2d_value(a, b, c);
    const int s = orient2d(a, b, c);
    if (s > 0) {
      EXPECT_GT(v, 0.0);
    } else if (s < 0) {
      EXPECT_LT(v, 0.0);
    } else {
      EXPECT_EQ(v, 0.0);
    }
  }
}

// Parameterized sweep over coordinate magnitudes: the predicate must stay
// exact from subnormal-adjacent scales to 1e12.
class OrientScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(OrientScaleTest, CollinearStaysZeroUnderScaling) {
  const double s = GetParam();
  const Vec2 a{1.0 * s, 2.0 * s};
  const Vec2 b{2.0 * s, 4.0 * s};
  const Vec2 c{3.0 * s, 6.0 * s};
  EXPECT_EQ(orient2d(a, b, c), 0);
  const Vec2 c_up{3.0 * s, std::nextafter(6.0 * s, 1e300)};
  EXPECT_EQ(orient2d(a, b, c_up), 1);
  const Vec2 c_dn{3.0 * s, std::nextafter(6.0 * s, -1e300)};
  EXPECT_EQ(orient2d(a, b, c_dn), -1);
}

INSTANTIATE_TEST_SUITE_P(Scales, OrientScaleTest,
                         ::testing::Values(1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12));

}  // namespace
}  // namespace lumen::geom
