// Vec2 value-type tests: arithmetic identities, norms, interpolation,
// comparisons.
#include "geom/vec2.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/prng.hpp"

namespace lumen::geom {
namespace {

TEST(Vec2, ArithmeticBasics) {
  const Vec2 a{1, 2}, b{3, -4};
  EXPECT_EQ(a + b, (Vec2{4, -2}));
  EXPECT_EQ(a - b, (Vec2{-2, 6}));
  EXPECT_EQ(a * 2.0, (Vec2{2, 4}));
  EXPECT_EQ(2.0 * a, (Vec2{2, 4}));
  EXPECT_EQ(b / 2.0, (Vec2{1.5, -2}));
  EXPECT_EQ(-a, (Vec2{-1, -2}));
  Vec2 c = a;
  c += b;
  EXPECT_EQ(c, a + b);
  c -= b;
  EXPECT_EQ(c, a);
  c *= 3.0;
  EXPECT_EQ(c, (Vec2{3, 6}));
}

TEST(Vec2, DotCrossNorm) {
  const Vec2 a{3, 4};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_sq(a), 25.0);
  EXPECT_DOUBLE_EQ(cross({1, 0}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(cross({0, 1}, {1, 0}), -1.0);
  EXPECT_DOUBLE_EQ(cross(a, a), 0.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, a), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq({0, 0}, a), 25.0);
}

TEST(Vec2, NormalizedAndZero) {
  const Vec2 u = normalized({3, 4});
  EXPECT_NEAR(u.x, 0.6, 1e-15);
  EXPECT_NEAR(u.y, 0.8, 1e-15);
  EXPECT_EQ(normalized({0, 0}), (Vec2{0, 0}));
}

TEST(Vec2, PerpIsCcwQuarterTurn) {
  EXPECT_EQ(perp({1, 0}), (Vec2{0, 1}));
  EXPECT_EQ(perp({0, 1}), (Vec2{-1, 0}));
  util::Prng rng{3};
  for (int i = 0; i < 100; ++i) {
    const Vec2 v{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    EXPECT_DOUBLE_EQ(dot(v, perp(v)), 0.0);
    EXPECT_GE(cross(v, perp(v)), 0.0);  // CCW.
    EXPECT_DOUBLE_EQ(norm_sq(perp(v)), norm_sq(v));
  }
}

TEST(Vec2, Lerp) {
  const Vec2 a{0, 0}, b{10, 20};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  EXPECT_EQ(lerp(a, b, 0.5), (Vec2{5, 10}));
}

TEST(Vec2, LexicographicOrdering) {
  EXPECT_LT((Vec2{1, 5}), (Vec2{2, 0}));
  EXPECT_LT((Vec2{1, 1}), (Vec2{1, 2}));
  EXPECT_EQ((Vec2{1, 1}), (Vec2{1, 1}));
  EXPECT_NE((Vec2{1, 1}), (Vec2{1, 1.0000001}));
}

TEST(Vec2, StreamOutput) {
  std::ostringstream os;
  os << Vec2{1.5, -2};
  EXPECT_EQ(os.str(), "(1.5, -2)");
}

}  // namespace
}  // namespace lumen::geom
