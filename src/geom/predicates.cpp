// Robust orientation predicate.
//
// Stage 1 (filter): certainly_ccw (predicates.hpp) on the translated
// coordinates, in both directions; a certified sign is returned as is.
// Stage 2 (exact): the determinant of the ORIGINAL coordinates,
//   ax*by - ax*cy + ay*cx - ay*bx + bx*cy - by*cx,
// evaluated as a floating-point expansion: each product is split exactly
// into (hi, lo) via fused multiply-add, and the twelve components are folded
// into a nonoverlapping expansion with grow-expansion steps. The sign of the
// largest (last nonzero) component is the exact sign of the real value.
#include "geom/predicates.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <ostream>

namespace lumen::geom {

std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << '(' << v.x << ", " << v.y << ')';
}

namespace {

/// Knuth two-sum: x + y == a + b exactly, x = fl(a+b), y is the roundoff.
inline void two_sum(double a, double b, double& x, double& y) noexcept {
  x = a + b;
  const double b_virtual = x - a;
  const double a_virtual = x - b_virtual;
  const double b_round = b - b_virtual;
  const double a_round = a - a_virtual;
  y = a_round + b_round;
}

/// Exact product via FMA: x + y == a * b exactly.
inline void two_product(double a, double b, double& x, double& y) noexcept {
  x = a * b;
  y = std::fma(a, b, -x);
}

/// Nonoverlapping expansion with components in increasing magnitude order.
/// Fixed capacity is enough for the 12-component orient2d determinant plus
/// carries (each grow step adds at most one component).
struct Expansion {
  std::array<double, 16> comp{};
  std::size_t size = 0;

  /// Shewchuk GROW-EXPANSION: adds scalar b, preserving the invariants.
  void grow(double b) noexcept {
    double q = b;
    std::size_t out = 0;
    for (std::size_t i = 0; i < size; ++i) {
      double sum = 0.0, err = 0.0;
      two_sum(q, comp[i], sum, err);
      if (err != 0.0) comp[out++] = err;
      q = sum;
    }
    // Always keep the head so a zero expansion still has a representative.
    comp[out++] = q;
    size = out;
  }

  /// Sign of the exact real value: the last component dominates.
  [[nodiscard]] int sign() const noexcept {
    for (std::size_t i = size; i > 0; --i) {
      const double c = comp[i - 1];
      if (c > 0.0) return 1;
      if (c < 0.0) return -1;
    }
    return 0;
  }

  /// Approximate value (sum smallest-first; correct sign, nearly full
  /// precision magnitude).
  [[nodiscard]] double approx() const noexcept {
    double s = 0.0;
    for (std::size_t i = 0; i < size; ++i) s += comp[i];
    return s;
  }
};

Expansion orient2d_expansion(Vec2 a, Vec2 b, Vec2 c) noexcept {
  // det = ax*by - ax*cy + ay*cx - ay*bx + bx*cy - by*cx
  const std::array<std::array<double, 2>, 6> terms = {{
      {a.x, b.y},  {a.x, -c.y}, {a.y, c.x},
      {a.y, -b.x}, {b.x, c.y},  {b.y, -c.x},
  }};
  Expansion e;
  for (const auto& [p, q] : terms) {
    double hi = 0.0, lo = 0.0;
    two_product(p, q, hi, lo);
    if (lo != 0.0) e.grow(lo);
    e.grow(hi);
  }
  return e;
}

}  // namespace

double orient2d_value(Vec2 a, Vec2 b, Vec2 c) noexcept {
  const Vec2 u = a - c;
  const Vec2 v = b - c;
  if (certainly_ccw(u, v) || certainly_ccw(v, u)) {
    const double dl = u.x * v.y;
    const double dr = u.y * v.x;
    return dl - dr;
  }
  return orient2d_expansion(a, b, c).approx();
}

bool on_segment_closed(Vec2 a, Vec2 b, Vec2 p) noexcept {
  if (orient2d(a, b, p) != 0) return false;
  const double min_x = std::fmin(a.x, b.x), max_x = std::fmax(a.x, b.x);
  const double min_y = std::fmin(a.y, b.y), max_y = std::fmax(a.y, b.y);
  return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
}

bool on_segment_open(Vec2 a, Vec2 b, Vec2 p) noexcept {
  if (p == a || p == b) return false;
  return on_segment_closed(a, b, p);
}

namespace detail {
int orient2d_exact_sign(Vec2 a, Vec2 b, Vec2 c) noexcept {
  return orient2d_expansion(a, b, c).sign();
}
}  // namespace detail

}  // namespace lumen::geom
