// lumen_geom: plain 2-D vectors/points in double precision.
//
// All robot positions, snapshot entries and motion targets are Vec2. The
// struct is a regular value type (aggregate, trivially copyable) so spans of
// positions can be handled like raw buffers. Decisions that must be exact
// (orientation, collinearity) never use these floating helpers directly —
// they go through geom/predicates.hpp.
#pragma once

#include <cmath>
#include <compare>
#include <iosfwd>

namespace lumen::geom {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) noexcept { return {a.x + b.x, a.y + b.y}; }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) noexcept { return {a.x - b.x, a.y - b.y}; }
  friend constexpr Vec2 operator*(Vec2 a, double s) noexcept { return {a.x * s, a.y * s}; }
  friend constexpr Vec2 operator*(double s, Vec2 a) noexcept { return {a.x * s, a.y * s}; }
  friend constexpr Vec2 operator/(Vec2 a, double s) noexcept { return {a.x / s, a.y / s}; }
  constexpr Vec2 operator-() const noexcept { return {-x, -y}; }
  constexpr Vec2& operator+=(Vec2 o) noexcept { x += o.x; y += o.y; return *this; }
  constexpr Vec2& operator-=(Vec2 o) noexcept { x -= o.x; y -= o.y; return *this; }
  constexpr Vec2& operator*=(double s) noexcept { x *= s; y *= s; return *this; }

  /// Exact componentwise comparison; lexicographic ordering (x, then y) —
  /// the canonical tie-break order used by hulls and sweeps.
  friend constexpr bool operator==(Vec2 a, Vec2 b) noexcept = default;
  friend constexpr auto operator<=>(Vec2 a, Vec2 b) noexcept = default;
};

[[nodiscard]] constexpr double dot(Vec2 a, Vec2 b) noexcept { return a.x * b.x + a.y * b.y; }

/// z-component of the 3-D cross product; positive when b is CCW from a.
[[nodiscard]] constexpr double cross(Vec2 a, Vec2 b) noexcept { return a.x * b.y - a.y * b.x; }

[[nodiscard]] inline double norm(Vec2 a) noexcept { return std::hypot(a.x, a.y); }
[[nodiscard]] constexpr double norm_sq(Vec2 a) noexcept { return dot(a, a); }
[[nodiscard]] inline double distance(Vec2 a, Vec2 b) noexcept { return norm(b - a); }
[[nodiscard]] constexpr double distance_sq(Vec2 a, Vec2 b) noexcept { return norm_sq(b - a); }

/// Unit vector in the direction of a; returns {0,0} for the zero vector.
[[nodiscard]] inline Vec2 normalized(Vec2 a) noexcept {
  const double n = norm(a);
  return n > 0.0 ? a / n : Vec2{};
}

/// CCW perpendicular (rotation by +90 degrees).
[[nodiscard]] constexpr Vec2 perp(Vec2 a) noexcept { return {-a.y, a.x}; }

/// Linear interpolation a + t*(b-a).
[[nodiscard]] constexpr Vec2 lerp(Vec2 a, Vec2 b, double t) noexcept {
  return {a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
}

std::ostream& operator<<(std::ostream& os, Vec2 v);

}  // namespace lumen::geom
