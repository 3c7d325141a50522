#include "gen/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace lumen::gen {

using geom::Vec2;

namespace {

constexpr double kWorldRadius = 100.0;

/// Rejection-samples candidates keeping min separation; the callable
/// produces raw candidates.
template <typename Sampler>
std::vector<Vec2> sample_separated(std::size_t n, double min_sep, Sampler&& sampler) {
  std::vector<Vec2> pts;
  pts.reserve(n);
  const double min_sep_sq = min_sep * min_sep;
  std::size_t attempts = 0;
  const std::size_t max_attempts = 1000 * (n + 10);
  while (pts.size() < n) {
    if (++attempts > max_attempts) {
      throw std::invalid_argument(
          "gen::generate: cannot fit requested robots at this separation");
    }
    const Vec2 c = sampler();
    bool ok = true;
    for (const Vec2 p : pts) {
      if (geom::distance_sq(p, c) < min_sep_sq) {
        ok = false;
        break;
      }
    }
    if (ok) pts.push_back(c);
  }
  return pts;
}

Vec2 in_disk(util::Prng& rng, double radius) {
  // Uniform over the disk via sqrt radial transform.
  const double r = radius * std::sqrt(rng.next_double());
  const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
  return {r * std::cos(a), r * std::sin(a)};
}

std::vector<Vec2> uniform_disk(std::size_t n, util::Prng& rng, double min_sep) {
  return sample_separated(n, min_sep, [&] { return in_disk(rng, kWorldRadius); });
}

std::vector<Vec2> uniform_square(std::size_t n, util::Prng& rng, double min_sep) {
  return sample_separated(n, min_sep, [&] {
    return Vec2{rng.uniform(-kWorldRadius, kWorldRadius),
                rng.uniform(-kWorldRadius, kWorldRadius)};
  });
}

std::vector<Vec2> gaussian_blob(std::size_t n, util::Prng& rng, double min_sep) {
  const double sigma = kWorldRadius / 3.0;
  return sample_separated(n, min_sep, [&] {
    return Vec2{sigma * rng.normal(), sigma * rng.normal()};
  });
}

std::vector<Vec2> multi_cluster(std::size_t n, util::Prng& rng, double min_sep) {
  const std::size_t k = 2 + static_cast<std::size_t>(rng.next_below(4));
  std::vector<Vec2> centers;
  centers.reserve(k);
  for (std::size_t i = 0; i < k; ++i) centers.push_back(in_disk(rng, kWorldRadius));
  const double sigma = kWorldRadius / 12.0;
  return sample_separated(n, min_sep, [&] {
    const Vec2 c = centers[rng.next_below(k)];
    return c + Vec2{sigma * rng.normal(), sigma * rng.normal()};
  });
}

std::vector<Vec2> ring_with_core(std::size_t n, util::Prng& rng, double min_sep) {
  // ~60% on a jittered circle, the rest in a small core cluster: a large
  // corner-rich hull with deep interior robots — the doubling showcase.
  return sample_separated(n, min_sep, [&] {
    if (rng.bernoulli(0.6)) {
      const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
      const double r = kWorldRadius * rng.uniform(0.95, 1.0);
      return Vec2{r * std::cos(a), r * std::sin(a)};
    }
    return in_disk(rng, kWorldRadius / 8.0);
  });
}

std::vector<Vec2> grid(std::size_t n, util::Prng& rng, double min_sep) {
  const auto side = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  const double step = 2.0 * kWorldRadius / static_cast<double>(side);
  const double jitter = std::min(0.2 * step, step - min_sep > 0 ? 0.2 * step : 0.0);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t row = 0; row < side && pts.size() < n; ++row) {
    for (std::size_t col = 0; col < side && pts.size() < n; ++col) {
      const Vec2 base{-kWorldRadius + (static_cast<double>(col) + 0.5) * step,
                      -kWorldRadius + (static_cast<double>(row) + 0.5) * step};
      pts.push_back(base + Vec2{rng.uniform(-jitter, jitter),
                                rng.uniform(-jitter, jitter)});
    }
  }
  return pts;
}

std::vector<Vec2> collinear(std::size_t n, util::Prng& rng, double min_sep) {
  // EXACTLY collinear: robots on a coordinate axis (one coordinate is the
  // literal 0.0, so orient2d sees true zeros). An arbitrary rotated line
  // would destroy exactness through per-coordinate rounding; axis alignment
  // loses no generality because every robot observes the world through its
  // own random similarity frame anyway. The axis and direction vary with
  // the seed; a random offset shifts the line away from the origin.
  const bool vertical = rng.bernoulli(0.5);
  const double offset = rng.uniform(-kWorldRadius / 2, kWorldRadius / 2);
  std::vector<Vec2> pts;
  pts.reserve(n);
  double t = rng.uniform(-kWorldRadius, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(vertical ? Vec2{offset, t} : Vec2{t, offset});
    t += std::max(min_sep * 2.0, rng.uniform(1.0, 4.0));
  }
  return pts;
}

std::vector<Vec2> near_collinear(std::size_t n, util::Prng& rng, double min_sep) {
  const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const Vec2 d{std::cos(angle), std::sin(angle)};
  const Vec2 normal = geom::perp(d);
  std::vector<Vec2> pts;
  pts.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(d * t + normal * rng.uniform(-0.01, 0.01));
    t += std::max(min_sep * 2.0, rng.uniform(1.0, 4.0));
  }
  return pts;
}

std::vector<Vec2> dense_diameter(std::size_t n, util::Prng& rng, double min_sep) {
  // Two far anchors and a dense sausage of robots along the segment between
  // them: long obstruction chains, small initial hull corner count.
  std::vector<Vec2> pts;
  pts.push_back({-kWorldRadius, 0.0});
  pts.push_back({kWorldRadius, 0.0});
  if (n <= 2) {
    pts.resize(n);
    return pts;
  }
  const auto rest = sample_separated(n - 2, min_sep, [&] {
    const double x = rng.uniform(-0.9 * kWorldRadius, 0.9 * kWorldRadius);
    const double y = rng.uniform(-2.0, 2.0);
    return Vec2{x, y};
  });
  pts.insert(pts.end(), rest.begin(), rest.end());
  return pts;
}

std::vector<Vec2> lattice(std::size_t n, util::Prng& rng, double min_sep) {
  // Distinct integer lattice points, uniform over the world square. Lattice
  // points are >= 1 apart, so any min_sep <= 1 reduces the separation test
  // to plain distinctness; larger separations still hold by rejection.
  const auto side = static_cast<std::uint64_t>(2.0 * kWorldRadius) + 1;
  if (n > side * side) {
    throw std::invalid_argument(
        "gen::generate: lattice family cannot host this many robots");
  }
  return sample_separated(n, std::max(min_sep, 0.5), [&] {
    return Vec2{static_cast<double>(rng.next_below(side)) - kWorldRadius,
                static_cast<double>(rng.next_below(side)) - kWorldRadius};
  });
}

}  // namespace

std::vector<Vec2> generate(ConfigFamily family, std::size_t n, std::uint64_t seed,
                           double min_separation) {
  const auto family_tag = static_cast<std::uint64_t>(static_cast<unsigned>(family));
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  util::Prng rng{seed ^ (std::uint64_t{0xabcd} + family_tag * kGolden)};
  switch (family) {
    case ConfigFamily::kUniformDisk: return uniform_disk(n, rng, min_separation);
    case ConfigFamily::kUniformSquare: return uniform_square(n, rng, min_separation);
    case ConfigFamily::kGaussianBlob: return gaussian_blob(n, rng, min_separation);
    case ConfigFamily::kMultiCluster: return multi_cluster(n, rng, min_separation);
    case ConfigFamily::kRingWithCore: return ring_with_core(n, rng, min_separation);
    case ConfigFamily::kGrid: return grid(n, rng, min_separation);
    case ConfigFamily::kCollinear: return collinear(n, rng, min_separation);
    case ConfigFamily::kNearCollinear: return near_collinear(n, rng, min_separation);
    case ConfigFamily::kDenseDiameter: return dense_diameter(n, rng, min_separation);
    case ConfigFamily::kLattice: return lattice(n, rng, min_separation);
  }
  throw std::invalid_argument("gen::generate: unknown family");
}

}  // namespace lumen::gen
