#include "util/stats.hpp"

#include "util/prng.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

namespace lumen::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double clamped = std::clamp(q, 0.0, 100.0);
  const double pos = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

GrowthVerdict growth_verdict(std::span<const double> ns,
                             std::span<const std::vector<double>> samples) {
  constexpr std::size_t kDoublings = 3;
  constexpr std::size_t kBootstrapResamples = 2000;
  constexpr std::uint64_t kBootstrapSeed = 0x6c756d656eULL;
  GrowthVerdict v;
  if (ns.size() != samples.size() || ns.size() < kDoublings + 1) return v;
  const std::size_t first = ns.size() - (kDoublings + 1);
  const auto tail = samples.subspan(first);
  std::array<double, kDoublings + 1> means{};
  const auto doubling_ratio = [&means] {
    double sum = 0.0;
    for (std::size_t k = 1; k < means.size(); ++k) sum += means[k] / means[k - 1];
    return sum / static_cast<double>(kDoublings);
  };
  for (std::size_t k = 0; k < tail.size(); ++k) {
    const bool doubled = k == 0 || ns[first + k] == 2.0 * ns[first + k - 1];
    if (!doubled || tail[k].size() < 2 || std::ranges::min(tail[k]) <= 0.0) {
      return v;
    }
    means[k] = summarize(tail[k]).mean;
  }
  v.ratio = doubling_ratio();

  Prng rng(kBootstrapSeed);
  std::vector<double> ratios(kBootstrapResamples);
  for (double& ratio : ratios) {
    for (std::size_t k = 0; k < tail.size(); ++k) {
      double sum = 0.0;
      for (std::size_t j = 0; j < tail[k].size(); ++j) {
        sum += tail[k][rng.next_below(tail[k].size())];
      }
      means[k] = sum / static_cast<double>(tail[k].size());
    }
    ratio = doubling_ratio();
  }
  v.lo = percentile(ratios, 2.5);
  v.hi = percentile(ratios, 97.5);
  if (v.hi < kGrowthRatioThreshold) {
    v.growth = Growth::kLogarithmic;
  } else if (v.lo > kGrowthRatioThreshold) {
    v.growth = Growth::kLinear;
  }
  return v;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  RunningStats rs;
  for (const double x : xs) rs.add(x);
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = rs.min();
  s.max = rs.max();
  s.p50 = percentile(xs, 50.0);
  s.p95 = percentile(xs, 95.0);
  return s;
}

}  // namespace lumen::util
