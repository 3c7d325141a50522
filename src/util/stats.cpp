#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

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

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  LinearFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return fit;
  double sx = 0.0, sy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = ys[i] - (fit.intercept + fit.slope * xs[i]);
    ss_res += r * r;
  }
  fit.rmse = std::sqrt(ss_res / static_cast<double>(n));
  fit.r_squared = (syy > 0.0) ? std::max(0.0, 1.0 - ss_res / syy) : 1.0;
  return fit;
}

ScalingVerdict classify_growth(std::span<const double> ns,
                               std::span<const double> times,
                               double tie_margin) {
  ScalingVerdict v;
  std::vector<double> logs;
  logs.reserve(ns.size());
  for (const double n : ns) logs.push_back(std::log2(std::max(n, 1.0)));
  v.log_fit = fit_linear(logs, times);
  v.lin_fit = fit_linear(ns, times);
  v.margin = v.log_fit.r_squared - v.lin_fit.r_squared;
  if (v.margin > tie_margin) {
    v.winner = GrowthModel::kLogarithmic;
  } else if (v.margin < -tie_margin) {
    v.winner = GrowthModel::kLinear;
  } else {
    v.winner = GrowthModel::kTie;
  }
  return v;
}

std::string to_string(GrowthModel m) {
  switch (m) {
    case GrowthModel::kLogarithmic:
      return "O(log N)";
    case GrowthModel::kLinear:
      return "O(N)";
    case GrowthModel::kTie:
      return "tie";
  }
  return "?";
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
