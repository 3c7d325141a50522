// lumen_util: descriptive statistics and scaling-law fits.
//
// The benchmark harness reduces each campaign (many runs of a simulation) to
// summary rows: central tendency, spread, percentiles, and — for the headline
// claim — a model-selection fit that decides whether epochs-to-convergence
// grow like a + b*log2(N) or like a + b*N.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace lumen::util {

/// Welford online accumulator: numerically stable mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile of a sample using linear interpolation between order statistics
/// (the "exclusive" convention, matching numpy's default). q in [0, 100].
/// The input need not be sorted; a copy is sorted internally.
[[nodiscard]] double percentile(std::span<const double> xs, double q);

/// Ordinary least squares fit of y = intercept + slope * x.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  ///< Coefficient of determination in [0, 1].
  double rmse = 0.0;       ///< Root-mean-square residual.
};

/// Fits y ~ a + b*x by least squares. Requires xs.size() == ys.size() >= 2
/// and non-constant xs; otherwise returns a zero fit with r_squared = 0.
[[nodiscard]] LinearFit fit_linear(std::span<const double> xs,
                                   std::span<const double> ys);

/// Which growth model explains a (N, time) series better.
enum class GrowthModel { kLogarithmic, kLinear, kTie };

/// Result of comparing time ~ a + b*log2(N) against time ~ a + b*N.
struct ScalingVerdict {
  LinearFit log_fit;    ///< Fit against log2(N).
  LinearFit lin_fit;    ///< Fit against N.
  GrowthModel winner = GrowthModel::kTie;
  /// log_fit.r_squared - lin_fit.r_squared; positive favors logarithmic.
  double margin = 0.0;
};

/// Fits both growth models to (n, time) pairs and picks the winner by R²
/// (ties within `tie_margin` are reported as kTie).
[[nodiscard]] ScalingVerdict classify_growth(std::span<const double> ns,
                                             std::span<const double> times,
                                             double tie_margin = 0.01);

/// Human-readable name for a growth model ("O(log N)", "O(N)", "tie").
[[nodiscard]] std::string to_string(GrowthModel m);

/// Summary of a vector of samples, convenient for table rows.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

[[nodiscard]] Summary summarize(std::span<const double> xs);

}  // namespace lumen::util
