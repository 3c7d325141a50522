// lumen_util: descriptive statistics and the growth verdict.
//
// The benchmark harness reduces each campaign (many runs of a simulation) to
// summary rows: central tendency, spread, percentiles, and — for the headline
// claim — a bootstrapped per-doubling ratio that decides whether
// epochs-to-convergence grow logarithmically or linearly in N, or whether
// the data cannot tell.
#pragma once

#include "util/strings.hpp"

#include <cstddef>
#include <span>
#include <string_view>
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

/// How a series of per-N samples grows as N doubles.
enum class Growth { kLogarithmic, kLinear, kUndecided };

inline constexpr auto kGrowthNames = std::to_array<Named<Growth>>({
    {Growth::kLogarithmic, "logarithmic"},
    {Growth::kLinear, "linear"},
    {Growth::kUndecided, "undecided"},
});

[[nodiscard]] constexpr std::string_view to_string(Growth g) noexcept {
  return name_of(kGrowthNames, g);
}

/// The one growth verdict behind E1's scaling claims.
struct GrowthVerdict {
  /// Mean per-doubling ratio of per-N means over the last three doublings:
  /// logarithmic growth adds a constant per doubling (ratio -> 1), linear
  /// growth doubles (ratio -> 2). 0 when the series cannot support it.
  double ratio = 0.0;
  double lo = 0.0;  ///< 95% percentile-bootstrap interval for `ratio`,
  double hi = 0.0;  ///< resampling each N's samples independently.
  Growth growth = Growth::kUndecided;
};

/// Ratios below this read logarithmic, above it linear.
inline constexpr double kGrowthRatioThreshold = 1.5;

/// Decides how `samples[i]` (the samples at size `ns[i]`, e.g. each seed's
/// converged epoch count) grow over the last three doublings of `ns`. Reads
/// kLogarithmic when the whole interval lies below kGrowthRatioThreshold,
/// kLinear when it lies above, kUndecided otherwise — and also when the
/// last four sizes do not double, or any of them has fewer than two samples
/// or a non-positive one. Deterministic: the bootstrap draws from a
/// fixed-seed Prng.
[[nodiscard]] GrowthVerdict growth_verdict(
    std::span<const double> ns, std::span<const std::vector<double>> samples);

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
