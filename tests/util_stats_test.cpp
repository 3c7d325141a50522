// Statistics tests: Welford accumulator vs direct formulas, percentile
// conventions, least-squares fits, and the growth-model classifier that
// decides the headline O(log N)-vs-O(N) verdict.
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/prng.hpp"

namespace lumen::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesDirectFormulas) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats s;
  for (const double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Percentile, LinearInterpolation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 1.75);
}

TEST(Percentile, UnsortedInputAndEdgeCases) {
  const std::vector<double> xs = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 99.0), 7.0);
  // Out-of-range q is clamped.
  EXPECT_DOUBLE_EQ(percentile(xs, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 150.0), 9.0);
}

TEST(LinearFit, ExactLine) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(3.0 * x - 2.0);
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, -2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.rmse, 0.0, 1e-9);
}

TEST(LinearFit, DegenerateInputs) {
  EXPECT_EQ(fit_linear(std::vector<double>{1.0}, std::vector<double>{2.0}).r_squared, 0.0);
  // Constant x cannot be fit.
  const std::vector<double> xs = {2, 2, 2};
  const std::vector<double> ys = {1, 2, 3};
  const auto fit = fit_linear(xs, ys);
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_EQ(fit.r_squared, 0.0);
}

TEST(LinearFit, NoisyLineHighR2) {
  Prng rng{8};
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = static_cast<double>(i);
    xs.push_back(x);
    ys.push_back(0.5 * x + 10.0 + rng.normal());
  }
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 0.5, 0.01);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(ClassifyGrowth, DetectsLogarithmic) {
  std::vector<double> ns, ts;
  Prng rng{4};
  for (double n = 8; n <= 4096; n *= 2) {
    ns.push_back(n);
    ts.push_back(5.0 * std::log2(n) + 2.0 + 0.2 * rng.normal());
  }
  const auto v = classify_growth(ns, ts);
  EXPECT_EQ(v.winner, GrowthModel::kLogarithmic);
  EXPECT_GT(v.log_fit.r_squared, 0.99);
  EXPECT_EQ(to_string(v.winner), "O(log N)");
}

TEST(ClassifyGrowth, DetectsLinear) {
  std::vector<double> ns, ts;
  Prng rng{4};
  for (double n = 8; n <= 4096; n *= 2) {
    ns.push_back(n);
    ts.push_back(0.9 * n + 3.0 + 0.5 * rng.normal());
  }
  const auto v = classify_growth(ns, ts);
  EXPECT_EQ(v.winner, GrowthModel::kLinear);
  EXPECT_GT(v.lin_fit.r_squared, 0.999);
  EXPECT_EQ(to_string(v.winner), "O(N)");
}

TEST(ClassifyGrowth, ConstantSeriesIsTie) {
  const std::vector<double> ns = {8, 16, 32, 64};
  const std::vector<double> ts = {5, 5, 5, 5};
  const auto v = classify_growth(ns, ts);
  EXPECT_EQ(v.winner, GrowthModel::kTie);
}

TEST(Summarize, FullSummary) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto s = summarize(xs);
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.mean, 5.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.p50, 5.5);
  EXPECT_NEAR(s.p95, 9.55, 1e-12);
  const auto empty = summarize(std::vector<double>{});
  EXPECT_EQ(empty.count, 0u);
}

}  // namespace
}  // namespace lumen::util
