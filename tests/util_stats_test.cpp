// Statistics tests: Welford accumulator vs direct formulas, percentile
// conventions, and the growth verdict that decides the headline
// O(log N)-vs-O(N) claims.
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
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

/// `per_n` samples at each N in `ns`, drawn as f(N) + sigma * normal.
template <typename F>
std::vector<std::vector<double>> sample_series(const std::vector<double>& ns,
                                               F f, double sigma,
                                               std::size_t per_n = 10) {
  Prng rng{4};
  std::vector<std::vector<double>> samples;
  for (const double n : ns) {
    auto& at_n = samples.emplace_back();
    for (std::size_t i = 0; i < per_n; ++i) {
      at_n.push_back(f(n) + sigma * rng.normal());
    }
  }
  return samples;
}

const std::vector<double> kDoublingNs = {8, 16, 32, 64, 128, 256, 512};

TEST(GrowthVerdict, NoisyLogSeriesReadsLogarithmic) {
  const auto samples = sample_series(
      kDoublingNs, [](double n) { return 5.0 * std::log2(n) + 2.0; }, 1.0);
  const auto v = growth_verdict(kDoublingNs, samples);
  EXPECT_EQ(v.growth, Growth::kLogarithmic);
  EXPECT_NEAR(v.ratio, 1.12, 0.05);
  EXPECT_LE(v.lo, v.ratio);
  EXPECT_GE(v.hi, v.ratio);
  EXPECT_LT(v.hi, kGrowthRatioThreshold);
  EXPECT_EQ(to_string(v.growth), "logarithmic");
}

TEST(GrowthVerdict, LinearSeriesReadsLinear) {
  const auto samples =
      sample_series(kDoublingNs, [](double n) { return 0.9 * n; }, 0.5);
  const auto v = growth_verdict(kDoublingNs, samples);
  EXPECT_EQ(v.growth, Growth::kLinear);
  EXPECT_NEAR(v.ratio, 2.0, 0.05);
  EXPECT_GT(v.lo, kGrowthRatioThreshold);
  EXPECT_EQ(to_string(v.growth), "linear");
}

TEST(GrowthVerdict, IntervalAcrossTheThresholdReadsUndecided) {
  // Means grow by exactly the threshold per doubling; seed noise puts the
  // interval on both sides of it.
  const auto samples = sample_series(
      kDoublingNs, [](double n) { return 10.0 * std::pow(1.5, std::log2(n)); },
      20.0);
  const auto v = growth_verdict(kDoublingNs, samples);
  EXPECT_EQ(v.growth, Growth::kUndecided);
  EXPECT_LT(v.lo, kGrowthRatioThreshold);
  EXPECT_GT(v.hi, kGrowthRatioThreshold);
  EXPECT_EQ(to_string(v.growth), "undecided");
}

TEST(GrowthVerdict, FewerThanThreeDoublingsReadUndecided) {
  // Three sizes are two doublings: even an exactly linear series is
  // undecided, as are the smoke sweeps' single doubling.
  for (const std::vector<double>& ns :
       {std::vector<double>{8, 16, 32}, std::vector<double>{8, 16}}) {
    const auto samples = sample_series(ns, [](double n) { return n; }, 0.0);
    const auto v = growth_verdict(ns, samples);
    EXPECT_EQ(v.growth, Growth::kUndecided) << ns.size();
    EXPECT_EQ(v.ratio, 0.0) << ns.size();
  }
}

TEST(GrowthVerdict, SizesThatDoNotDoubleReadUndecided) {
  const std::vector<double> ns = {10, 20, 30, 40, 50};
  const auto samples = sample_series(ns, [](double n) { return n; }, 0.1);
  EXPECT_EQ(growth_verdict(ns, samples).growth, Growth::kUndecided);
}

TEST(GrowthVerdict, SizeWithOneSampleReadsUndecided) {
  auto samples =
      sample_series(kDoublingNs, [](double n) { return 0.9 * n; }, 0.5);
  ASSERT_EQ(growth_verdict(kDoublingNs, samples).growth, Growth::kLinear);
  samples[5].resize(1);
  EXPECT_EQ(growth_verdict(kDoublingNs, samples).growth, Growth::kUndecided);
}

TEST(GrowthVerdict, BootstrapIntervalIsDeterministic) {
  const auto samples = sample_series(
      kDoublingNs, [](double n) { return 3.0 * std::log2(n); }, 2.0);
  const auto a = growth_verdict(kDoublingNs, samples);
  const auto b = growth_verdict(kDoublingNs, samples);
  EXPECT_LT(a.lo, a.hi);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.lo), std::bit_cast<std::uint64_t>(b.lo));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.hi), std::bit_cast<std::uint64_t>(b.hi));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ratio),
            std::bit_cast<std::uint64_t>(b.ratio));
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
