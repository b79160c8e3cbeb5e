// Tests for wt/stats: Welford, histograms, confidence intervals,
// time-weighted statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "wt/sim/random.h"
#include "wt/stats/confidence.h"
#include "wt/stats/histogram.h"
#include "wt/stats/time_weighted.h"
#include "wt/stats/welford.h"

namespace wt {
namespace {

TEST(WelfordTest, MatchesDirectComputation) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats s;
  for (double x : xs) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32 -> 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(WelfordTest, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(WelfordTest, MergeEqualsSinglePass) {
  RngStream rng(99);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-5, 5);
    all.Add(v);
    (i < 400 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(WelfordTest, MergeWithEmpty) {
  RunningStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(b);  // no-op
  EXPECT_EQ(a.count(), 2);
  b.Merge(a);  // copies
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(LogHistogramTest, QuantilesTrackExact) {
  RngStream rng(7);
  LogHistogram hist(64);
  ExactQuantiles exact;
  for (int i = 0; i < 100000; ++i) {
    double v = std::exp(rng.Uniform(0.0, 8.0));  // log-uniform over [1, e^8]
    hist.Add(v);
    exact.Add(v);
  }
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    double approx = hist.Quantile(q);
    double truth = exact.Quantile(q);
    EXPECT_NEAR(approx / truth, 1.0, 0.03) << "q=" << q;
  }
  EXPECT_NEAR(hist.mean(), exact.Mean(), exact.Mean() * 0.01);
}

TEST(LogHistogramTest, EmptyAndSingle) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  h.Add(42.0);
  EXPECT_EQ(h.count(), 1);
  // Single value: every quantile is clamped to the observed range.
  EXPECT_DOUBLE_EQ(h.Quantile(0.01), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 42.0);
}

TEST(LogHistogramTest, ZeroAndNegativeClamp) {
  LogHistogram h;
  h.Add(0.0);
  h.Add(-5.0);  // clamped to 0
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.Quantile(0.9), 0.0);
}

TEST(LogHistogramTest, MergePreservesTotals) {
  LogHistogram a(32), b(32);
  RngStream rng(3);
  for (int i = 0; i < 1000; ++i) a.Add(rng.Uniform(1, 100));
  for (int i = 0; i < 500; ++i) b.Add(rng.Uniform(200, 300));
  double suma = a.sum();
  a.Merge(b);
  EXPECT_EQ(a.count(), 1500);
  EXPECT_NEAR(a.sum(), suma + b.sum(), 1e-6);
  EXPECT_GE(a.max_value(), 200.0);
}

TEST(LogHistogramTest, DiffSinceIsolatesNewValues) {
  LogHistogram h(32);
  RngStream rng(7);
  for (int i = 0; i < 400; ++i) h.Add(rng.Uniform(1, 50));
  const LogHistogram base = h;  // earlier copy, per the DiffSince contract
  ExactQuantiles fresh;
  for (int i = 0; i < 200; ++i) {
    const double v = rng.Uniform(1000, 2000);
    h.Add(v);
    fresh.Add(v);
  }

  const LogHistogram delta = h.DiffSince(base);
  EXPECT_EQ(delta.count(), 200);
  EXPECT_NEAR(delta.sum(), fresh.Mean() * 200, 1e-6);
  // Quantiles of the delta track the fresh values at bucket resolution,
  // untouched by the 400 earlier small values.
  EXPECT_NEAR(delta.Quantile(0.5), fresh.Quantile(0.5),
              fresh.Quantile(0.5) * 0.05);
  EXPECT_GE(delta.min_value(), 900.0);  // bucket-resolution approximation

  // Nothing new: an empty delta.
  const LogHistogram none = h.DiffSince(h);
  EXPECT_EQ(none.count(), 0);
  EXPECT_DOUBLE_EQ(none.Quantile(0.99), 0.0);
}

TEST(LogHistogramTest, ClearResets) {
  LogHistogram h;
  h.Add(5.0);
  h.Clear();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(ExactQuantilesTest, NearestRank) {
  ExactQuantiles q;
  for (int i = 1; i <= 100; ++i) q.Add(i);
  EXPECT_DOUBLE_EQ(q.Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(q.Quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(q.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(q.Quantile(0.0), 1.0);  // rank clamped to 1
}

TEST(ConfidenceTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829, 1e-5);
}

TEST(ConfidenceTest, NormalCdfInvertsQuantile) {
  for (double p : {0.01, 0.2, 0.5, 0.8, 0.99}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-7);
  }
}

TEST(ConfidenceTest, WilsonIntervalProperties) {
  // Symmetric data centers the interval near 0.5.
  Interval i = WilsonInterval(50, 100, 0.95);
  EXPECT_LT(i.lo, 0.5);
  EXPECT_GT(i.hi, 0.5);
  // More trials narrow it.
  Interval wide = WilsonInterval(5, 10, 0.95);
  Interval narrow = WilsonInterval(500, 1000, 0.95);
  EXPECT_LT(narrow.hi - narrow.lo, wide.hi - wide.lo);
  // Extremes stay inside [0, 1] and are non-degenerate.
  Interval zero = WilsonInterval(0, 20, 0.95);
  EXPECT_GE(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  Interval all = WilsonInterval(20, 20, 0.95);
  EXPECT_LE(all.hi, 1.0);
  EXPECT_LT(all.lo, 1.0);
}

TEST(ConfidenceTest, WilsonEndpointsAreExactAtZeroAndAllSuccesses) {
  // center -/+ half rounds near, not onto, 0 and 1 for many of these n;
  // the endpoints must be exact.
  for (double confidence : {0.9, 0.95, 0.99, 0.999}) {
    for (int64_t n = 1; n <= 2000; ++n) {
      ASSERT_EQ(WilsonInterval(0, n, confidence).lo, 0.0)
          << "0/" << n << " at " << confidence;
      ASSERT_EQ(WilsonInterval(n, n, confidence).hi, 1.0)
          << n << "/" << n << " at " << confidence;
    }
  }
}

TEST(ConfidenceTest, WilsonNoTrials) {
  Interval i = WilsonInterval(0, 0, 0.95);
  EXPECT_DOUBLE_EQ(i.lo, 0.0);
  EXPECT_DOUBLE_EQ(i.hi, 1.0);
}

TEST(ConfidenceTest, MeanIntervalUsesZ) {
  Interval i = MeanConfidenceInterval(10.0, 1.0, 0.95);
  EXPECT_NEAR(i.lo, 10.0 - 1.959964, 1e-4);
  EXPECT_NEAR(i.hi, 10.0 + 1.959964, 1e-4);
  EXPECT_TRUE(i.Contains(10.0));
  EXPECT_TRUE(i.EntirelyAbove(5.0));
  EXPECT_TRUE(i.EntirelyBelow(15.0));
}

TEST(ConfidenceTest, HoeffdingShrinksWithN) {
  double h10 = HoeffdingHalfWidth(10, 0.05);
  double h1000 = HoeffdingHalfWidth(1000, 0.05);
  EXPECT_GT(h10, h1000);
  EXPECT_NEAR(h1000, std::sqrt(std::log(40.0) / 2000.0), 1e-12);
}

TEST(TimeWeightedTest, PiecewiseConstantMean) {
  TimeWeightedStats s;
  s.Set(0.0, 1.0);   // value 1 over [0, 10)
  s.Set(10.0, 3.0);  // value 3 over [10, 20)
  EXPECT_DOUBLE_EQ(s.Mean(20.0), 2.0);
  EXPECT_DOUBLE_EQ(s.current(), 3.0);
}

TEST(TimeWeightedTest, EmptyAndInstant) {
  TimeWeightedStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.Mean(5.0), 0.0);
  s.Set(2.0, 4.0);
  EXPECT_DOUBLE_EQ(s.Mean(2.0), 4.0);  // zero-width window = current
}

TEST(TimeWeightedFractionTest, OnOffCycle) {
  TimeWeightedFraction f;
  f.Set(0.0, false);
  f.Set(10.0, true);
  f.Set(15.0, false);
  EXPECT_DOUBLE_EQ(f.Fraction(20.0), 0.25);  // 5 of 20
  f.Set(20.0, true);
  EXPECT_DOUBLE_EQ(f.Fraction(30.0), 0.5);  // 15 of 30
}

}  // namespace
}  // namespace wt
