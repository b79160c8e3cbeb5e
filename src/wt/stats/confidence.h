// Confidence intervals and concentration bounds used by the early-abort
// monitor (DESIGN.md, "Early abort") and by result reporting.

#ifndef WT_STATS_CONFIDENCE_H_
#define WT_STATS_CONFIDENCE_H_

#include <cstdint>

namespace wt {

/// A two-sided interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  bool Contains(double x) const { return lo <= x && x <= hi; }
  bool EntirelyAbove(double x) const { return lo > x; }
  bool EntirelyBelow(double x) const { return hi < x; }
};

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over (0,1)).
double NormalQuantile(double p);

/// Standard-normal CDF.
double NormalCdf(double x);

/// Normal-approximation CI for a mean given sample mean / stderr.
Interval MeanConfidenceInterval(double mean, double stderr_mean,
                                double confidence = 0.95);

/// Wilson score interval for a binomial proportion: `successes` out of `n`
/// trials at the given confidence. Well-behaved for p near 0/1 — exactly the
/// regime of availability probabilities. The lower end is exactly 0 at 0
/// successes and the upper end exactly 1 at n successes.
Interval WilsonInterval(int64_t successes, int64_t n,
                        double confidence = 0.95);

/// Hoeffding two-sided half-width for the mean of `n` samples bounded in
/// [0,1] at confidence `1 - delta`.
double HoeffdingHalfWidth(int64_t n, double delta);

}  // namespace wt

#endif  // WT_STATS_CONFIDENCE_H_
