#include "wt/stats/confidence.h"

#include <algorithm>
#include <cmath>

#include "wt/common/macros.h"

namespace wt {

double NormalQuantile(double p) {
  WT_CHECK(p > 0.0 && p < 1.0) << "NormalQuantile requires p in (0,1)";
  // Peter Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > phigh) {
    q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

Interval MeanConfidenceInterval(double mean, double stderr_mean,
                                double confidence) {
  double z = NormalQuantile(0.5 + confidence / 2.0);
  return {mean - z * stderr_mean, mean + z * stderr_mean};
}

Interval WilsonInterval(int64_t successes, int64_t n, double confidence) {
  if (n <= 0) return {0.0, 1.0};
  double z = NormalQuantile(0.5 + confidence / 2.0);
  double nn = static_cast<double>(n);
  double phat = static_cast<double>(successes) / nn;
  double z2 = z * z;
  double denom = 1.0 + z2 / nn;
  double center = (phat + z2 / (2 * nn)) / denom;
  double half =
      z * std::sqrt(phat * (1 - phat) / nn + z2 / (4 * nn * nn)) / denom;
  // At 0 or n successes one endpoint is exactly 0 or 1, but center - half
  // and center + half round to within ~1e-16 of it. Return it exactly, so
  // all failures never lie EntirelyAbove(0) nor all successes
  // EntirelyBelow(1).
  const double lo = successes == 0 ? 0.0 : std::max(0.0, center - half);
  const double hi = successes == n ? 1.0 : std::min(1.0, center + half);
  return {lo, hi};
}

double HoeffdingHalfWidth(int64_t n, double delta) {
  WT_CHECK(n > 0 && delta > 0.0 && delta < 1.0);
  return std::sqrt(std::log(2.0 / delta) / (2.0 * static_cast<double>(n)));
}

}  // namespace wt
