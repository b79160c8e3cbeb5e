// Tests the Figure 1 Monte-Carlo estimator against the exact closed forms —
// the paper's own validation methodology (§4.3): "simple simulation models
// can be validated using analytical models".

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "wt/analytics/combinatorics.h"
#include "wt/core/wind_tunnel.h"
#include "wt/query/builtin_sims.h"
#include "wt/query/executor.h"
#include "wt/scenario/scenario.h"
#include "wt/soft/availability_static.h"
#include "wt/stats/confidence.h"

namespace wt {
namespace {

StaticAvailabilityConfig FastConfig(int nodes) {
  StaticAvailabilityConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_users = 2000;  // plenty to saturate all windows
  cfg.placement_samples = 10;
  cfg.trials_per_placement = 100;
  cfg.seed = 42;
  return cfg;
}

TEST(StaticAvailabilityTest, ZeroFailuresIsAlwaysAvailable) {
  ReplicationScheme scheme = ReplicationScheme::Majority(3);
  RoundRobinPlacement rr;
  auto point = EstimateStaticUnavailability(scheme, rr, FastConfig(10), 0);
  EXPECT_DOUBLE_EQ(point.p_any_unavailable, 0.0);
  EXPECT_DOUBLE_EQ(point.mean_unavailable_fraction, 0.0);
}

TEST(StaticAvailabilityTest, AllNodesFailedIsAlwaysUnavailable) {
  ReplicationScheme scheme = ReplicationScheme::Majority(3);
  RoundRobinPlacement rr;
  auto point = EstimateStaticUnavailability(scheme, rr, FastConfig(10), 10);
  EXPECT_DOUBLE_EQ(point.p_any_unavailable, 1.0);
  EXPECT_DOUBLE_EQ(point.mean_unavailable_fraction, 1.0);
}

TEST(StaticAvailabilityTest, CurveIsMonotoneInFailures) {
  ReplicationScheme scheme = ReplicationScheme::Majority(5);
  RoundRobinPlacement rr;
  auto curve = StaticUnavailabilityCurve(scheme, rr, FastConfig(10), 6);
  ASSERT_EQ(curve.size(), 7u);
  // Allow small Monte-Carlo wiggle.
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].p_any_unavailable,
              curve[i - 1].p_any_unavailable - 0.05)
        << "f=" << i;
  }
}

TEST(StaticAvailabilityTest, HigherReplicationIsSafer) {
  RoundRobinPlacement rr;
  StaticAvailabilityConfig cfg = FastConfig(10);
  ReplicationScheme n3 = ReplicationScheme::Majority(3);
  ReplicationScheme n5 = ReplicationScheme::Majority(5);
  auto p3 = EstimateStaticUnavailability(n3, rr, cfg, 3);
  auto p5 = EstimateStaticUnavailability(n5, rr, cfg, 3);
  EXPECT_LE(p5.p_any_unavailable, p3.p_any_unavailable + 0.05);
}

TEST(StaticAvailabilityTest, DeterministicGivenSeed) {
  ReplicationScheme scheme = ReplicationScheme::Majority(3);
  RandomPlacement random;
  StaticAvailabilityConfig cfg = FastConfig(10);
  auto a = EstimateStaticUnavailability(scheme, random, cfg, 2);
  auto b = EstimateStaticUnavailability(scheme, random, cfg, 2);
  EXPECT_DOUBLE_EQ(a.p_any_unavailable, b.p_any_unavailable);
  EXPECT_DOUBLE_EQ(a.mean_unavailable_fraction, b.mean_unavailable_fraction);
}

TEST(StaticAvailabilityTest, MeanFractionBoundedByAny) {
  ReplicationScheme scheme = ReplicationScheme::Majority(3);
  RandomPlacement random;
  auto point = EstimateStaticUnavailability(scheme, random, FastConfig(10), 3);
  EXPECT_LE(point.mean_unavailable_fraction, point.p_any_unavailable);
  EXPECT_GE(point.mean_unavailable_fraction, 0.0);
}

// --- Statistical oracle over the whole Figure 1 grid (paper §4.3) ---
//
// Each point estimates p = P(>= 1 of U users unavailable | f failed nodes)
// from P placement layouts x T failure sets. Failure sets are independent
// and uniform, so given a layout L the T hits of that layout are i.i.d.
// Bernoulli(q_L), and layouts are independent draws with E[q_L] = p.
//
//  * Round-robin: every layout is the same, q_L = p, so all P*T trials are
//    i.i.d. and the hit count is Binomial(P*T, p).
//  * Random: layouts are clusters. Var(p_hat) = (Var(q_L) + (p(1-p) -
//    Var(q_L)) / T) / P, which is the Binomial variance inflated by the
//    design effect 1 + (T-1) rho, rho = Var(q_L) / (p(1-p)). The effective
//    sample size is P*T / (1 + (T-1) rho).
//
// Var(q_L) is exact: it is the covariance, over layouts, of "some user is
// hit" under two independent failure sets F and F'. Users are placed
// independently, so P(no user hit under F and F') = (1 - 2 p1 + b(k))^U,
// where p1 is one user's unavailability and b(k) is the chance that one
// user is hit under both, given k = |F ∩ F'| shared failed nodes.
//
// The check is a Wilson interval at the effective sample size, Bonferroni-
// corrected over the grid so the whole grid passes with probability >=
// 1 - kFamilyAlpha. Its seed is the committed scenario's own (2014).

constexpr double kFamilyAlpha = 0.01;

// b(k): a uniform n-set of N nodes has >= t nodes in each of two f-sets
// that share k nodes (multivariate hypergeometric over F∩F', F\F', F'\F
// and the rest).
double HitUnderBoth(int N, int n, int t, int f, int k) {
  double sum = 0.0;
  for (int a = 0; a <= std::min(k, n); ++a) {
    for (int b = 0; b <= std::min(f - k, n - a); ++b) {
      for (int c = 0; c <= std::min(f - k, n - a - b); ++c) {
        if (a + b < t || a + c < t) continue;
        sum += Choose(k, a) * Choose(f - k, b) * Choose(f - k, c) *
               Choose(N - 2 * f + k, n - a - b - c);
      }
    }
  }
  return sum / Choose(N, n);
}

// Var over random layouts of q_L (see above), for quorum replication.
double RandomLayoutVariance(int N, int n, int quorum, int f, int64_t users) {
  const int t = n - quorum + 1;  // failed replicas that make a user unavailable
  const double p1 = RandomPlacementObjectUnavailability(N, n, quorum, f);
  const double u = static_cast<double>(users);
  double both_ok = 0.0;  // E_k[(1 - 2 p1 + b(k))^U]
  for (int k = std::max(0, 2 * f - N); k <= f; ++k) {
    const double pk = Choose(f, k) * Choose(N - f, f - k) / Choose(N, f);
    const double miss = 1.0 - 2.0 * p1 + HitUnderBoth(N, n, t, f, k);
    if (pk > 0.0 && miss > 0.0) both_ok += pk * std::exp(u * std::log(miss));
  }
  const double one_ok = 1.0 - RandomPlacementAnyUnavailable(N, n, quorum, f,
                                                            users);
  return std::max(0.0, both_ok - one_ok * one_ok);
}

TEST(StaticAvailabilityOracle, Fig1GridMatchesClosedForms) {
  auto path = scenario::FindScenarioPath("fig1_unavailability");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  auto spec = scenario::LoadScenarioFile(*path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_TRUE(spec->has_seed);
  auto space = BuildQuerySpace(spec->query);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  WindTunnelOptions options;
  options.seed = spec->seed;
  WindTunnel tunnel(options);
  ASSERT_TRUE(RegisterBuiltinSimulations(&tunnel).ok());
  auto records = tunnel.RunSweep("fig1", *space, spec->query.simulation);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 72u);

  const int64_t users = spec->query.params.at("users").AsInt();
  const int64_t layouts = spec->query.params.at("placement_samples").AsInt();
  const int64_t per_layout = spec->query.params.at("trials").AsInt();
  const double confidence =
      1.0 - kFamilyAlpha / static_cast<double>(records->size());
  int legacy_seen = 0;
  for (const RunRecord& r : *records) {
    const int N = static_cast<int>(r.point.GetInt("nodes", -1));
    const int n = static_cast<int>(r.point.GetInt("replication", -1));
    const int f = static_cast<int>(r.point.GetInt("failures", -1));
    const std::string placement = r.point.GetString("placement", "");
    const int quorum = n / 2 + 1;
    const int64_t trials = static_cast<int64_t>(r.metrics.at("mc_trials"));
    ASSERT_EQ(trials, layouts * per_layout) << r.point.ToString();
    const double p_hat = r.metrics.at("p_any_unavailable");

    double exact = 0.0;
    double effective_trials = static_cast<double>(trials);
    if (placement == "random") {
      exact = RandomPlacementAnyUnavailable(N, n, quorum, f, users);
      const double bernoulli = exact * (1.0 - exact);
      if (bernoulli > 0.0) {
        const double rho =
            std::min(1.0, RandomLayoutVariance(N, n, quorum, f, users) /
                              bernoulli);
        effective_trials /=
            1.0 + static_cast<double>(per_layout - 1) * rho;
      }
    } else {
      ASSERT_EQ(placement, "round_robin");
      auto rr = RoundRobinAnyUnavailable(N, n, quorum, f);
      ASSERT_TRUE(rr.ok()) << rr.status().ToString();
      exact = *rr;
    }
    // Rounding the sample size down only widens the interval.
    const int64_t n_eff =
        std::max<int64_t>(1, static_cast<int64_t>(effective_trials));
    const Interval ci = WilsonInterval(
        std::llround(p_hat * static_cast<double>(n_eff)), n_eff, confidence);
    EXPECT_TRUE(ci.Contains(exact))
        << r.point.ToString() << ": estimate " << p_hat << " exact " << exact
        << " Wilson [" << ci.lo << ", " << ci.hi << "] at n_eff " << n_eff;

    // The seven points the hand-picked 4 sigma + 0.02 tolerance used to
    // check must not be allowed a wider error now.
    const bool legacy_point =
        n == 3 && ((N == 10 && placement == "round_robin" && f >= 1 &&
                    f <= 4) ||
                   (N == 30 && placement == "random" &&
                    (f == 2 || f == 3 || f == 5)));
    if (legacy_point) {
      ++legacy_seen;
      const double legacy =
          4.0 * std::sqrt(exact * (1.0 - exact) / 1000.0) + 0.02;
      EXPECT_LE(std::max(p_hat - ci.lo, ci.hi - p_hat), legacy)
          << r.point.ToString();
    }
  }
  EXPECT_EQ(legacy_seen, 7);
}

}  // namespace
}  // namespace wt
