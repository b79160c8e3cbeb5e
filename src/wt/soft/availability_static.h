// Static availability estimation — the Figure 1 experiment.
//
// "Figure 1 shows the probability of having at least one customer's data
// become unavailable as the number of node failures in the cluster
// increases, for varying cluster sizes, data placement algorithms and
// replication factors." (§4.6)
//
// Given f failed nodes sampled uniformly from N, estimate
//   P(at least one of U users cannot reach a quorum of its replicas)
// by Monte Carlo over (placement, failure-set) samples. The exact values
// for Random and RoundRobin placement are available in
// wt/analytics/combinatorics.h and are used to validate this estimator.

#ifndef WT_SOFT_AVAILABILITY_STATIC_H_
#define WT_SOFT_AVAILABILITY_STATIC_H_

#include <memory>
#include <vector>

#include "wt/soft/placement.h"
#include "wt/soft/redundancy.h"

namespace wt {

/// Monte-Carlo parameters for the static (snapshot) availability estimate.
struct StaticAvailabilityConfig {
  int num_nodes = 10;
  int64_t num_users = 10000;
  /// Placement layouts sampled (matters for randomized policies).
  int placement_samples = 20;
  /// Failure sets sampled per placement layout.
  int trials_per_placement = 100;
  uint64_t seed = 1;
};

/// Result of one (config, f) estimate.
struct StaticAvailabilityPoint {
  int failures = 0;
  /// P(>= 1 user unavailable).
  double p_any_unavailable = 0.0;
  /// E[fraction of users unavailable].
  double mean_unavailable_fraction = 0.0;
  /// P(>= 1 user's data entirely lost) — the durability analogue; for
  /// n-way replication this is "all n replicas among the failed nodes".
  double p_any_lost = 0.0;
  int64_t trials = 0;
};

/// Estimates P(>=1 user unavailable) and the mean unavailable fraction for
/// exactly `failures` failed nodes.
StaticAvailabilityPoint EstimateStaticUnavailability(
    const RedundancyScheme& scheme, const PlacementPolicy& placement,
    const StaticAvailabilityConfig& config, int failures);

/// Sweeps failures = 0..max_failures (inclusive) — one Figure 1 curve.
std::vector<StaticAvailabilityPoint> StaticUnavailabilityCurve(
    const RedundancyScheme& scheme, const PlacementPolicy& placement,
    const StaticAvailabilityConfig& config, int max_failures);

}  // namespace wt

#endif  // WT_SOFT_AVAILABILITY_STATIC_H_
