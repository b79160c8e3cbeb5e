// Differential test of the static (Figure 1) estimator against a reference
// copy of the per-user scan it replaced: one StorageService per placement
// sample, and on every trial a CountUnavailable scan over all users plus a
// per-object durability check. The estimator collapses users into distinct
// replica sets and visits only the sets on failed nodes; it must reproduce
// the reference bit for bit on every configuration, including node masks
// of more than one 64-bit word (N > 64) and wide clusters (N up to 256).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "wt/common/string_util.h"
#include "wt/soft/availability_static.h"
#include "wt/soft/storage_service.h"

namespace wt {
namespace {

// The estimator as it was: same substreams, same draw order, one object
// scan per hit trial.
StaticAvailabilityPoint ReferenceEstimate(
    const RedundancyScheme& scheme, const PlacementPolicy& placement,
    const StaticAvailabilityConfig& config, int failures) {
  StaticAvailabilityPoint point;
  point.failures = failures;
  RngStream root(config.seed);
  int64_t hits = 0;
  int64_t loss_hits = 0;
  double unavailable_fraction_sum = 0.0;
  int64_t trials = 0;
  std::vector<NodeIndex> scratch;
  std::vector<bool> node_up;
  for (int ps = 0; ps < config.placement_samples; ++ps) {
    StorageServiceConfig sc;
    sc.num_users = config.num_users;
    sc.num_nodes = config.num_nodes;
    RngStream place_rng = root.Substream(StrFormat("placement-%d", ps));
    StorageService service(sc, scheme.Clone(), placement.Clone(), place_rng);
    RngStream fail_rng = root.Substream(StrFormat("failures-%d", ps));
    for (int t = 0; t < config.trials_per_placement; ++t) {
      node_up.assign(static_cast<size_t>(config.num_nodes), true);
      scratch.resize(static_cast<size_t>(config.num_nodes));
      std::iota(scratch.begin(), scratch.end(), 0);
      for (int i = 0; i < failures; ++i) {
        int64_t j = fail_rng.UniformInt(i, config.num_nodes - 1);
        std::swap(scratch[static_cast<size_t>(i)],
                  scratch[static_cast<size_t>(j)]);
        node_up[static_cast<size_t>(scratch[static_cast<size_t>(i)])] = false;
      }
      const int64_t unavailable = service.CountUnavailable(node_up);
      if (unavailable > 0) {
        ++hits;
        unavailable_fraction_sum += static_cast<double>(unavailable) /
                                    static_cast<double>(config.num_users);
        bool lost = false;
        for (ObjectId o = 0; o < service.num_objects() && !lost; ++o) {
          lost = !scheme.Durable(service.UpFragments(o, node_up));
        }
        if (lost) ++loss_hits;
      }
      ++trials;
    }
  }
  point.trials = trials;
  if (trials > 0) {
    point.p_any_unavailable =
        static_cast<double>(hits) / static_cast<double>(trials);
    point.mean_unavailable_fraction =
        unavailable_fraction_sum / static_cast<double>(trials);
    point.p_any_lost =
        static_cast<double>(loss_hits) / static_cast<double>(trials);
  }
  return point;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct DiffCase {
  std::unique_ptr<RedundancyScheme> scheme;
  std::unique_ptr<PlacementPolicy> placement;
  StaticAvailabilityConfig config;
  int failures = 0;
};

// A scheme of `kind` (0 majority, 1 read-one/write-all, 2 rs, 3 lrc) that
// fits `nodes`, falling back to majority replication when it cannot.
std::unique_ptr<RedundancyScheme> RandomScheme(int kind, int nodes,
                                               RngStream& rng) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (kind == 2) {
      const int k = static_cast<int>(rng.UniformInt(1, 6));
      const int m = static_cast<int>(rng.UniformInt(1, 4));
      if (k + m <= nodes) return std::make_unique<ReedSolomonScheme>(k, m);
    } else if (kind == 3) {
      const int groups = static_cast<int>(rng.UniformInt(1, 3));
      const int k = groups * static_cast<int>(rng.UniformInt(1, 3));
      const int m = static_cast<int>(rng.UniformInt(0, 2));
      if (k + m + groups <= nodes) {
        return std::make_unique<LrcScheme>(k, m, groups);
      }
    } else {
      const int n = static_cast<int>(rng.UniformInt(1, std::min(nodes, 7)));
      return std::make_unique<ReplicationScheme>(
          kind == 0 ? QuorumSpec::Majority(n)
                    : QuorumSpec::ReadOneWriteAll(n));
    }
  }
  return std::make_unique<ReplicationScheme>(QuorumSpec::Majority(1));
}

TEST(StaticAvailabilityDifferential, MatchesPerUserScanBitForBit) {
  RngStream rng(20140901);
  const std::vector<int> edge_nodes = {1,   2,   63,  64,  65,  128,
                                       129, 130, 192, 193, 256};
  int multi_word = 0;
  int wide = 0;  // N > 192: four or more mask words
  int partial = 0;  // 0 < p_any_unavailable < 1
  int lossy = 0;
  int full_failure = 0;
  for (int i = 0; i < 200; ++i) {
    DiffCase c;
    const int nodes =
        i < static_cast<int>(edge_nodes.size()) * 3
            ? edge_nodes[static_cast<size_t>(i / 3)]
            : static_cast<int>(rng.UniformInt(1, 130));
    const int kind = i % 4;
    c.scheme = RandomScheme(kind, nodes, rng);
    switch (i % 3) {
      case 0:
        c.placement = std::make_unique<RandomPlacement>();
        break;
      case 1:
        c.placement = std::make_unique<RoundRobinPlacement>();
        break;
      default:
        c.placement = std::make_unique<CopysetPlacement>(
            static_cast<int>(rng.UniformInt(1, 4)), rng.NextU64());
    }
    c.config.num_nodes = nodes;
    c.config.num_users = rng.UniformInt(1, 400);
    c.config.placement_samples = static_cast<int>(rng.UniformInt(1, 3));
    c.config.trials_per_placement = static_cast<int>(rng.UniformInt(1, 40));
    c.config.seed = rng.NextU64();
    c.failures = static_cast<int>(rng.UniformInt(0, nodes));

    const StaticAvailabilityPoint want = ReferenceEstimate(
        *c.scheme, *c.placement, c.config, c.failures);
    const StaticAvailabilityPoint got = EstimateStaticUnavailability(
        *c.scheme, *c.placement, c.config, c.failures);
    const std::string what = StrFormat(
        "case %d: %s %s N=%d users=%lld samples=%d trials=%d f=%d", i,
        c.scheme->name().c_str(), c.placement->name().c_str(), nodes,
        static_cast<long long>(c.config.num_users),
        c.config.placement_samples, c.config.trials_per_placement,
        c.failures);
    EXPECT_EQ(got.trials, want.trials) << what;
    EXPECT_EQ(got.failures, want.failures) << what;
    EXPECT_TRUE(BitEqual(got.p_any_unavailable, want.p_any_unavailable))
        << what << ": " << got.p_any_unavailable << " vs "
        << want.p_any_unavailable;
    EXPECT_TRUE(BitEqual(got.mean_unavailable_fraction,
                         want.mean_unavailable_fraction))
        << what << ": " << got.mean_unavailable_fraction << " vs "
        << want.mean_unavailable_fraction;
    EXPECT_TRUE(BitEqual(got.p_any_lost, want.p_any_lost))
        << what << ": " << got.p_any_lost << " vs " << want.p_any_lost;

    multi_word += nodes > 64 ? 1 : 0;
    wide += nodes > 192 ? 1 : 0;
    partial += want.p_any_unavailable > 0.0 && want.p_any_unavailable < 1.0;
    lossy += want.p_any_lost > 0.0 ? 1 : 0;
    full_failure += c.failures == nodes ? 1 : 0;
  }
  // The comparison is only as strong as the configurations it saw.
  EXPECT_GE(multi_word, 20);
  EXPECT_GE(wide, 3);
  EXPECT_GE(partial, 20);
  EXPECT_GE(lossy, 20);
  EXPECT_GE(full_failure, 1);
}

// A policy that breaks the placement contract in a chosen way.
class BrokenPlacement final : public PlacementPolicy {
 public:
  explicit BrokenPlacement(bool out_of_range) : out_of_range_(out_of_range) {}
  void Place(ObjectId /*object*/, int num_fragments, int num_nodes,
             RngStream& /*rng*/, std::vector<NodeIndex>& out) const override {
    // Nodes 0, 1, ..., with the last one a repeat of node 0 or past the
    // cluster's end.
    out.resize(static_cast<size_t>(num_fragments));
    std::iota(out.begin(), out.end(), 0);
    out.back() = out_of_range_ ? num_nodes : 0;
  }
  std::string name() const override { return "broken"; }
  std::unique_ptr<PlacementPolicy> Clone() const override {
    return std::make_unique<BrokenPlacement>(*this);
  }

 private:
  bool out_of_range_;
};

TEST(StaticAvailabilityDifferentialDeathTest, RejectsInvalidPlacements) {
  const ReplicationScheme scheme = ReplicationScheme::Majority(3);
  StaticAvailabilityConfig config;
  config.num_nodes = 10;
  config.num_users = 5;
  config.placement_samples = 1;
  config.trials_per_placement = 1;
  EXPECT_DEATH(EstimateStaticUnavailability(scheme, BrokenPlacement(false),
                                            config, 2),
               "distinct nodes");
  EXPECT_DEATH(EstimateStaticUnavailability(scheme, BrokenPlacement(true),
                                            config, 2),
               "placed a fragment on node 10");
}

}  // namespace
}  // namespace wt
