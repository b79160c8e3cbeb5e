// Tests for placement policies: distinctness, determinism, shape.

#include <gtest/gtest.h>

#include <set>

#include "wt/soft/placement.h"

namespace wt {
namespace {

// One placement into a fresh buffer.
std::vector<NodeIndex> Placed(const PlacementPolicy& policy, ObjectId object,
                              int n, int num_nodes, RngStream& rng) {
  std::vector<NodeIndex> nodes;
  policy.Place(object, n, num_nodes, rng, nodes);
  return nodes;
}

// Every policy must return the requested number of distinct in-range nodes.
class PlacementDistinctnessTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PlacementDistinctnessTest, ReturnsDistinctNodesInRange) {
  auto policy = PlacementPolicy::Create(GetParam());
  ASSERT_TRUE(policy.ok());
  RngStream rng(5);
  // One buffer for every call: each Place must replace what the last left,
  // whether the cluster or the fragment count grew or shrank.
  std::vector<NodeIndex> nodes;
  for (int num_nodes : {5, 10, 30}) {
    for (int n : {1, 3, 5}) {
      for (ObjectId o = 0; o < 50; ++o) {
        (*policy)->Place(o, n, num_nodes, rng, nodes);
        ASSERT_EQ(nodes.size(), static_cast<size_t>(n));
        std::set<NodeIndex> uniq(nodes.begin(), nodes.end());
        EXPECT_EQ(uniq.size(), nodes.size()) << "duplicate replica node";
        for (NodeIndex idx : nodes) {
          EXPECT_GE(idx, 0);
          EXPECT_LT(idx, num_nodes);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PlacementDistinctnessTest,
                         ::testing::Values("random", "round_robin",
                                           "copyset"));

TEST(RoundRobinTest, ContiguousWindowFromObjectId) {
  RoundRobinPlacement rr;
  RngStream rng(1);
  auto nodes = Placed(rr, /*object=*/7, /*n=*/3, /*num_nodes=*/10, rng);
  EXPECT_EQ(nodes, (std::vector<NodeIndex>{7, 8, 9}));
  nodes = Placed(rr, 9, 3, 10, rng);
  EXPECT_EQ(nodes, (std::vector<NodeIndex>{9, 0, 1}));  // wraps
}

TEST(RoundRobinTest, DeterministicAcrossCalls) {
  RoundRobinPlacement rr;
  RngStream r1(1), r2(999);
  EXPECT_EQ(Placed(rr, 13, 5, 30, r1), Placed(rr, 13, 5, 30, r2));
}

TEST(RandomTestPlacement, CoversAllNodesOverManyObjects) {
  RandomPlacement random;
  RngStream rng(3);
  std::set<NodeIndex> seen;
  for (ObjectId o = 0; o < 500; ++o) {
    for (NodeIndex n : Placed(random, o, 3, 10, rng)) seen.insert(n);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RandomTestPlacement, MarginalsAreUniform) {
  RandomPlacement random;
  RngStream rng(17);
  std::vector<int> counts(10, 0);
  const int kObjects = 30000;
  for (ObjectId o = 0; o < kObjects; ++o) {
    for (NodeIndex n : Placed(random, o, 3, 10, rng)) {
      ++counts[static_cast<size_t>(n)];
    }
  }
  // Each node holds ~ 3/10 of objects.
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kObjects, 0.3, 0.02);
  }
}

TEST(CopysetTest, FewDistinctReplicaSets) {
  CopysetPlacement copyset(/*scatter_width=*/2, /*seed=*/7);
  RandomPlacement random;
  RngStream rng(5);
  std::set<std::set<NodeIndex>> copyset_sets, random_sets;
  for (ObjectId o = 0; o < 2000; ++o) {
    auto c = Placed(copyset, o, 3, 30, rng);
    copyset_sets.insert(std::set<NodeIndex>(c.begin(), c.end()));
    auto r = Placed(random, o, 3, 30, rng);
    random_sets.insert(std::set<NodeIndex>(r.begin(), r.end()));
  }
  // Copyset: ~scatter_width/(n-1) permutations x 10 groups = ~10 sets.
  // Random: close to min(2000, C(30,3)=4060) distinct sets.
  EXPECT_LE(copyset_sets.size(), 20u);
  EXPECT_GT(random_sets.size(), 1000u);
}

TEST(PlacementFactoryTest, NamesAndAliases) {
  EXPECT_EQ(PlacementPolicy::Create("random").value()->name(), "random");
  EXPECT_EQ(PlacementPolicy::Create("R").value()->name(), "random");
  EXPECT_EQ(PlacementPolicy::Create("rr").value()->name(), "round_robin");
  EXPECT_EQ(PlacementPolicy::Create("RoundRobin").value()->name(),
            "round_robin");
  EXPECT_EQ(PlacementPolicy::Create("copyset").value()->name(), "copyset");
  EXPECT_FALSE(PlacementPolicy::Create("bogus").ok());
}

TEST(PlacementFactoryTest, CloneMatchesOriginal) {
  auto rr = PlacementPolicy::Create("round_robin").value();
  auto clone = rr->Clone();
  RngStream rng(1);
  EXPECT_EQ(Placed(*clone, 4, 3, 10, rng), (std::vector<NodeIndex>{4, 5, 6}));
  EXPECT_EQ(clone->name(), "round_robin");
}

}  // namespace
}  // namespace wt
