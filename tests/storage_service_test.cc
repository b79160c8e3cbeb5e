// Tests for StorageService: placement maps, availability queries, and the
// fragment mutation API used by repair.

#include <gtest/gtest.h>

#include <memory>

#include "wt/soft/storage_service.h"

namespace wt {
namespace {

StorageService MakeService(int64_t users = 100, int nodes = 10, int n = 3,
                           const std::string& placement = "round_robin",
                           uint64_t seed = 1) {
  StorageServiceConfig cfg;
  cfg.num_users = users;
  cfg.num_nodes = nodes;
  cfg.object_size_gb = 10.0;
  auto scheme =
      std::make_unique<ReplicationScheme>(ReplicationScheme::Majority(n));
  auto policy = PlacementPolicy::Create(placement).value();
  return StorageService(cfg, std::move(scheme), std::move(policy),
                        RngStream(seed));
}

TEST(StorageServiceTest, BuildsFragmentMap) {
  StorageService svc = MakeService(100, 10, 3);
  EXPECT_EQ(svc.num_objects(), 100);
  for (ObjectId o = 0; o < 100; ++o) {
    EXPECT_EQ(svc.fragments(o).size(), 3u);
    for (const FragmentLoc& f : svc.fragments(o)) {
      EXPECT_TRUE(f.alive);
      EXPECT_GE(f.node, 0);
      EXPECT_LT(f.node, 10);
    }
  }
}

TEST(StorageServiceTest, PerNodeIndexIsConsistent) {
  StorageService svc = MakeService(100, 10, 3);
  // Round-robin with 100 objects on 10 nodes: each node holds fragments of
  // exactly 30 objects (3 windows cover it x 10 objects per start).
  for (NodeIndex n = 0; n < 10; ++n) {
    EXPECT_EQ(svc.objects_on_node(n).size(), 30u);
  }
}

TEST(StorageServiceTest, AvailabilityUnderFailures) {
  StorageService svc = MakeService(100, 10, 3, "round_robin");
  std::vector<bool> up(10, true);
  EXPECT_EQ(svc.CountUnavailable(up), 0);

  // Fail nodes 0 and 1: objects with windows {9,0,1}, {0,1,2} lose quorum
  // (2 of 3 replicas). Windows {8,9,0} and {1,2,3} keep 2 live replicas.
  up[0] = false;
  up[1] = false;
  EXPECT_GT(svc.CountUnavailable(up), 0);
  EXPECT_EQ(svc.CountUnavailable(up), 20);  // 2 window starts x 10 objects
}

TEST(StorageServiceTest, UpFragmentsCountsLiveOnly) {
  StorageService svc = MakeService(10, 10, 3, "round_robin");
  std::vector<bool> up(10, true);
  EXPECT_EQ(svc.UpFragments(0, up), 3);  // object 0 -> nodes 0,1,2
  up[1] = false;
  EXPECT_EQ(svc.UpFragments(0, up), 2);
  EXPECT_TRUE(svc.Available(0, up));
  up[2] = false;
  EXPECT_EQ(svc.UpFragments(0, up), 1);
  EXPECT_FALSE(svc.Available(0, up));
}

TEST(StorageServiceTest, FailNodeMarksFragmentsDead) {
  StorageService svc = MakeService(10, 10, 3, "round_robin");
  auto affected = svc.FailNode(0);
  // Objects with windows starting at 8, 9, 0 include node 0.
  EXPECT_EQ(affected.size(), 3u);
  std::vector<bool> up(10, true);  // node hardware is back, data still dead
  EXPECT_EQ(svc.UpFragments(0, up), 2);
}

TEST(StorageServiceTest, RestoreFragmentMovesAndRevives) {
  StorageService svc = MakeService(10, 10, 3, "round_robin");
  svc.FailNode(0);
  // Object 0's fragment 0 was on node 0; restore it on node 5.
  ASSERT_FALSE(svc.fragments(0)[0].alive);
  svc.RestoreFragment(0, 0, 5);
  EXPECT_TRUE(svc.fragments(0)[0].alive);
  EXPECT_EQ(svc.fragments(0)[0].node, 5);
  std::vector<bool> up(10, true);
  EXPECT_EQ(svc.UpFragments(0, up), 3);
  // Node 5's index now includes object 0.
  const auto& on5 = svc.objects_on_node(5);
  EXPECT_NE(std::find(on5.begin(), on5.end(), 0), on5.end());
  // Node 0's index no longer includes object 0.
  const auto& on0 = svc.objects_on_node(0);
  EXPECT_EQ(std::find(on0.begin(), on0.end(), 0), on0.end());
}

TEST(StorageServiceTest, LiveFragmentNodes) {
  StorageService svc = MakeService(10, 10, 3, "round_robin");
  svc.FailNode(1);
  auto live = svc.LiveFragmentNodes(0);  // object 0 on {0,1,2}, 1 dead
  EXPECT_EQ(live.size(), 2u);
}

TEST(StorageServiceTest, ByteAccounting) {
  StorageService svc = MakeService(100, 10, 3);
  EXPECT_DOUBLE_EQ(svc.FragmentBytes(), 10.0 * 1e9);  // full copy
  EXPECT_DOUBLE_EQ(svc.TotalRawBytes(), 100 * 10.0 * 1e9 * 3);
}

TEST(StorageServiceTest, ErasureCodedService) {
  StorageServiceConfig cfg;
  cfg.num_users = 10;
  cfg.num_nodes = 20;
  cfg.object_size_gb = 10.0;
  StorageService svc(cfg, std::make_unique<ReedSolomonScheme>(10, 4),
                     PlacementPolicy::Create("random").value(), RngStream(2));
  EXPECT_EQ(svc.fragments(0).size(), 14u);
  EXPECT_DOUBLE_EQ(svc.FragmentBytes(), 1e9);  // 10 GB / k=10
  std::vector<bool> up(20, true);
  EXPECT_TRUE(svc.Available(0, up));
}

TEST(StorageServiceDeathTest, SchemeWiderThanClusterAborts) {
  StorageServiceConfig cfg;
  cfg.num_users = 1;
  cfg.num_nodes = 2;
  EXPECT_DEATH(
      {
        StorageService svc(
            cfg,
            std::make_unique<ReplicationScheme>(ReplicationScheme::Majority(3)),
            PlacementPolicy::Create("random").value(), RngStream(1));
      },
      "scheme needs");
}

}  // namespace
}  // namespace wt
