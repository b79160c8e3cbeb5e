// Tests for the wind tunnel core: design spaces, interaction graphs,
// thread pool, dominance pruning, early abort.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <utility>

#include "wt/common/macros.h"
#include "wt/core/design_space.h"
#include "wt/core/early_abort.h"
#include "wt/core/pruner.h"
#include "wt/core/sim_model.h"
#include "wt/core/thread_pool.h"

namespace wt {
namespace {

// ------------------------------------------------------------ DesignSpace

TEST(DesignSpaceTest, CartesianProduct) {
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("a", {Value(1), Value(2)}).ok());
  ASSERT_TRUE(space.AddDimension("b", {Value("x"), Value("y"), Value("z")}).ok());
  EXPECT_EQ(space.size(), 6u);
  std::set<std::string> seen;
  for (const DesignPoint& p : space.AllPoints()) {
    seen.insert(p.ToString());
  }
  EXPECT_EQ(seen.size(), 6u);  // all distinct
}

TEST(DesignSpaceTest, PointAtIsStable) {
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("a", {Value(1), Value(2)}).ok());
  ASSERT_TRUE(space.AddDimension("b", {Value(3), Value(4)}).ok());
  // Last dimension varies fastest.
  EXPECT_EQ(space.PointAt(0).Get("a").value().AsInt(), 1);
  EXPECT_EQ(space.PointAt(0).Get("b").value().AsInt(), 3);
  EXPECT_EQ(space.PointAt(1).Get("b").value().AsInt(), 4);
  EXPECT_EQ(space.PointAt(2).Get("a").value().AsInt(), 2);
}

TEST(DesignSpaceTest, RejectsDuplicatesAndEmpty) {
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("a", {Value(1)}).ok());
  EXPECT_FALSE(space.AddDimension("a", {Value(2)}).ok());
  EXPECT_FALSE(space.AddDimension("b", {}).ok());
  EXPECT_TRUE(space.dimension("a").ok());
  EXPECT_FALSE(space.dimension("b").ok());
}

TEST(DesignPointTest, TypedGetters) {
  DesignPoint p({{"n", Value(5)}, {"rate", Value(2.5)}, {"s", Value("x")}});
  EXPECT_EQ(p.GetInt("n", -1), 5);
  EXPECT_DOUBLE_EQ(p.GetDouble("rate", -1), 2.5);
  EXPECT_DOUBLE_EQ(p.GetDouble("n", -1), 5.0);  // int as double
  EXPECT_EQ(p.GetString("s", "?"), "x");
  EXPECT_EQ(p.GetString("n", "?"), "?");  // wrong type -> fallback
  EXPECT_EQ(p.GetInt("missing", 9), 9);
  EXPECT_TRUE(p.Has("n"));
  EXPECT_FALSE(p.Has("missing"));
  EXPECT_FALSE(p.Get("missing").ok());
}

// ------------------------------------------------------- InteractionGraph

TEST(InteractionGraphTest, PaperExample) {
  // §4.1: the disk failure model is independent of the switch failure
  // model, but a data transfer interacts with a workload on the same node.
  InteractionGraph g;
  ASSERT_TRUE(g.AddModel({"disk_fail", {"clock"}, {"disk_state"}}).ok());
  ASSERT_TRUE(g.AddModel({"switch_fail", {"clock"}, {"switch_state"}}).ok());
  ASSERT_TRUE(g.AddModel({"transfer", {"disk_state"}, {"network"}}).ok());
  ASSERT_TRUE(g.AddModel({"workload", {"network"}, {"node_queues"}}).ok());

  EXPECT_TRUE(g.Independent("disk_fail", "switch_fail").value());
  EXPECT_FALSE(g.Independent("disk_fail", "transfer").value());  // disk_state
  EXPECT_FALSE(g.Independent("transfer", "workload").value());   // network
  EXPECT_TRUE(g.Independent("switch_fail", "workload").value());
}

TEST(InteractionGraphTest, ReadsDontConflict) {
  InteractionGraph g;
  ASSERT_TRUE(g.AddModel({"a", {"shared"}, {}}).ok());
  ASSERT_TRUE(g.AddModel({"b", {"shared"}, {}}).ok());
  EXPECT_TRUE(g.Independent("a", "b").value());  // read-read is fine
}

TEST(InteractionGraphTest, ConnectedComponents) {
  InteractionGraph g;
  ASSERT_TRUE(g.AddModel({"a", {}, {"r1"}}).ok());
  ASSERT_TRUE(g.AddModel({"b", {"r1"}, {"r2"}}).ok());
  ASSERT_TRUE(g.AddModel({"c", {"r2"}, {}}).ok());
  ASSERT_TRUE(g.AddModel({"d", {}, {"r9"}}).ok());
  auto comps = g.ConnectedComponents();
  ASSERT_EQ(comps.size(), 2u);
  size_t big = comps[0].size() == 3 ? 0 : 1;
  EXPECT_EQ(comps[big].size(), 3u);
  EXPECT_EQ(comps[1 - big].size(), 1u);
}

TEST(InteractionGraphTest, ConflictSetAndErrors) {
  InteractionGraph g;
  ASSERT_TRUE(g.AddModel({"a", {}, {"x"}}).ok());
  ASSERT_TRUE(g.AddModel({"b", {"x"}, {}}).ok());
  EXPECT_FALSE(g.AddModel({"a", {}, {}}).ok());  // duplicate
  auto conflicts = g.ConflictSet("a");
  ASSERT_TRUE(conflicts.ok());
  EXPECT_EQ(*conflicts, std::vector<std::string>{"b"});
  EXPECT_FALSE(g.Conflicts("a", "nope").ok());
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.WaitIdle();  // returns immediately
  SUCCEED();
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 10);
}

// ---------------------------------------------------------------- Pruner

DesignPoint P(int64_t gbps, const std::string& placement) {
  return DesignPoint(
      {{"network_gbps", Value(gbps)}, {"placement", Value(placement)}});
}

// A DominanceIndex over `space` that records and queries DesignPoints by
// looking up their run ids, so the cases below read like the paper.
class PointPruner {
 public:
  PointPruner(DesignSpace space, std::vector<MonotoneHint> hints)
      : space_(std::move(space)), index_(space_, hints, /*can_prune=*/true) {}

  void RecordFailure(const DesignPoint& p) { index_.RecordFailure(RunId(p)); }
  bool IsDominated(const DesignPoint& p) const {
    return index_.IsDominated(RunId(p));
  }
  std::vector<DesignPoint> Ordered() const {
    std::vector<DesignPoint> out;
    for (size_t grid : index_.order()) out.push_back(space_.PointAt(grid));
    return out;
  }

 private:
  size_t RunId(const DesignPoint& p) const {
    const std::vector<size_t>& order = index_.order();
    for (size_t r = 0; r < order.size(); ++r) {
      if (space_.PointAt(order[r]).ToString() == p.ToString()) return r;
    }
    ADD_FAILURE() << "point not in space: " << p.ToString();
    return 0;
  }

  DesignSpace space_;
  DominanceIndex index_;
};

DesignSpace Space(
    const std::vector<std::pair<std::string, std::vector<Value>>>& dims) {
  DesignSpace space;
  for (const auto& [name, candidates] : dims) {
    WT_CHECK(space.AddDimension(name, candidates).ok());
  }
  return space;
}

DesignSpace NetworkSpace() {
  return Space({{"network_gbps", {1, 10, 40}},
                {"placement", {"random", "round_robin"}}});
}

TEST(PrunerTest, PaperNetworkExample) {
  // §4.2: failing at 10 Gb implies failing at 1 Gb, other dims equal.
  PointPruner pruner(NetworkSpace(),
                     {{"network_gbps", MonotoneDirection::kHigherIsBetter}});
  pruner.RecordFailure(P(10, "random"));
  EXPECT_TRUE(pruner.IsDominated(P(1, "random")));
  EXPECT_TRUE(pruner.IsDominated(P(10, "random")));  // equal = dominated
  EXPECT_FALSE(pruner.IsDominated(P(40, "random")));
  // Different non-hinted dim: no conclusion.
  EXPECT_FALSE(pruner.IsDominated(P(1, "round_robin")));
}

TEST(PrunerTest, LowerIsBetterDirection) {
  PointPruner pruner(Space({{"background_load", {50, 100, 200}}}),
                     {{"background_load", MonotoneDirection::kLowerIsBetter}});
  pruner.RecordFailure(
      DesignPoint({{"background_load", Value(100)}}));
  EXPECT_TRUE(pruner.IsDominated(DesignPoint({{"background_load", Value(200)}})));
  EXPECT_FALSE(pruner.IsDominated(DesignPoint({{"background_load", Value(50)}})));
}

TEST(PrunerTest, OrderBestFirstRunsDominatorsEarly) {
  PointPruner pruner(
      Space({{"network_gbps", {1, 40, 10}}, {"placement", {"a"}}}),
      {{"network_gbps", MonotoneDirection::kHigherIsBetter}});
  auto ordered = pruner.Ordered();
  EXPECT_EQ(ordered[0].GetInt("network_gbps", 0), 40);
  EXPECT_EQ(ordered[2].GetInt("network_gbps", 0), 1);
}

TEST(PrunerTest, NoHintsMeansNoPruning) {
  PointPruner pruner(NetworkSpace(), {});
  pruner.RecordFailure(P(10, "random"));
  // With no hints, only an identical point is "dominated".
  EXPECT_TRUE(pruner.IsDominated(P(10, "random")));
  EXPECT_FALSE(pruner.IsDominated(P(1, "random")));
}

TEST(PrunerTest, MultiDimensionalDominance) {
  PointPruner pruner(
      Space({{"network_gbps", {1, 10}}, {"memory_gb", {32, 64, 128}}}),
      {{"network_gbps", MonotoneDirection::kHigherIsBetter},
       {"memory_gb", MonotoneDirection::kHigherIsBetter}});
  pruner.RecordFailure(DesignPoint(
      {{"network_gbps", Value(10)}, {"memory_gb", Value(64)}}));
  // Worse on both: dominated.
  EXPECT_TRUE(pruner.IsDominated(
      DesignPoint({{"network_gbps", Value(1)}, {"memory_gb", Value(32)}})));
  // Better on one axis: not dominated.
  EXPECT_FALSE(pruner.IsDominated(
      DesignPoint({{"network_gbps", Value(1)}, {"memory_gb", Value(128)}})));
}

// ------------------------------------------------------------ EarlyAbort

TEST(EarlyAbortTest, PassesEarlyWhenClearlyAbove) {
  BernoulliAbortMonitor monitor(0.5, SlaOp::kAtLeast, 0.95, 30);
  for (int i = 0; i < 100; ++i) monitor.Record(true);
  EXPECT_EQ(monitor.Decide(), AbortDecision::kPassEarly);
  EXPECT_DOUBLE_EQ(monitor.estimate(), 1.0);
}

TEST(EarlyAbortTest, FailsEarlyWhenClearlyBelow) {
  BernoulliAbortMonitor monitor(0.9, SlaOp::kAtLeast, 0.95, 30);
  for (int i = 0; i < 100; ++i) monitor.Record(i % 2 == 0);  // ~0.5
  EXPECT_EQ(monitor.Decide(), AbortDecision::kFailEarly);
}

TEST(EarlyAbortTest, ContinuesWhileAmbiguous) {
  BernoulliAbortMonitor monitor(0.5, SlaOp::kAtLeast, 0.99, 30);
  for (int i = 0; i < 40; ++i) monitor.Record(i % 2 == 0);
  EXPECT_EQ(monitor.Decide(), AbortDecision::kContinue);
}

TEST(EarlyAbortTest, RespectsMinTrials) {
  BernoulliAbortMonitor monitor(0.5, SlaOp::kAtLeast, 0.95, 50);
  for (int i = 0; i < 49; ++i) monitor.Record(true);
  EXPECT_EQ(monitor.Decide(), AbortDecision::kContinue);
  monitor.Record(true);
  EXPECT_EQ(monitor.Decide(), AbortDecision::kPassEarly);
}

TEST(EarlyAbortTest, AgreeingTrialsNeverFailAnEndpointSla) {
  // p >= 1 after only successes and p <= 0 after only failures are never
  // disproved: the Wilson interval's matching end is exactly 1 or 0.
  for (bool success : {true, false}) {
    BernoulliAbortMonitor monitor(success ? 1.0 : 0.0,
                                  success ? SlaOp::kAtLeast : SlaOp::kAtMost,
                                  0.95, 30);
    for (int i = 1; i <= 500; ++i) {
      monitor.Record(success);
      ASSERT_EQ(monitor.Decide(), AbortDecision::kContinue)
          << (success ? "successes" : "failures") << ", trial " << i;
    }
  }
}

TEST(EarlyAbortTest, AtMostDirectionFlips) {
  // SLA: unavailability probability <= 0.1.
  BernoulliAbortMonitor monitor(0.1, SlaOp::kAtMost, 0.95, 30);
  for (int i = 0; i < 200; ++i) monitor.Record(i % 2 == 0);  // ~0.5 >> 0.1
  EXPECT_EQ(monitor.Decide(), AbortDecision::kFailEarly);

  BernoulliAbortMonitor ok(0.5, SlaOp::kAtMost, 0.95, 30);
  for (int i = 0; i < 200; ++i) ok.Record(i % 10 == 0);  // ~0.1 << 0.5
  EXPECT_EQ(ok.Decide(), AbortDecision::kPassEarly);
}

}  // namespace
}  // namespace wt
