// Tests for the sweep orchestrator and the WindTunnel facade.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>

#include "wt/core/orchestrator.h"
#include "wt/core/wind_tunnel.h"

namespace wt {
namespace {

// Analytic stand-in for a simulation: "latency" improves with bandwidth,
// "cost" grows with bandwidth.
RunFn ToyModel() {
  return [](const DesignPoint& p, RngStream&) -> Result<MetricMap> {
    double gbps = p.GetDouble("network_gbps", 1.0);
    MetricMap m;
    m["latency_ms"] = 100.0 / gbps;
    m["cost"] = 10.0 * gbps;
    return m;
  };
}

DesignSpace GbpsSpace() {
  DesignSpace space;
  WT_CHECK(space.AddDimension("network_gbps",
                              {Value(1), Value(10), Value(40)}).ok());
  return space;
}

TEST(OrchestratorTest, SweepEvaluatesConstraints) {
  RunOrchestrator orch(SweepOptions{});
  std::vector<SlaConstraint> slas = {
      {"latency_ms", SlaOp::kAtMost, 15.0}};  // needs >= 10 Gbps
  auto records = orch.Sweep(GbpsSpace(), ToyModel(), slas, {});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  int satisfied = 0;
  for (const RunRecord& r : *records) {
    if (r.sla_satisfied) ++satisfied;
  }
  EXPECT_EQ(satisfied, 2);  // 10 and 40 Gbps
}

TEST(OrchestratorTest, PruningSkipsDominatedConfigs) {
  // Unsatisfiable SLA: best config (40 Gbps) runs first and fails, pruning
  // everything else.
  SweepOptions opts;
  opts.num_workers = 1;
  RunOrchestrator orch(opts);
  std::vector<SlaConstraint> slas = {{"latency_ms", SlaOp::kAtMost, 0.1}};
  std::vector<MonotoneHint> hints = {
      {"network_gbps", MonotoneDirection::kHigherIsBetter}};
  auto records = orch.Sweep(GbpsSpace(), ToyModel(), slas, hints);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(orch.last_stats().executed, 1u);
  EXPECT_EQ(orch.last_stats().pruned, 2u);
  // The executed one is the best config.
  EXPECT_EQ((*records)[0].point.GetInt("network_gbps", 0), 40);
  EXPECT_EQ((*records)[1].status, RunStatus::kPruned);
}

TEST(OrchestratorTest, PruningDisabledRunsEverything) {
  SweepOptions opts;
  opts.enable_pruning = false;
  RunOrchestrator orch(opts);
  std::vector<SlaConstraint> slas = {{"latency_ms", SlaOp::kAtMost, 0.1}};
  std::vector<MonotoneHint> hints = {
      {"network_gbps", MonotoneDirection::kHigherIsBetter}};
  auto records = orch.Sweep(GbpsSpace(), ToyModel(), slas, hints);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(orch.last_stats().executed, 3u);
  EXPECT_EQ(orch.last_stats().pruned, 0u);
}

TEST(OrchestratorTest, ParallelSweepCompletesAll) {
  SweepOptions opts;
  opts.num_workers = 4;
  opts.enable_pruning = false;
  RunOrchestrator orch(opts);
  DesignSpace space;
  std::vector<Value> vals;
  for (int i = 1; i <= 32; ++i) vals.emplace_back(i);
  ASSERT_TRUE(space.AddDimension("x", vals).ok());
  std::atomic<int> calls{0};
  RunFn fn = [&calls](const DesignPoint& p, RngStream&) -> Result<MetricMap> {
    calls.fetch_add(1);
    return MetricMap{{"y", p.GetDouble("x", 0) * 2}};
  };
  auto records = orch.Sweep(space, fn, {}, {});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(calls.load(), 32);
  for (const RunRecord& r : *records) {
    EXPECT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_DOUBLE_EQ(r.metrics.at("y"),
                     r.point.GetDouble("x", 0) * 2);
  }
}

TEST(OrchestratorTest, RunErrorsAreRecordedNotFatal) {
  RunOrchestrator orch(SweepOptions{});
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("x", {Value(1), Value(2)}).ok());
  RunFn fn = [](const DesignPoint& p, RngStream&) -> Result<MetricMap> {
    if (p.GetInt("x", 0) == 1) return Status::Internal("sim exploded");
    return MetricMap{{"y", 1.0}};
  };
  auto records = orch.Sweep(space, fn, {}, {});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(orch.last_stats().errors, 1u);
  EXPECT_EQ(orch.last_stats().executed, 1u);
}

TEST(OrchestratorTest, MissingMetricIsAnError) {
  RunOrchestrator orch(SweepOptions{});
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("x", {Value(1)}).ok());
  RunFn fn = [](const DesignPoint&, RngStream&) -> Result<MetricMap> {
    return MetricMap{{"y", 1.0}};
  };
  auto records =
      orch.Sweep(space, fn, {{"nonexistent", SlaOp::kAtLeast, 0.0}}, {});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[0].status, RunStatus::kError);
}

TEST(OrchestratorTest, EmptySpaceIsError) {
  RunOrchestrator orch(SweepOptions{});
  DesignSpace space;
  EXPECT_FALSE(orch.Sweep(space, ToyModel(), {}, {}).ok());
}

TEST(OrchestratorTest, DeterministicRngPerPoint) {
  RunOrchestrator orch(SweepOptions{});
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("x", {Value(1), Value(2)}).ok());
  RunFn fn = [](const DesignPoint&, RngStream& rng) -> Result<MetricMap> {
    return MetricMap{{"draw", static_cast<double>(rng.NextU64() % 1000)}};
  };
  auto a = orch.Sweep(space, fn, {}, {});
  auto b = orch.Sweep(space, fn, {}, {});
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i].metrics.at("draw"), (*b)[i].metrics.at("draw"));
  }
  // Different points draw different randomness.
  EXPECT_NE((*a)[0].metrics.at("draw"), (*a)[1].metrics.at("draw"));
}

TEST(OrchestratorTest, ReplicationsAggregateNoisyMetrics) {
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("x", {Value(1)}).ok());
  // Noisy model: uniform(0, 2) around a mean of 1.
  RunFn fn = [](const DesignPoint&, RngStream& rng) -> Result<MetricMap> {
    return MetricMap{{"y", rng.Uniform(0.0, 2.0)}};
  };

  SweepOptions opts;
  opts.replications = 64;
  RunOrchestrator orch(opts);
  auto records = orch.Sweep(space, fn, {}, {});
  ASSERT_TRUE(records.ok());
  const RunRecord& rec = (*records)[0];
  ASSERT_TRUE(rec.metrics.count("y"));
  ASSERT_TRUE(rec.metrics.count("y_se"));
  // Mean of 64 uniforms concentrates near 1; se ~ 0.577/8 ~ 0.072.
  EXPECT_NEAR(rec.metrics.at("y"), 1.0, 0.3);
  EXPECT_NEAR(rec.metrics.at("y_se"), 0.072, 0.04);
}

TEST(OrchestratorTest, ReplicationsEvaluateSlaOnMeans) {
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("x", {Value(1)}).ok());
  // Alternating 0/2 metric: individual replicates would fail a >= 0.9
  // bound half the time; the mean (~1.0) passes.
  RunFn fn = [](const DesignPoint&, RngStream& rng) -> Result<MetricMap> {
    return MetricMap{{"y", rng.Bernoulli(0.5) ? 2.0 : 0.0}};
  };
  SweepOptions opts;
  opts.replications = 200;
  RunOrchestrator orch(opts);
  auto records =
      orch.Sweep(space, fn, {{"y", SlaOp::kAtLeast, 0.9}}, {});
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE((*records)[0].sla_satisfied);
}

TEST(OrchestratorTest, SingleReplicationHasNoSeColumns) {
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("x", {Value(1)}).ok());
  RunFn fn = [](const DesignPoint&, RngStream&) -> Result<MetricMap> {
    return MetricMap{{"y", 1.0}};
  };
  RunOrchestrator orch(SweepOptions{});
  auto records = orch.Sweep(space, fn, {}, {});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[0].metrics.count("y_se"), 0u);
}

// Full record equality, bitwise on metric doubles: the determinism
// guarantee is byte-identical output, not approximate agreement.
void ExpectRecordsIdentical(const std::vector<RunRecord>& a,
                            const std::vector<RunRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].run_id, b[i].run_id);
    EXPECT_EQ(a[i].point.ToString(), b[i].point.ToString());
    EXPECT_EQ(a[i].status, b[i].status);
    EXPECT_EQ(a[i].sla_satisfied, b[i].sla_satisfied);
    EXPECT_EQ(a[i].error, b[i].error);
    ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
    for (const auto& [name, value] : a[i].metrics) {
      ASSERT_TRUE(b[i].metrics.count(name)) << name;
      EXPECT_EQ(value, b[i].metrics.at(name)) << name;  // bitwise
    }
    ASSERT_EQ(a[i].sla_outcomes.size(), b[i].sla_outcomes.size());
    for (size_t j = 0; j < a[i].sla_outcomes.size(); ++j) {
      EXPECT_EQ(a[i].sla_outcomes[j].satisfied, b[i].sla_outcomes[j].satisfied);
    }
  }
}

// A 4x4 grid with RNG noise and an SLA that splits the grid: some points
// pass, some fail and prune their dominated cone across several wavefronts.
TEST(OrchestratorTest, PrunedSweepIsWorkerCountInvariant) {
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension(
                       "nic_gbps", {Value(1), Value(10), Value(25), Value(40)})
                  .ok());
  ASSERT_TRUE(space.AddDimension(
                       "memory_gb", {Value(16), Value(32), Value(64), Value(128)})
                  .ok());
  RunFn fn = [](const DesignPoint& p, RngStream& rng) -> Result<MetricMap> {
    double nic = p.GetDouble("nic_gbps", 1);
    double mem = p.GetDouble("memory_gb", 16);
    MetricMap m;
    m["latency_ms"] = 400.0 / nic + 2000.0 / mem + rng.Uniform(0.0, 5.0);
    return m;
  };
  std::vector<SlaConstraint> slas = {{"latency_ms", SlaOp::kAtMost, 100.0}};
  std::vector<MonotoneHint> hints = {
      {"nic_gbps", MonotoneDirection::kHigherIsBetter},
      {"memory_gb", MonotoneDirection::kHigherIsBetter}};

  std::vector<RunRecord> baseline;
  SweepStats baseline_stats;
  for (int workers : {1, 2, 8}) {
    SweepOptions opts;
    opts.num_workers = workers;
    opts.seed = 42;
    RunOrchestrator orch(opts);
    auto records = orch.Sweep(space, fn, slas, hints);
    ASSERT_TRUE(records.ok()) << "workers=" << workers;
    if (workers == 1) {
      baseline = *records;
      baseline_stats = orch.last_stats();
      // The SLA threshold must actually split the grid for this test to
      // exercise pruning: expect both executed and pruned runs.
      EXPECT_GT(baseline_stats.pruned, 0u);
      EXPECT_GT(baseline_stats.executed, 0u);
      EXPECT_GT(baseline_stats.wavefronts, 1u);
    } else {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      ExpectRecordsIdentical(baseline, *records);
      EXPECT_EQ(orch.last_stats().executed, baseline_stats.executed);
      EXPECT_EQ(orch.last_stats().pruned, baseline_stats.pruned);
      EXPECT_EQ(orch.last_stats().wavefronts, baseline_stats.wavefronts);
    }
  }
}

// Replicated runs must also be invariant: substreams derive from
// (seed, run_id, replicate), never from scheduling order.
// A model whose replicates fail on low draws, with the draw in the error
// text: which replicate failed first is visible in the record.
constexpr double kFailBelow = 0.2;

std::string DrawError(double u) { return "draw " + std::to_string(u); }

// Replicated sweep with failing replicates through the pooled path (the
// clamp is off, so workers 2 and 8 get real pool lanes on any host).
// Records must match the serial sweep byte for byte, and each errored
// record must carry its FIRST failing replicate's message — replicate
// order, not completion order.
TEST(OrchestratorTest, ReplicatedSweepIsWorkerCountInvariant) {
  DesignSpace space;
  std::vector<Value> xs;
  for (int i = 1; i <= 12; ++i) xs.emplace_back(i);
  ASSERT_TRUE(space.AddDimension("x", xs).ok());
  RunFn fn = [](const DesignPoint& p, RngStream& rng) -> Result<MetricMap> {
    const double u = rng.Uniform(0.0, 1.0);
    if (u < kFailBelow) return Status::Internal(DrawError(u));
    return MetricMap{{"y", p.GetDouble("x", 0) + u}};
  };
  constexpr uint64_t kSeed = 7;
  constexpr int kReplications = 4;
  std::vector<RunRecord> baseline;
  for (int workers : {1, 2, 8}) {
    SweepOptions opts;
    opts.num_workers = workers;
    opts.seed = kSeed;
    opts.replications = kReplications;
    opts.clamp_workers_to_hardware = false;
    RunOrchestrator orch(opts);
    auto records = orch.Sweep(space, fn, {{"y", SlaOp::kAtLeast, 4.0}}, {});
    ASSERT_TRUE(records.ok());
    if (workers == 1) {
      baseline = *records;
    } else {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      ExpectRecordsIdentical(baseline, *records);
    }
  }
  // Recompute each point's first failing replicate from its substream.
  int errors = 0;
  int late_first_failures = 0;
  int repeat_failures = 0;
  for (const RunRecord& rec : baseline) {
    std::string expect;
    int failed_reps = 0;
    for (int rep = 0; rep < kReplications; ++rep) {
      RngStream rng = RngStream(kSeed).Substream(rec.run_id, rep);
      const double u = rng.Uniform(0.0, 1.0);
      if (u >= kFailBelow) continue;
      if (++failed_reps == 1) {
        expect = Status::Internal(DrawError(u)).ToString();
        if (rep >= 1) ++late_first_failures;
      }
    }
    EXPECT_EQ(rec.status == RunStatus::kError, failed_reps > 0)
        << "run " << rec.run_id;
    EXPECT_EQ(rec.error, expect) << "run " << rec.run_id;
    if (failed_reps > 0) ++errors;
    if (failed_reps > 1) ++repeat_failures;
  }
  EXPECT_GT(errors, 0);
  // A point whose first failure is at replicate 1 or later can see a later
  // replicate complete before it; a point with two failures tells the
  // first from the last.
  EXPECT_GT(late_first_failures, 0);
  EXPECT_GT(repeat_failures, 0);
}

// The wavefront schedule preserves serial pruning power: on the E6 grid the
// hinted sweep still executes exactly one run per value of the non-hinted
// dimension (the best configuration), everything else pruned.
TEST(OrchestratorTest, WavefrontPruningMatchesSerialSemantics) {
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension(
                       "nic_gbps", {Value(1), Value(10), Value(25), Value(40)})
                  .ok());
  ASSERT_TRUE(space.AddDimension("disk", {Value("hdd"), Value("ssd")}).ok());
  RunFn fn = [](const DesignPoint&, RngStream&) -> Result<MetricMap> {
    return MetricMap{{"latency_ms", 50.0}};
  };
  std::vector<SlaConstraint> slas = {
      {"latency_ms", SlaOp::kAtMost, 1.0}};  // unattainable
  std::vector<MonotoneHint> hints = {
      {"nic_gbps", MonotoneDirection::kHigherIsBetter}};
  for (int workers : {1, 4}) {
    SweepOptions opts;
    opts.num_workers = workers;
    RunOrchestrator orch(opts);
    auto records = orch.Sweep(space, fn, slas, hints);
    ASSERT_TRUE(records.ok());
    EXPECT_EQ(orch.last_stats().executed, 2u) << "workers=" << workers;
    EXPECT_EQ(orch.last_stats().pruned, 6u) << "workers=" << workers;
  }
}

TEST(WindTunnelTest, RunSweepStoresResultTable) {
  WindTunnel tunnel;
  ASSERT_TRUE(tunnel.RegisterSimulation("toy", ToyModel()).ok());
  EXPECT_TRUE(tunnel.HasSimulation("toy"));
  EXPECT_FALSE(tunnel.HasSimulation("other"));

  auto records = tunnel.RunSweep("sweep1", GbpsSpace(), "toy",
                                 {{"latency_ms", SlaOp::kAtMost, 15.0}});
  ASSERT_TRUE(records.ok());
  auto table = tunnel.store().GetTableConst("sweep1");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 3u);
  EXPECT_TRUE((*table)->schema().Has("network_gbps"));
  EXPECT_TRUE((*table)->schema().Has("latency_ms"));
  EXPECT_TRUE((*table)->schema().Has("cost"));
  EXPECT_TRUE((*table)->schema().Has("sla_ok"));
  EXPECT_TRUE((*table)->schema().Has("status"));
}

TEST(WindTunnelTest, DuplicateRegistrationFails) {
  WindTunnel tunnel;
  ASSERT_TRUE(tunnel.RegisterSimulation("toy", ToyModel()).ok());
  EXPECT_FALSE(tunnel.RegisterSimulation("toy", ToyModel()).ok());
  EXPECT_FALSE(tunnel.RegisterSimulation("null", nullptr).ok());
  EXPECT_FALSE(tunnel.GetSimulation("missing").ok());
}

TEST(WindTunnelTest, DuplicateSweepNameFails) {
  WindTunnel tunnel;
  ASSERT_TRUE(tunnel.RegisterSimulation("toy", ToyModel()).ok());
  ASSERT_TRUE(tunnel.RunSweep("s", GbpsSpace(), "toy").ok());
  EXPECT_FALSE(tunnel.RunSweep("s", GbpsSpace(), "toy").ok());
}

TEST(WindTunnelTest, ModelDeclarations) {
  WindTunnel tunnel;
  ASSERT_TRUE(tunnel.DeclareModel({"a", {}, {"x"}}).ok());
  ASSERT_TRUE(tunnel.DeclareModel({"b", {"x"}, {}}).ok());
  EXPECT_FALSE(tunnel.interactions().Independent("a", "b").value());
}

}  // namespace
}  // namespace wt
