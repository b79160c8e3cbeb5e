// Determinism-fingerprint regression for orchestrator sweeps over the DES
// kernel.
//
// The guarantee under test is twofold:
//  * worker-count invariance (PR 1): a sweep's RunRecords are byte-identical
//    for any num_workers;
//  * kernel-change invariance (this PR): rebuilding the event-queue hot path
//    (slot pool, generation handles, 4-ary indexed heap, InlineFn) must not
//    perturb a single bit of sweep output. The golden fingerprints below
//    were captured from the seed implementation (shared_ptr cancellation +
//    binary std::priority_queue) before the rewrite; the new queue preserves
//    the exact (time, priority, seq) total order, so they must still match.
//
// The sweep exercises the full dynamic-availability stack — failure
// processes, network flows, repair manager, event cancellation — i.e. every
// event-queue code path that matters, not a toy model.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "wt/core/orchestrator.h"
#include "wt/core/wind_tunnel.h"
#include "wt/query/builtin_sims.h"
#include "wt/query/executor.h"
#include "wt/scenario/scenario.h"
#include "wt/sim/random.h"
#include "wt/soft/availability_dynamic.h"

namespace wt {
namespace {

// Folds one double into the hash bitwise: the determinism claim is
// bit-identity, not approximate agreement.
void HashDouble(std::string& buf, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(bits));
  buf += hex;
}

std::string FingerprintRecords(const std::vector<RunRecord>& records) {
  std::string buf;
  for (const RunRecord& r : records) {
    buf += std::to_string(r.run_id);
    buf += '|';
    buf += r.point.ToString();
    buf += '|';
    buf += RunStatusToString(r.status);
    buf += '|';
    buf += r.sla_satisfied ? '1' : '0';
    buf += '|';
    buf += r.error;
    for (const auto& [name, value] : r.metrics) {
      buf += name;
      buf += '=';
      HashDouble(buf, value);
      buf += ';';
    }
    buf += '\n';
  }
  char out[20];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(buf)));
  return out;
}

// A small but fully dynamic sweep: 3 repair-parallelism levels x 2
// redundancy schemes, each point a half-year of simulated failures,
// hardware replacement, network repair traffic, and flow cancellation.
RunFn DynamicAvailabilityModel() {
  return [](const DesignPoint& p, RngStream& rng) -> Result<MetricMap> {
    DynamicAvailabilityConfig cfg;
    cfg.datacenter.num_racks = 3;
    cfg.datacenter.nodes_per_rack = 4;
    cfg.storage.num_nodes = cfg.datacenter.num_nodes();
    cfg.storage.num_users = 300;
    cfg.storage.object_size_gb = 2.0;
    cfg.redundancy =
        p.GetInt("replicas", 3) == 2 ? "replication(2)" : "replication(3)";
    cfg.repair.max_concurrent = static_cast<int>(p.GetInt("repair_par", 1));
    cfg.node_ttf = MakeTtfFromAfr(0.30, 1.2);  // Weibull wear-out, busy sim
    cfg.sim_years = 0.5;
    cfg.seed = rng.NextU64();
    WT_ASSIGN_OR_RETURN(AvailabilityMetrics m, RunDynamicAvailability(cfg));
    MetricMap out;
    out["unavail_frac"] = m.mean_unavailable_fraction;
    out["unavail_events"] = static_cast<double>(m.unavailability_events);
    out["object_hours"] = m.unavailable_object_hours;
    out["lost"] = static_cast<double>(m.objects_lost);
    out["node_failures"] = static_cast<double>(m.node_failures);
    out["repairs"] = static_cast<double>(m.repairs_completed);
    out["repair_bytes"] = m.repair_bytes;
    out["repair_latency_h"] = m.repair_latency_hours.mean();
    return out;
  };
}

DesignSpace RepairSpace() {
  DesignSpace space;
  WT_CHECK(space.AddDimension("repair_par", {Value(1), Value(2), Value(4)})
               .ok());
  WT_CHECK(space.AddDimension("replicas", {Value(2), Value(3)}).ok());
  return space;
}

// Golden fingerprints captured from the seed event queue (commit 46c5053,
// GCC 12 / x86-64 RelWithDebInfo; stable under clang and sanitizer builds
// on the reference container). One per seed; all worker counts must agree.
constexpr const char* kGoldenSeed1 = "9896bb1db93c1221";
constexpr const char* kGoldenSeed9 = "1bb1cf36b3070dde";

class SweepFingerprintTest : public ::testing::TestWithParam<int> {};

TEST(SweepFingerprintTest, ByteIdenticalAcrossWorkersAndKernelChanges) {
  struct Case {
    uint64_t seed;
    const char* golden;
  };
  for (const Case& c : {Case{1, kGoldenSeed1}, Case{9, kGoldenSeed9}}) {
    std::string first;
    for (int workers : {1, 2, 8}) {
      SweepOptions opts;
      opts.num_workers = workers;
      opts.seed = c.seed;
      opts.enable_pruning = false;
      RunOrchestrator orch(opts);
      auto records = orch.Sweep(RepairSpace(), DynamicAvailabilityModel(),
                                {{"unavail_frac", SlaOp::kAtMost, 0.5}}, {});
      ASSERT_TRUE(records.ok()) << records.status().ToString();
      std::string fp = FingerprintRecords(*records);
      if (workers == 1) {
        first = fp;
      } else {
        EXPECT_EQ(fp, first) << "seed=" << c.seed << " workers=" << workers;
      }
      EXPECT_EQ(fp, c.golden) << "seed=" << c.seed << " workers=" << workers
                              << " (sweep output changed vs the seed kernel "
                                 "— the DES hot path is no longer "
                                 "byte-compatible)";
    }
  }
}

// Oversubscription must not leak into output bytes: with the hardware
// clamp disabled, worker counts beyond the machine's threads (16 here)
// force a real oversubscribed pool, and the records must still match the
// same goldens. The clamp itself is scheduling-only, so clamped and
// unclamped runs are byte-identical by construction — this pins it.
TEST(SweepFingerprintTest, OversubscribedUnclampedWorkersMatchGoldens) {
  for (int workers : {2, 8, 16}) {
    SweepOptions opts;
    opts.num_workers = workers;
    opts.clamp_workers_to_hardware = false;
    opts.seed = 1;
    opts.enable_pruning = false;
    RunOrchestrator orch(opts);
    auto records = orch.Sweep(RepairSpace(), DynamicAvailabilityModel(),
                              {{"unavail_frac", SlaOp::kAtMost, 0.5}}, {});
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    EXPECT_EQ(FingerprintRecords(*records), kGoldenSeed1)
        << "oversubscribed workers=" << workers;
  }
}

// Replicate-level parallelism (replications > 1 splits every design point
// into independent (point, replicate) tasks) must reproduce the serial
// reduce bit-for-bit: metrics aggregate in replicate order per point, so
// the mean/_se arithmetic sees the exact same operand sequence no matter
// which thread ran which replicate.
constexpr const char* kGoldenSeed5Reps8 = "04a9bb0fb049a789";

TEST(SweepFingerprintTest, ReplicateHeavySweepIsByteIdenticalAcrossWorkers) {
  std::string first;
  for (int workers : {1, 2, 8}) {
    SweepOptions opts;
    opts.num_workers = workers;
    // Force the pool path even on small hosts: the point is to race the
    // replicate tasks for real, not to pass vacuously via the clamp.
    opts.clamp_workers_to_hardware = false;
    opts.seed = 5;
    opts.enable_pruning = false;
    opts.replications = 8;
    RunOrchestrator orch(opts);
    auto records = orch.Sweep(RepairSpace(), DynamicAvailabilityModel(),
                              {{"unavail_frac", SlaOp::kAtMost, 0.5}}, {});
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    std::string fp = FingerprintRecords(*records);
    if (workers == 1) {
      first = fp;
    } else {
      EXPECT_EQ(fp, first) << "replicated sweep diverged at workers="
                           << workers;
    }
    EXPECT_EQ(fp, kGoldenSeed5Reps8) << "workers=" << workers;
  }
}

// A large sweep with both hints and a WHERE clause, so the wavefront
// schedule, best-first order and pruned set all shape the records. It has
// the shape of benchsuite/sweep_fine.json: 16 node counts x replication 1-5
// x failures 0-7 x 2 placements = 1,280 static-availability points, hinted
// higher-is-better on replication and lower-is-better on failures, pruned
// under p_any_unavailable <= 0.2. The golden was captured from the
// all-pairs wavefront build and the point-walking pruner (commit 45388f8,
// GCC 12 / x86-64 Release) before both were replaced by the bucketed
// DominanceIndex.
constexpr const char* kGoldenPrunedGrid = "0002632f35db21df";

TEST(SweepFingerprintTest, LargePrunedSweepMatchesAllPairsSchedule) {
  std::vector<Value> nodes;
  for (int n = 10; n <= 40; n += 2) nodes.emplace_back(n);
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("nodes", nodes).ok());
  ASSERT_TRUE(space.AddDimension("replication", {1, 2, 3, 4, 5}).ok());
  ASSERT_TRUE(
      space.AddDimension("failures", {0, 1, 2, 3, 4, 5, 6, 7}).ok());
  ASSERT_TRUE(
      space.AddDimension("placement", {"random", "round_robin"}).ok());
  ASSERT_TRUE(space.AddDimension("placement_samples", {2}).ok());
  ASSERT_TRUE(space.AddDimension("trials", {20}).ok());
  ASSERT_TRUE(space.AddDimension("users", {200}).ok());
  ASSERT_EQ(space.size(), 1280u);
  const std::vector<SlaConstraint> where = {
      {"p_any_unavailable", SlaOp::kAtMost, 0.2}};
  const std::vector<MonotoneHint> hints = {
      {"replication", MonotoneDirection::kHigherIsBetter},
      {"failures", MonotoneDirection::kLowerIsBetter}};
  for (int workers : {1, 8}) {
    SweepOptions opts;
    opts.num_workers = workers;
    opts.clamp_workers_to_hardware = false;
    opts.seed = 2014;
    RunOrchestrator orch(opts);
    auto records =
        orch.Sweep(space, MakeStaticAvailabilitySim(), where, hints);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    EXPECT_EQ(FingerprintRecords(*records), kGoldenPrunedGrid)
        << "workers=" << workers;
    EXPECT_EQ(orch.last_stats().executed, 422u);
    EXPECT_EQ(orch.last_stats().pruned, 858u);
    EXPECT_EQ(orch.last_stats().wavefronts, 12u);
  }
}

// The paper's Figure 1: all 72 static Monte-Carlo points of the committed
// scenarios/fig1_unavailability.json at its own seed, swept through a
// WindTunnel like `wtq --scenario`. The golden was captured from the
// per-user scan estimator (one StorageService per placement sample,
// CountUnavailable per hit trial) before it was rewritten to collapse
// users into distinct replica sets. The rewrite keeps every RNG draw and
// counts users exactly, so every metric bit must survive it.
constexpr const char* kGoldenFig1Grid = "2416a05ee858c33e";

TEST(SweepFingerprintTest, Fig1GridMatchesPerUserScanEstimator) {
  auto path = scenario::FindScenarioPath("fig1_unavailability");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  auto spec = scenario::LoadScenarioFile(*path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_TRUE(spec->has_seed);
  auto space = BuildQuerySpace(spec->query);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  for (int workers : {1, 8}) {
    WindTunnelOptions options;
    options.num_workers = workers;
    options.seed = spec->seed;
    WindTunnel tunnel(options);
    ASSERT_TRUE(RegisterBuiltinSimulations(&tunnel).ok());
    auto records = tunnel.RunSweep("fig1", *space, spec->query.simulation,
                                   spec->query.constraints,
                                   spec->query.hints,
                                   spec->query.scenario_hash);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_EQ(records->size(), 72u);
    EXPECT_EQ(FingerprintRecords(*records), kGoldenFig1Grid)
        << "workers=" << workers;
  }
}

// The queueing-network simulation (RunPerfSim) behind the "performance"
// and "provisioning" simulations. Each golden hashes every metric of every
// RunRecord, not only the rows that satisfy a WHERE clause, and was
// captured from the ResourceQueue that kept waiting jobs in a std::deque
// and scheduled a completion lambda carrying each job's callback, and the
// perf_sim that built per-request replica vectors and shared join
// counters (commit 6072f3b, GCC 12 / x86-64 RelWithDebInfo), before that
// request path was made allocation-free.
constexpr const char* kGoldenE9Grid = "a8c7834dd90eb6f9";
constexpr const char* kGoldenE4Grid = "2af6aeb04dc60ca4";
constexpr const char* kGoldenPerfOutage = "bf03f251e6a08cc9";

// Sweeps `space` with the hardware clamp off at workers 1 and 8, so the
// pool path runs even on a small host, and checks both against `golden`.
void ExpectSweepFingerprint(const DesignSpace& space, const RunFn& fn,
                            const std::vector<SlaConstraint>& where,
                            const std::vector<MonotoneHint>& hints,
                            uint64_t seed, const char* golden,
                            std::vector<RunRecord>* last = nullptr) {
  for (int workers : {1, 8}) {
    SweepOptions opts;
    opts.num_workers = workers;
    opts.clamp_workers_to_hardware = false;
    opts.seed = seed;
    RunOrchestrator orch(opts);
    auto records = orch.Sweep(space, fn, where, hints);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    for (const RunRecord& r : *records) {
      EXPECT_EQ(r.status, RunStatus::kCompleted) << r.error;
    }
    EXPECT_EQ(FingerprintRecords(*records), golden) << "workers=" << workers;
    if (last != nullptr) *last = std::move(*records);
  }
}

// A committed scenario's grid at its pinned seed (1 when it pins none),
// as `wtq --scenario` sweeps it.
void ExpectScenarioFingerprint(const std::string& name, const RunFn& fn,
                               size_t points, const char* golden) {
  auto path = scenario::FindScenarioPath(name);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  auto spec = scenario::LoadScenarioFile(*path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto space = BuildQuerySpace(spec->query);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  ASSERT_EQ(space->size(), points);
  ExpectSweepFingerprint(*space, fn, spec->query.constraints,
                         spec->query.hints, spec->has_seed ? spec->seed : 1,
                         golden);
}

TEST(SweepFingerprintTest, E9LimpwareGridMatchesParentRequestPath) {
  ExpectScenarioFingerprint("e9_limpware", MakePerformanceSim(), 4,
                            kGoldenE9Grid);
}

TEST(SweepFingerprintTest, E4ProvisioningGridMatchesParentRequestPath) {
  ExpectScenarioFingerprint("e4_provisioning", MakeProvisioningSim(), 10,
                            kGoldenE4Grid);
}

// Half the requests are writes, so most fan out to every live replica; a
// colocated secondary workload shares the queues; node 1 is down from 10 s
// to 40 s while repair jobs land on the survivors' disks; and a limping
// NIC on node 2 slows jobs dispatched after 20 s. At replication 1 the
// outage leaves some keys with no live replica, so requests fail.
TEST(SweepFingerprintTest, PerfOutageSweepMatchesParentRequestPath) {
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("replication", {1, 3}).ok());
  ASSERT_TRUE(space.AddDimension("limp_nic_node", {-1, 2}).ok());
  ASSERT_TRUE(space.AddDimension("duration_s", {60.0}).ok());
  ASSERT_TRUE(space.AddDimension("warmup_s", {5.0}).ok());
  ASSERT_TRUE(space.AddDimension("rate", {300.0}).ok());
  ASSERT_TRUE(space.AddDimension("read_fraction", {0.5}).ok());
  ASSERT_TRUE(space.AddDimension("colocated_rate", {150.0}).ok());
  ASSERT_TRUE(space.AddDimension("outage_at_s", {10.0}).ok());
  ASSERT_TRUE(space.AddDimension("outage_node", {1}).ok());
  ASSERT_TRUE(space.AddDimension("outage_s", {30.0}).ok());
  ASSERT_TRUE(space.AddDimension("repair_jobs_per_s", {40.0}).ok());
  ASSERT_TRUE(space.AddDimension("limp_at_s", {20.0}).ok());
  ASSERT_TRUE(space.AddDimension("limp_factor", {0.2}).ok());
  std::vector<RunRecord> records;
  ExpectSweepFingerprint(space, MakePerformanceSim(), {}, {}, 77,
                         kGoldenPerfOutage, &records);
  ASSERT_EQ(records.size(), 4u);
  for (const RunRecord& r : records) {
    const double failed = r.metrics.at("failed_requests");
    if (r.point.GetInt("replication", 0) == 1) {
      EXPECT_GT(failed, 0.0) << r.point.ToString();
    } else {
      EXPECT_EQ(failed, 0.0) << r.point.ToString();
    }
  }
}

}  // namespace
}  // namespace wt
