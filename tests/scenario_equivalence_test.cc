// Determinism contract of the scenario loader (DESIGN.md §9): compiling
// a committed scenario file must produce a sweep whose RunRecords are
// BYTE-IDENTICAL to the hand-built inline setup it replaced — at 1 worker,
// at 8 workers, and under replications — and identical to what the DSL
// front end produces for the same experiment. If any of these fingerprints
// drift, a scenario file no longer means what the C++ setup it replaced
// meant, and every committed corpus result is silently invalidated.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "wt/core/orchestrator.h"
#include "wt/core/wind_tunnel.h"
#include "wt/obs/manifest.h"
#include "wt/query/builtin_sims.h"
#include "wt/query/executor.h"
#include "wt/query/parser.h"
#include "wt/scenario/scenario.h"

namespace wt {
namespace {

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
    for (const auto& [name, value] : r.metrics) {
      buf += name;
      buf += '=';
      HashDouble(buf, value);
      buf += ';';
    }
    buf += '\n';
  }
  return buf;
}

// Sweeps `spec` through a fresh tunnel and fingerprints the records.
std::string SweepFingerprint(const QuerySpec& spec, uint64_t seed,
                             int workers, int replications = 1) {
  WindTunnelOptions options;
  options.num_workers = workers;
  options.seed = seed;
  options.replications = replications;
  WindTunnel tunnel(options);
  WT_CHECK(RegisterBuiltinSimulations(&tunnel).ok());
  auto space = BuildQuerySpace(spec);
  WT_CHECK(space.ok()) << space.status().ToString();
  auto records =
      tunnel.RunSweep("fp", *space, spec.simulation, spec.constraints,
                      spec.hints, spec.scenario_hash);
  WT_CHECK(records.ok()) << records.status().ToString();
  return FingerprintRecords(*records);
}

Result<scenario::ScenarioSpec> LoadCorpus(
    const std::string& name, const std::vector<std::string>& ablations = {}) {
  WT_ASSIGN_OR_RETURN(std::string path, scenario::FindScenarioPath(name));
  return scenario::LoadScenarioFile(path, ablations);
}

// The inline setup bench_e2_replication_tradeoff had before scenario files,
// expressed as the QuerySpec its hand-coded loops amounted to. This block
// is deliberately NOT derived from the scenario machinery: it is the
// ground truth the JSON file must reproduce.
QuerySpec HandBuiltE2() {
  QuerySpec s;
  s.simulation = "availability";
  s.dimensions.push_back({"replication", {Value(3), Value(2)}});
  s.dimensions.push_back({"nic_gbps", {Value(1.0), Value(10.0)}});
  s.dimensions.push_back({"repair_parallel", {Value(1), Value(8)}});
  s.params["nodes"] = Value(12);
  s.params["racks"] = Value(1);
  s.params["node_afr"] = Value(0.3);
  s.params["ttf_shape"] = Value(0.8);
  s.params["replace_model"] = Value("lognormal");
  s.params["replace_hours"] = Value(24.0);
  s.params["replace_sd_hours"] = Value(12.0);
  s.params["placement"] = Value("random");
  s.params["users"] = Value(2000);
  s.params["object_gb"] = Value(20.0);
  s.params["years"] = Value(2.0);
  return s;
}

// bench_e9_limpware's inline setup, under the short_run ablation
// (duration 60 s / warmup 5 s) to keep the test fast.
QuerySpec HandBuiltE9Short() {
  QuerySpec s;
  s.simulation = "performance";
  s.dimensions.push_back(
      {"limp_factor", {Value(1.0), Value(0.5), Value(0.1), Value(0.01)}});
  s.params["nodes"] = Value(4);
  s.params["cores"] = Value(8);
  s.params["disks"] = Value(2);
  s.params["nic_gbps"] = Value(1.0);
  s.params["limp_nic_node"] = Value(0);
  s.params["limp_at_s"] = Value(0.0);
  s.params["replication"] = Value(3);
  s.params["rate"] = Value(400.0);
  s.params["read_fraction"] = Value(0.95);
  s.params["zipf"] = Value(0.6);
  s.params["request_kb"] = Value(256.0);
  s.params["disk_ms"] = Value(2.0);
  s.params["cpu_ms"] = Value(0.5);
  s.params["duration_s"] = Value(60.0);
  s.params["warmup_s"] = Value(5.0);
  return s;
}

// bench_fig1_unavailability's inline setup, narrowed by the two corpus
// ablations (N=10, round_robin only) — 9 Monte-Carlo points.
QuerySpec HandBuiltFig1Small() {
  QuerySpec s;
  s.simulation = "static_availability";
  s.dimensions.push_back({"nodes", {Value(10)}});
  s.dimensions.push_back({"replication", {Value(3), Value(5)}});
  s.dimensions.push_back({"placement", {Value("round_robin")}});
  std::vector<Value> failures;
  for (int f = 0; f <= 8; ++f) failures.emplace_back(f);
  s.dimensions.push_back({"failures", failures});
  s.params["placement_samples"] = Value(10);
  s.params["users"] = Value(10000);
  s.params["trials"] = Value(100);
  return s;
}

TEST(ScenarioEquivalence, E2MatchesHandBuiltAtWorkers1And8) {
  auto spec = LoadCorpus("e2_replication_tradeoff");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_TRUE(spec->has_seed);
  const QuerySpec hand = HandBuiltE2();
  const std::string golden = SweepFingerprint(hand, spec->seed, 1);
  EXPECT_EQ(SweepFingerprint(spec->query, spec->seed, 1), golden);
  EXPECT_EQ(SweepFingerprint(spec->query, spec->seed, 8), golden);
  EXPECT_EQ(SweepFingerprint(hand, spec->seed, 8), golden);
}

TEST(ScenarioEquivalence, E9ShortRunMatchesHandBuilt) {
  auto spec = LoadCorpus("e9_limpware", {"short_run"});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const std::string golden =
      SweepFingerprint(HandBuiltE9Short(), spec->seed, 1);
  EXPECT_EQ(SweepFingerprint(spec->query, spec->seed, 1), golden);
  EXPECT_EQ(SweepFingerprint(spec->query, spec->seed, 8), golden);
}

TEST(ScenarioEquivalence, Fig1AblatedMatchesHandBuiltWithReplications) {
  auto spec = LoadCorpus("fig1_unavailability",
                         {"small_cluster_only", "round_robin_only"});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const QuerySpec hand = HandBuiltFig1Small();
  const std::string golden =
      SweepFingerprint(hand, spec->seed, 1, /*replications=*/3);
  EXPECT_EQ(SweepFingerprint(spec->query, spec->seed, 1, 3), golden);
  EXPECT_EQ(SweepFingerprint(spec->query, spec->seed, 8, 3), golden);
}

TEST(ScenarioEquivalence, E4MatchesDslFrontEnd) {
  // The same experiment through both declarative front ends: the DSL text
  // the provisioning example used before the migration, and the committed
  // e4 scenario. Records AND the post-processed answer must agree byte
  // for byte.
  auto dsl = ParseQuery(R"(
    EXPLORE memory_gb IN [16, 32, 64, 128, 224],
            disk IN ['hdd', 'ssd']
    SIMULATE provisioning
        WITH working_set_gb = 256, rate = 400,
             nodes = 4, duration_s = 120
    WHERE latency_p95_ms <= 30
    ORDER BY cost_monthly_usd ASC
  )");
  ASSERT_TRUE(dsl.ok()) << dsl.status().ToString();
  auto scn = LoadCorpus("e4_provisioning");
  ASSERT_TRUE(scn.ok()) << scn.status().ToString();
  EXPECT_FALSE(scn->has_seed);  // rides the tunnel default, like the DSL

  EXPECT_EQ(SweepFingerprint(scn->query, /*seed=*/1, 1),
            SweepFingerprint(*dsl, /*seed=*/1, 1));

  auto run = [](const QuerySpec& q) {
    WindTunnel tunnel;
    WT_CHECK(RegisterBuiltinSimulations(&tunnel).ok());
    auto result = ExecuteQuery(&tunnel, q, "e4");
    WT_CHECK(result.ok()) << result.status().ToString();
    return result->satisfying.ToCsv();
  };
  EXPECT_EQ(run(scn->query), run(*dsl));
}

TEST(ScenarioEquivalence, ScenarioHashReachesManifest) {
  auto spec = LoadCorpus("fig1_unavailability",
                         {"small_cluster_only", "round_robin_only"});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  WindTunnelOptions options;
  options.seed = spec->seed;
  WindTunnel tunnel(options);
  ASSERT_TRUE(RegisterBuiltinSimulations(&tunnel).ok());
  auto space = BuildQuerySpace(spec->query);
  ASSERT_TRUE(space.ok());
  auto records = tunnel.RunSweep("m", *space, spec->query.simulation, {},
                                 {}, spec->query.scenario_hash);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_FALSE(records->empty());
  ASSERT_NE(records->front().manifest, nullptr);
  EXPECT_EQ(records->front().manifest->scenario_hash,
            spec->query.scenario_hash);
}

}  // namespace
}  // namespace wt
