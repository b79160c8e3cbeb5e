// RunManifest provenance: collection, wt::store round-trip
// (including a save/load cycle through typed CSV on disk), and the sweep
// integration — every RunRecord of a WindTunnel sweep carries the manifest
// and the store grows a "<table>__manifest" side table.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "wt/core/wind_tunnel.h"
#include "wt/obs/manifest.h"
#include "wt/store/persistence.h"

namespace wt {
namespace {

TEST(ObsManifestTest, CollectFillsHostAndToolchainFacts) {
  obs::RunManifest m = obs::CollectRunManifest(42, "cafef00d");
  EXPECT_EQ(m.seed, 42u);
  EXPECT_EQ(m.config_hash, "cafef00d");
  EXPECT_FALSE(m.git_commit.empty());
  EXPECT_FALSE(m.compiler.empty());
  EXPECT_FALSE(m.build_type.empty());
  EXPECT_FALSE(m.cpu_model.empty());
  EXPECT_GE(m.hardware_threads, 1);
  EXPECT_FALSE(m.hostname.empty());
  // ISO-8601 UTC timestamp, e.g. 2014-09-01T12:34:56Z.
  ASSERT_EQ(m.created_at_utc.size(), 20u);
  EXPECT_EQ(m.created_at_utc[4], '-');
  EXPECT_EQ(m.created_at_utc[10], 'T');
  EXPECT_EQ(m.created_at_utc.back(), 'Z');
}

TEST(ObsManifestTest, StoreRoundTripThroughDisk) {
  obs::RunManifest m = obs::CollectRunManifest(0xdeadbeefcafef00dULL, "abcd");
  m.wall_seconds = 3.5;

  ResultStore store;
  ASSERT_TRUE(obs::StoreManifest(&store, "m__manifest", m).ok());

  // Survive a typed-CSV save/load cycle like any sweep table.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "wt_obs_manifest_test").string();
  fs::remove_all(dir);
  ASSERT_TRUE(SaveResultStore(store, dir).ok());
  ResultStore loaded_store;
  ASSERT_TRUE(LoadResultStore(&loaded_store, dir).ok());
  fs::remove_all(dir);

  auto loaded = obs::LoadManifest(loaded_store, "m__manifest");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seed, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(loaded->config_hash, "abcd");
  EXPECT_EQ(loaded->git_commit, m.git_commit);
  EXPECT_EQ(loaded->compiler, m.compiler);
  EXPECT_EQ(loaded->build_type, m.build_type);
  EXPECT_EQ(loaded->cpu_model, m.cpu_model);
  EXPECT_EQ(loaded->hardware_threads, m.hardware_threads);
  EXPECT_EQ(loaded->hostname, m.hostname);
  EXPECT_EQ(loaded->created_at_utc, m.created_at_utc);
  EXPECT_DOUBLE_EQ(loaded->wall_seconds, 3.5);
}

TEST(ObsManifestTest, LoadRejectsBadSeed) {
  ResultStore store;
  Schema schema({{"key", ValueType::kString}, {"value", ValueType::kString}});
  ASSERT_TRUE(store.CreateTable("bad", schema).ok());
  Table* t = store.GetTable("bad").value();
  ASSERT_TRUE(
      t->AppendRow({Value(std::string("seed")), Value(std::string("x9"))})
          .ok());
  EXPECT_FALSE(obs::LoadManifest(store, "bad").ok());
}

TEST(ObsManifestTest, SweepRecordsCarryManifestAndStorePersistsIt) {
  WindTunnelOptions opts;
  opts.seed = 99;
  opts.num_workers = 2;
  WindTunnel tunnel(opts);

  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("x", {Value(1), Value(2), Value(3)}).ok());
  RunFn fn = [](const DesignPoint& p, RngStream& rng) -> Result<MetricMap> {
    (void)rng;
    return MetricMap{{"y", static_cast<double>(p.GetInt("x", 0)) * 2.0}};
  };
  auto records = tunnel.RunSweepWith("prov_sweep", space, fn, {}, {});
  ASSERT_TRUE(records.ok()) << records.status().ToString();

  // Every record shares one populated manifest.
  ASSERT_FALSE(records->empty());
  const auto& manifest = records->front().manifest;
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(manifest->seed, 99u);
  EXPECT_FALSE(manifest->config_hash.empty());
  EXPECT_FALSE(manifest->compiler.empty());
  EXPECT_GE(manifest->wall_seconds, 0.0);
  for (const RunRecord& r : *records) {
    EXPECT_EQ(r.manifest.get(), manifest.get());
  }

  // The side table exists in the tunnel's store and round-trips.
  auto loaded =
      obs::LoadManifest(tunnel.store(), obs::ManifestTableName("prov_sweep"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seed, 99u);
  EXPECT_EQ(loaded->config_hash, manifest->config_hash);
}

TEST(ObsManifestTest, ConfigHashIsStableAcrossWorkerCounts) {
  std::string first;
  for (int workers : {1, 2, 8}) {
    WindTunnelOptions opts;
    opts.seed = 5;
    opts.num_workers = workers;
    WindTunnel tunnel(opts);
    DesignSpace space;
    ASSERT_TRUE(space.AddDimension("x", {Value(1), Value(2)}).ok());
    RunFn fn = [](const DesignPoint&, RngStream&) -> Result<MetricMap> {
      return MetricMap{{"y", 1.0}};
    };
    auto records = tunnel.RunSweepWith("h", space, fn,
                                       {{"y", SlaOp::kAtLeast, 0.5}}, {});
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_NE(records->front().manifest, nullptr);
    const std::string& hash = records->front().manifest->config_hash;
    EXPECT_EQ(hash.size(), 16u);
    if (workers == 1) {
      first = hash;
    } else {
      EXPECT_EQ(hash, first) << "config hash diverged at workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace wt
