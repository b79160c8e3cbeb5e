// wt::obs metrics registry: instrument semantics, snapshot export, and the
// determinism contract — a snapshot of deterministic quantities taken after
// a sweep is identical for any num_workers (DESIGN.md § Observability).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wt/common/json.h"
#include "wt/core/orchestrator.h"
#include "wt/obs/metrics.h"
#include "wt/sim/simulator.h"

namespace wt {
namespace {

// Two families are machine-dependent by convention and excluded from the
// determinism contract (wt/obs/metrics.h): wall-clock instruments and the
// "sched." scheduling-telemetry prefix (chunk claims, queue depths —
// legitimately different for every worker count and every OS schedule).
bool IsSchedulingDependent(const std::string& name) {
  return name.ends_with(".wall_ns") || name.ends_with(".wall_us") ||
         name.ends_with("wall_seconds") || name.starts_with("sched.");
}

// A DES run per design point: a self-rescheduling ticker whose event count
// depends only on the point and the (seed, run_id) substream.
RunFn TickerModel() {
  return [](const DesignPoint& p, RngStream& rng) -> Result<MetricMap> {
    Simulator sim;
    sim.Reserve(8);
    sim.AttachDefaultObs();
    struct Ticker {
      Simulator* sim;
      int64_t remaining;
      void Tick() {
        if (--remaining > 0) sim->Schedule(SimTime::Nanos(7), [this] { Tick(); });
      }
    };
    Ticker t{&sim, 50 + p.GetInt("n", 1) * 10 +
                       static_cast<int64_t>(rng.UniformInt(0, 9))};
    const int64_t total = t.remaining;
    sim.Schedule(SimTime::Nanos(1), [&t] { t.Tick(); });
    sim.Run();
    return MetricMap{{"ticks", static_cast<double>(total)}};
  };
}

DesignSpace TickerSpace() {
  DesignSpace space;
  WT_CHECK(space.AddDimension("n", {Value(1), Value(2), Value(3), Value(4)})
               .ok());
  return space;
}

// (name, kind, value) triples of the deterministic instruments.
std::string DeterministicSummary(const obs::MetricsSnapshot& snap) {
  std::string out;
  for (const obs::MetricsSnapshotEntry& e : snap.entries) {
    if (IsSchedulingDependent(e.name)) continue;
    out += e.name + "|" + e.kind + "|" + std::to_string(e.value) + "\n";
  }
  return out;
}

TEST(ObsMetricsTest, CounterGaugeLatencyBasics) {
  obs::Counter c;
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);

  obs::Gauge g;
  g.Set(7);
  EXPECT_EQ(g.value(), 7);
  g.UpdateMax(3);
  EXPECT_EQ(g.value(), 7);  // max keeps the high water
  g.UpdateMax(11);
  EXPECT_EQ(g.value(), 11);

  obs::LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  LogHistogram snap = h.SnapshotHistogram();
  EXPECT_EQ(snap.count(), 100);
  EXPECT_GT(snap.mean(), 0.0);
}

TEST(ObsMetricsTest, RegistryDisabledIsInert) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.set_enabled(false);
  EXPECT_FALSE(obs::MetricsEnabled());
  obs::CountIfEnabled("test.disabled_counter", 5);
  obs::GaugeMaxIfEnabled("test.disabled_gauge", 5);
  obs::LatencyIfEnabled("test.disabled_latency", 5.0);
  // Nothing was registered: the helpers bail before touching the registry.
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Find("test.disabled_counter"), nullptr);
  EXPECT_EQ(snap.Find("test.disabled_gauge"), nullptr);
  EXPECT_EQ(snap.Find("test.disabled_latency"), nullptr);
}

TEST(ObsMetricsTest, InstrumentPointersAreStableAndShared) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.set_enabled(true);
  obs::Counter* a = reg.GetCounter("test.stable");
  // Force deque growth; the first pointer must survive.
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("test.stable_" + std::to_string(i));
  }
  EXPECT_EQ(reg.GetCounter("test.stable"), a);
  reg.set_enabled(false);
}

TEST(ObsMetricsTest, SnapshotJsonIsValidAndSorted) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.set_enabled(true);
  reg.GetCounter("test.json_b")->Add(2);
  reg.GetGauge("test.json_a")->Set(1);
  reg.GetLatency("test.json_c")->Record(3.5);
  const std::string hostile = "test.json_\"q\" \\ nl\n";
  reg.GetCounter(hostile)->Add(4);
  obs::MetricsSnapshot snap = reg.Snapshot();
  reg.set_enabled(false);

  auto doc = json::ParseJson(snap.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_FALSE(snap.ToText().empty());
  bool saw_hostile = false;
  const json::JsonValue& metrics = *doc->Find("metrics");
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (metrics.At(i).Find("name")->AsString() == hostile) {
      EXPECT_EQ(metrics.At(i).Find("value")->AsInt(), 4);
      saw_hostile = true;
    }
  }
  EXPECT_TRUE(saw_hostile);

  for (size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);
  }
  const obs::MetricsSnapshotEntry* lat = snap.Find("test.json_c");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind, "latency");
  EXPECT_EQ(lat->value, 1);  // count
}

TEST(ObsMetricsTest, SweepSnapshotIsIdenticalAcrossWorkerCounts) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  std::string first;
  for (int workers : {1, 2, 8}) {
    reg.ResetValues();
    reg.set_enabled(true);
    SweepOptions opts;
    opts.num_workers = workers;
    opts.seed = 2014;
    RunOrchestrator orch(opts);
    auto records = orch.Sweep(TickerSpace(), TickerModel(),
                              {{"ticks", SlaOp::kAtLeast, 1.0}}, {});
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    obs::MetricsSnapshot snap = reg.Snapshot();
    reg.set_enabled(false);

    // The instrumented sweep must have reported real numbers.
    const obs::MetricsSnapshotEntry* events = snap.Find("sim.events");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->value, 0);
    const obs::MetricsSnapshotEntry* executed =
        snap.Find("sweep.runs_executed");
    ASSERT_NE(executed, nullptr);
    EXPECT_EQ(executed->value, 4);

    std::string summary = DeterministicSummary(snap);
    if (workers == 1) {
      first = summary;
    } else {
      EXPECT_EQ(summary, first)
          << "metrics snapshot diverged at num_workers=" << workers;
    }
  }
  reg.ResetValues();
}

TEST(ObsMetricsTest, SnapshotDeltaIsolatesActivitySinceBaseline) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.ResetValues();
  reg.set_enabled(true);

  reg.GetCounter("delta.count")->Add(5);
  reg.GetGauge("delta.level")->Set(9);
  reg.GetLatency("delta.lat")->Record(100.0);
  reg.GetLatency("delta.lat")->Record(200.0);

  const obs::MetricsBaseline base = reg.CaptureBaseline();
  reg.GetCounter("delta.count")->Add(3);
  reg.GetGauge("delta.level")->Set(4);
  reg.GetLatency("delta.lat")->Record(4000.0);
  reg.GetCounter("delta.fresh")->Add(7);  // registered after the baseline

  const obs::MetricsSnapshot delta = reg.SnapshotDelta(base);
  reg.set_enabled(false);

  // Counters diff against the baseline; later instruments diff against 0.
  ASSERT_NE(delta.Find("delta.count"), nullptr);
  EXPECT_EQ(delta.Find("delta.count")->value, 3);
  ASSERT_NE(delta.Find("delta.fresh"), nullptr);
  EXPECT_EQ(delta.Find("delta.fresh")->value, 7);
  // Gauges are levels, not totals: the current value, not a difference.
  ASSERT_NE(delta.Find("delta.level"), nullptr);
  EXPECT_EQ(delta.Find("delta.level")->value, 4);
  // Latency entries summarize only post-baseline recordings.
  const obs::MetricsSnapshotEntry* lat = delta.Find("delta.lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->value, 1);
  EXPECT_NEAR(lat->p50, 4000.0, 4000.0 * 0.04);  // bucket resolution
  reg.ResetValues();
}

TEST(ObsMetricsTest, LatencyMergeFromAggregatesLocalHistogram) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.ResetValues();
  reg.set_enabled(true);

  LogHistogram local;  // default 32 sub-buckets, as MergeFrom requires
  local.Add(10.0);
  local.Add(20.0);
  obs::LatencyMergeIfEnabled("merge.lat", local);
  obs::LatencyMergeIfEnabled("merge.empty", LogHistogram());  // no-op

  const obs::MetricsSnapshot snap = reg.Snapshot();
  reg.set_enabled(false);
  const obs::MetricsSnapshotEntry* merged = snap.Find("merge.lat");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->value, 2);
  EXPECT_NEAR(merged->mean, 15.0, 15.0 * 0.04);
  // An empty histogram registers nothing (never observed, never paid).
  EXPECT_EQ(snap.Find("merge.empty"), nullptr);
  reg.ResetValues();
}

}  // namespace
}  // namespace wt
