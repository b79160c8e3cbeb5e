// wt::obs trace emitter: Chrome trace-event JSON well-formedness, span and
// counter content from an instrumented parallel sweep, drop accounting, and
// the env-driven session wiring CI uses (WT_TRACE / WT_METRICS).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "wt/common/json.h"
#include "wt/core/orchestrator.h"
#include "wt/obs/obs.h"
#include "wt/sim/simulator.h"

namespace wt {
namespace {

RunFn TickerModel() {
  return [](const DesignPoint& p, RngStream& rng) -> Result<MetricMap> {
    (void)rng;
    Simulator sim;
    sim.Reserve(8);
    sim.AttachDefaultObs();
    struct Ticker {
      Simulator* sim;
      int64_t remaining;
      void Tick() {
        if (--remaining > 0) sim->Schedule(SimTime::Nanos(5), [this] { Tick(); });
      }
    };
    Ticker t{&sim, 40 + p.GetInt("n", 1)};
    sim.Schedule(SimTime::Nanos(1), [&t] { t.Tick(); });
    sim.Run();
    return MetricMap{{"ticks", static_cast<double>(40 + p.GetInt("n", 1))}};
  };
}

DesignSpace TickerSpace() {
  DesignSpace space;
  std::vector<Value> ns;
  for (int i = 1; i <= 8; ++i) ns.emplace_back(i);
  WT_CHECK(space.AddDimension("n", ns).ok());
  return space;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ObsTraceTest, InactiveEmitterRecordsNothing) {
  obs::TraceEmitter& t = obs::TraceEmitter::Default();
  ASSERT_FALSE(t.active());
  { WT_TRACE_SCOPE("test", "should_not_appear"); }
  WT_TRACE_INSTANT_ARG("test", "nor_this", "x", 1);
  t.Start(64);
  t.Stop();
  std::string json = t.ToJson();
  EXPECT_EQ(json.find("should_not_appear"), std::string::npos);
  EXPECT_EQ(json.find("nor_this"), std::string::npos);
}

TEST(ObsTraceTest, SweepTraceIsValidChromeJsonWithExpectedTracks) {
  obs::TraceEmitter& t = obs::TraceEmitter::Default();
  obs::SetThisThreadLabel("main");
  t.Start();

  SweepOptions opts;
  opts.num_workers = 4;
  // The assertions below want real pool lanes in the trace; on a host with
  // fewer than 4 hardware threads the default clamp would run this sweep
  // serially (correctly — but then there is nothing to assert on).
  opts.clamp_workers_to_hardware = false;
  opts.seed = 7;
  RunOrchestrator orch(opts);
  auto records = orch.Sweep(TickerSpace(), TickerModel(),
                            {{"ticks", SlaOp::kAtLeast, 1.0}}, {});
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  t.Stop();

  std::string json = t.ToJson();
  Status valid = json::ParseJson(json).status();
  ASSERT_TRUE(valid.ok()) << valid.ToString();

  // The acceptance tracks: sweep + per-run spans from the orchestrator,
  // worker spans from the pool, and the simulator counter track.
  EXPECT_NE(json.find("\"name\": \"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"run\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"worker\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"sim.events\""), std::string::npos);
  // Thread metadata: the labeled main thread and at least one pool worker.
  // Which workers participate is a scheduling decision (under TSan a slow
  // worker may receive no chunks), so don't pin a specific worker index.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-"), std::string::npos);

  // Round-trip through a file, as CI consumes it.
  const std::string path =
      (std::filesystem::temp_directory_path() / "wt_obs_trace_test.json")
          .string();
  Status written = t.WriteJson(path);
  ASSERT_TRUE(written.ok()) << written.ToString();
  std::string from_disk = ReadFile(path);
  EXPECT_EQ(from_disk, json);
  std::remove(path.c_str());
}

TEST(ObsTraceTest, PrunedInstantAppearsInTrace) {
  obs::TraceEmitter& t = obs::TraceEmitter::Default();
  t.Start();
  SweepOptions opts;
  opts.num_workers = 2;
  opts.seed = 3;
  RunOrchestrator orch(opts);
  // ticks grows with n; requiring at most 0 fails everywhere, and the
  // monotone hint lets the failure prune the rest of the cone.
  auto records = orch.Sweep(TickerSpace(), TickerModel(),
                            {{"ticks", SlaOp::kAtMost, 0.0}},
                            {{"n", MonotoneDirection::kLowerIsBetter}});
  t.Stop();
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  std::string json = t.ToJson();
  Status valid = json::ParseJson(json).status();
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(json.find("\"name\": \"pruned\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"wavefront\""), std::string::npos);
}

TEST(ObsTraceTest, FullBufferDropsNewestAndCounts) {
  obs::TraceEmitter& t = obs::TraceEmitter::Default();
  t.Start(/*capacity_per_thread=*/16);
  for (int i = 0; i < 100; ++i) {
    t.Instant("test", "burst", "i", i);
  }
  t.Stop();
  EXPECT_EQ(t.dropped(), 100 - 16);
  std::string json = t.ToJson();
  Status valid = json::ParseJson(json).status();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(json.find("\"dropped\""), std::string::npos);
}

TEST(ObsTraceTest, HostileNamesRoundTripThroughJson) {
  // The emitter keeps the pointers, so the strings must outlive ToJson.
  static const char kCat[] = "cat \"q\" \\ nl\n";
  static const char kName[] = "name \"q\" \\ nl\n";
  static const char kArg[] = "arg \"q\" \\ nl\n";
  static const char kLabel[] = "label \"q\" \\ nl\n";
  obs::TraceEmitter& t = obs::TraceEmitter::Default();
  obs::SetThisThreadLabel(kLabel);
  t.Start(16);
  t.Complete(kCat, kName, 0, 1, kArg, 5);
  t.Stop();
  obs::SetThisThreadLabel(nullptr);

  auto doc = json::ParseJson(t.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::JsonValue& events = *doc->Find("traceEvents");
  bool saw_label = false;
  bool saw_span = false;
  for (size_t i = 0; i < events.size(); ++i) {
    const json::JsonValue& ev = events.At(i);
    const json::JsonValue* args = ev.Find("args");
    if (ev.Find("name")->AsString() == "thread_name") {
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->Find("name")->AsString(), kLabel);
      saw_label = true;
    } else if (ev.Find("ph")->AsString() == "X") {
      EXPECT_EQ(ev.Find("cat")->AsString(), kCat);
      EXPECT_EQ(ev.Find("name")->AsString(), kName);
      ASSERT_NE(args, nullptr);
      ASSERT_EQ(args->ObjectKeys().size(), 1u);
      EXPECT_EQ(args->ObjectKeys()[0], kArg);
      EXPECT_EQ(args->Find(kArg)->AsInt(), 5);
      saw_span = true;
    }
  }
  EXPECT_TRUE(saw_label);
  EXPECT_TRUE(saw_span);
}

TEST(ObsTraceTest, EnvObsSessionWritesBothFiles) {
  namespace fs = std::filesystem;
  const std::string trace_path =
      (fs::temp_directory_path() / "wt_obs_env_trace.json").string();
  const std::string metrics_path =
      (fs::temp_directory_path() / "wt_obs_env_metrics.json").string();
  ASSERT_EQ(setenv("WT_TRACE", trace_path.c_str(), 1), 0);
  ASSERT_EQ(setenv("WT_METRICS", metrics_path.c_str(), 1), 0);
  {
    obs::EnvObsSession session;
    EXPECT_TRUE(session.tracing());
    EXPECT_TRUE(session.metrics());
    Simulator sim;
    sim.Reserve(4);
    sim.AttachDefaultObs();
    int fired = 0;
    sim.Schedule(SimTime::Nanos(1), [&fired] { ++fired; });
    sim.Run();
    EXPECT_EQ(fired, 1);
  }  // destructor stops tracing and writes both files
  unsetenv("WT_TRACE");
  unsetenv("WT_METRICS");

  std::string trace_json = ReadFile(trace_path);
  std::string metrics_json = ReadFile(metrics_path);
  ASSERT_FALSE(trace_json.empty());
  ASSERT_FALSE(metrics_json.empty());
  Status trace_ok = json::ParseJson(trace_json).status();
  EXPECT_TRUE(trace_ok.ok()) << trace_ok.ToString();
  Status metrics_ok = json::ParseJson(metrics_json).status();
  EXPECT_TRUE(metrics_ok.ok()) << metrics_ok.ToString();
  EXPECT_NE(metrics_json.find("sim.events"), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace wt
