// Fixed per-layer probes: direct calls into one layer's public functions
// on fixed inputs, each repeated and reported as a median. They are the
// same on every workload, so a layer's cost can be read from any traced
// run, and a change to one layer moves its probe without moving the
// others. Inputs: the Fig1 configurations (soft), the first point of the
// E2/E9/E4 scenarios (sim, workload), sweep_fine (query, core, store) and
// the serving query family (query parse, cache key, serve).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "suite.h"
#include "wt/analytics/combinatorics.h"
#include "wt/common/string_util.h"
#include "wt/obs/metrics.h"
#include "wt/obs/trace.h"
#include "wt/obs/wallclock.h"
#include "wt/query/builtin_sims.h"
#include "wt/query/executor.h"
#include "wt/query/parser.h"
#include "wt/scenario/scenario.h"
#include "wt/serve/client.h"
#include "wt/serve/server.h"
#include "wt/serve/wire.h"
#include "wt/soft/availability_static.h"
#include "wt/soft/storage_service.h"

namespace wt {
namespace bench_suite {
namespace {

/// Median wall time of `reps` calls of `fn`, in ms.
double MedianMillis(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = obs::WallNanos();
    fn();
    ms.push_back(MillisSince(t0));
  }
  return Median(ms);
}

/// Mean of the central 80% of `v`: robust like a median, but keeps the
/// digits of whole-microsecond readings (the server reports wall_us).
double TrimmedMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

Result<scenario::ScenarioSpec> Load(const RunOptions& options,
                                    const std::string& file) {
  WT_ASSIGN_OR_RETURN(
      const std::string path,
      scenario::FindScenarioPath(options.suite_dir + "/../" + file));
  return scenario::LoadScenarioFile(path);
}

/// One RunFn call on the first point of `file`'s design space: median ms,
/// plus the sim.events and sim.wall_ns it added.
struct SimProbe {
  double run_ms = 0.0;
  int64_t events = 0;
  int64_t sim_wall_ns = 0;
};

Result<SimProbe> ProbeSim(const RunOptions& options, const std::string& file,
                          const RunFn& fn, int reps) {
  WT_ASSIGN_OR_RETURN(scenario::ScenarioSpec spec, Load(options, file));
  WT_ASSIGN_OR_RETURN(DesignSpace space, BuildQuerySpace(spec.query));
  const DesignPoint point = space.PointAt(0);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const obs::MetricsBaseline base = registry.CaptureBaseline();
  bool ok = true;
  SimProbe out;
  out.run_ms = MedianMillis(reps, [&] {
    RngStream rng = RngStream(options.seed).Substream(0, 0);
    ok = ok && fn(point, rng).ok();
  });
  if (!ok) return Status::Internal("simulation probe failed on " + file);
  const obs::MetricsSnapshot delta = registry.SnapshotDelta(base);
  if (const auto* e = delta.Find("sim.events")) out.events = e->value;
  if (const auto* e = delta.Find("sim.wall_ns")) out.sim_wall_ns = e->value;
  return out;
}

}  // namespace

Status RunProbes(const RunOptions& options, std::vector<Metric>* out) {
  WT_TRACE_SCOPE("bench", "probes");
  auto add = [out](const char* name, const char* unit, double value,
                   int64_t samples) {
    out->push_back(Metric{name, unit, value, samples});
  };

  // --- scenario: load and compile the whole corpus plus sweep_fine.
  const std::vector<std::string> files = {
      "scenarios/fig1_unavailability.json",
      "scenarios/e2_replication_tradeoff.json",
      "scenarios/whatif_repair_codesign.json", "scenarios/e9_limpware.json",
      "scenarios/e4_provisioning.json", "benchsuite/sweep_fine.json"};
  bool loaded = true;
  add("scenario.load_ms", "ms", MedianMillis(20, [&] {
        for (const std::string& f : files) loaded = loaded && Load(options, f).ok();
      }),
      20);
  if (!loaded) return Status::Internal("scenario probe failed to load");

  // --- query + core on the serving family: what every request pays to
  // parse its text and form its cache key.
  const std::string serve_text = ServeQueryText(0);
  add("query.parse_us", "us",
      1e3 * MedianMillis(200, [&] { (void)ParseQuery(serve_text); }), 200);
  WT_ASSIGN_OR_RETURN(const QuerySpec serve_spec, ParseQuery(serve_text));
  WT_ASSIGN_OR_RETURN(const DesignSpace serve_space,
                      BuildQuerySpace(serve_spec));
  add("core.config_hash_us", "us", 1e3 * MedianMillis(200, [&] {
        (void)SweepConfigHash(serve_space.AllPoints(), serve_spec.constraints);
      }),
      200);

  // --- query, core, store on sweep_fine: plan, table build,
  // post-processing, publish and CSV of its records.
  WT_ASSIGN_OR_RETURN(scenario::ScenarioSpec fine,
                      Load(options, "benchsuite/sweep_fine.json"));
  add("query.plan_us", "us", 1e3 * MedianMillis(50, [&] {
        (void)BuildQuerySpace(fine.query);
      }),
      50);
  WT_ASSIGN_OR_RETURN(const DesignSpace fine_space,
                      BuildQuerySpace(fine.query));
  SweepOptions sweep_options;
  sweep_options.num_workers = options.workers;
  sweep_options.seed = options.seed;
  RunOrchestrator orchestrator(sweep_options);
  WT_ASSIGN_OR_RETURN(
      const std::vector<RunRecord> records,
      orchestrator.Sweep(fine_space, MakeStaticAvailabilitySim(),
                         fine.query.constraints, fine.query.hints));
  Table table;
  add("core.table_build_ms", "ms", MedianMillis(10, [&] {
        Result<Table> t = BuildRunRecordTable(fine_space, records);
        if (t.ok()) table = std::move(t).value();
      }),
      10);
  if (table.num_rows() != records.size()) {
    return Status::Internal("table build probe failed");
  }
  Table answer;
  add("query.postprocess_us", "us", 1e3 * MedianMillis(50, [&] {
        Result<Table> t = PostprocessSweepTable(table, fine.query, nullptr);
        if (t.ok()) answer = std::move(t).value();
      }),
      50);
  {
    ResultStore store;
    int i = 0;
    std::vector<double> us;
    for (; i < 20; ++i) {
      Table copy = table;
      const int64_t t0 = obs::WallNanos();
      const Status s = store.PublishTable(StrFormat("probe_%d", i),
                                          std::move(copy));
      us.push_back(MillisSince(t0) * 1e3);
      if (!s.ok()) return s;
    }
    add("store.publish_us", "us", Median(us), i);
  }
  std::string csv;
  add("store.csv_us", "us",
      1e3 * MedianMillis(200, [&] { csv = answer.ToCsv(); }), 200);
  if (answer.num_rows() == 0 || csv.empty()) {
    return Status::Internal("post-processing probe produced no rows");
  }

  // --- soft: the Fig1 estimator and its two inner loops, at f = quorum
  // (the first failure count that can make data unavailable).
  {
    std::vector<double> estimate_ms;
    double max_abs_err = 0.0;
    for (int nodes : {10, 30}) {
      for (int n : {3, 5}) {
        const int quorum = n / 2 + 1;
        const ReplicationScheme scheme = ReplicationScheme::Majority(n);
        for (const char* placement_name : {"random", "round_robin"}) {
          WT_ASSIGN_OR_RETURN(std::unique_ptr<PlacementPolicy> placement,
                              PlacementPolicy::Create(placement_name));
          StaticAvailabilityConfig config;
          config.num_nodes = nodes;
          config.num_users = 10000;
          config.placement_samples = 10;
          config.trials_per_placement = 100;
          config.seed = options.seed;
          const int64_t t0 = obs::WallNanos();
          const StaticAvailabilityPoint p = EstimateStaticUnavailability(
              scheme, *placement, config, quorum);
          estimate_ms.push_back(MillisSince(t0));
          double exact = 0.0;
          if (std::string(placement_name) == "random") {
            exact = RandomPlacementAnyUnavailable(nodes, n, quorum, quorum,
                                                  config.num_users);
          } else {
            WT_ASSIGN_OR_RETURN(exact, RoundRobinAnyUnavailable(
                                           nodes, n, quorum, quorum));
          }
          max_abs_err =
              std::max(max_abs_err, std::fabs(p.p_any_unavailable - exact));
        }
      }
    }
    add("soft.static_estimate_ms", "ms", Median(estimate_ms),
        static_cast<int64_t>(estimate_ms.size()));
    add("soft.fig1_max_abs_err", "prob", max_abs_err,
        static_cast<int64_t>(estimate_ms.size()));

    std::vector<double> build_us;
    std::vector<double> scan_us;
    RngStream rng(options.seed);
    for (int nodes : {10, 30}) {
      for (int n : {3, 5}) {
        StorageServiceConfig config;
        config.num_users = 10000;
        config.num_nodes = nodes;
        std::unique_ptr<StorageService> service;
        for (int rep = 0; rep < 5; ++rep) {
          const int64_t t0 = obs::WallNanos();
          service = std::make_unique<StorageService>(
              config,
              std::make_unique<ReplicationScheme>(
                  ReplicationScheme::Majority(n)),
              std::make_unique<RandomPlacement>(), rng.Substream(rep));
          build_us.push_back(MillisSince(t0) * 1e3);
        }
        std::vector<bool> up(static_cast<size_t>(nodes), true);
        for (int f = 0; f < n / 2 + 1; ++f) up[static_cast<size_t>(f)] = false;
        int64_t unavailable = 0;
        for (int rep = 0; rep < 50; ++rep) {
          const int64_t t0 = obs::WallNanos();
          unavailable += service->CountUnavailable(up);
          scan_us.push_back(MillisSince(t0) * 1e3);
        }
        if (unavailable < 0) return Status::Internal("negative count");
      }
    }
    add("soft.storage_build_us", "us", Median(build_us),
        static_cast<int64_t>(build_us.size()));
    add("soft.quorum_scan_us", "us", Median(scan_us),
        static_cast<int64_t>(scan_us.size()));
  }

  // --- sim + the DES-driven models: one point of each DES scenario.
  {
    WT_ASSIGN_OR_RETURN(const SimProbe avail,
                        ProbeSim(options, "scenarios/e2_replication_tradeoff.json",
                                 MakeAvailabilitySim(), 3));
    WT_ASSIGN_OR_RETURN(const SimProbe perf,
                        ProbeSim(options, "scenarios/e9_limpware.json",
                                 MakePerformanceSim(), 3));
    WT_ASSIGN_OR_RETURN(const SimProbe prov,
                        ProbeSim(options, "scenarios/e4_provisioning.json",
                                 MakeProvisioningSim(), 3));
    add("soft.avail_run_ms", "ms", avail.run_ms, 3);
    add("workload.perf_run_ms", "ms", perf.run_ms, 3);
    add("workload.prov_run_ms", "ms", prov.run_ms, 3);
    const int64_t events = avail.events + perf.events + prov.events;
    const int64_t wall_ns =
        avail.sim_wall_ns + perf.sim_wall_ns + prov.sim_wall_ns;
    add("sim.events_per_s", "1/s",
        wall_ns > 0 ? static_cast<double>(events) * 1e9 /
                          static_cast<double>(wall_ns)
                    : 0.0,
        9);
  }

  // --- serve: frame codec on a 64-row reply, and a private server's hit,
  // miss and wire costs.
  {
    const serve::Frame frame{"ok hit 64 0", table.Head(64).ToCsv()};
    std::string encoded;
    add("serve.encode_us", "us", 1e3 * MedianMillis(200, [&] {
          encoded = serve::EncodeFrame(frame);
        }),
        200);
    int fds[2];
    if (::pipe(fds) != 0) return Status::Internal("pipe failed");
    std::vector<double> decode_us;
    bool decoded = true;
    {
      serve::FdStream writer(fds[1]);
      serve::FdStream reader(fds[0]);
      for (int i = 0; i < 200 && decoded; ++i) {
        decoded = writer.WriteAll(encoded).ok();
        const int64_t t0 = obs::WallNanos();
        Result<serve::Frame> f = serve::ReadFrame(&reader);
        decode_us.push_back(MillisSince(t0) * 1e3);
        decoded = decoded && f.ok() && f->payload == frame.payload;
      }
    }
    ::close(fds[0]);
    ::close(fds[1]);
    if (!decoded) return Status::Internal("frame codec probe failed");
    add("serve.decode_us", "us", Median(decode_us), 200);

    WindTunnelOptions tunnel_options;
    tunnel_options.seed = options.seed;
    WindTunnel tunnel(tunnel_options);
    WT_RETURN_IF_ERROR(RegisterBuiltinSimulations(&tunnel));
    serve::ServerOptions server_options;
    server_options.num_workers = 2;
    server_options.seed = options.seed;
    serve::Server server(&tunnel, server_options);
    std::vector<double> miss_ms;
    for (int k = 0; k < 8; ++k) {
      WT_ASSIGN_OR_RETURN(serve::ServeReply r,
                          server.Serve(ServeQueryText(100000 + k)));
      miss_ms.push_back(static_cast<double>(r.wall_us) / 1e3);
    }
    add("serve.server_miss_ms", "ms", Median(miss_ms), 8);
    const std::string socket_path = StrFormat(
        "%s/probe.%d.sock", options.out_dir.c_str(), static_cast<int>(::getpid()));
    WT_RETURN_IF_ERROR(server.Listen(socket_path));
    WT_ASSIGN_OR_RETURN(serve::Client client,
                        serve::Client::Connect(socket_path));
    std::vector<double> hit_us;
    std::vector<double> wire_us;
    for (int i = 0; i < 400; ++i) {
      const int64_t t0 = obs::WallNanos();
      WT_ASSIGN_OR_RETURN(serve::Client::Reply r,
                          client.Query(ServeQueryText(100000 + i % 8)));
      const double client_us = MillisSince(t0) * 1e3;
      long long server_us = 0;
      if (std::sscanf(r.header.c_str(), "ok hit %*d %lld", &server_us) != 1) {
        return Status::Internal("serve probe: unexpected reply " + r.header);
      }
      hit_us.push_back(static_cast<double>(server_us));
      wire_us.push_back(client_us - static_cast<double>(server_us));
    }
    client.Close();
    server.Shutdown();
    add("serve.server_hit_us", "us", TrimmedMean(hit_us), 400);
    add("serve.wire_us", "us", Median(wire_us), 400);
  }
  return Status::OK();
}

}  // namespace bench_suite
}  // namespace wt
