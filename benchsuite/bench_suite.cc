// bench_suite — runs one workload of the wind tunnel's benchmark, checks
// its answers, and reports every metric by name and unit
// (benchsuite/README.md; metric names and bounds in BENCHMARK.json).
//
//   bench_suite --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//               [--out DIR] [--start-ns T] [--setup-samples S1,S2,...]
//   bench_suite --workload <name> --setup-only [--seed N] [--start-ns T]
//   bench_suite --smoke [--out DIR]
//
// Set-up is timed once per process, from process start to the first timed
// operation: host-fact collection, the workload's inputs and, for serving,
// the server boot and warm-up. --start-ns is the steady-clock time
// (CLOCK_MONOTONIC, ns) at which the caller started this process; without
// it the clock starts at main(). --setup-only stops after set-up and
// prints "setup_s <seconds>"; benchsuite/run.py starts several such
// processes and hands their times to the measured run as --setup-samples,
// which reports the median of those and its own.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// gives the per-layer metrics: in one process it runs the workload
// untraced for S/2, again for S/2 with the metrics registry and trace
// emitter on and every simulation wrapped by a timing ledger, then the
// fixed per-layer probes; it writes DIR/<workload>.trace.json (load it in
// Perfetto). --smoke runs every workload at minimum length at the golden
// seed, plus one traced sweep_fine run, and fails unless all answers are
// correct.
//
// Each run writes DIR/<workload>-s<seed>-t<trace>-<pid>.json and prints,
// as its last stdout line, {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "suite.h"
#include "wt/common/string_util.h"
#include "wt/obs/manifest.h"
#include "wt/obs/metrics.h"
#include "wt/obs/trace.h"
#include "wt/obs/wallclock.h"
#include "wt/query/builtin_sims.h"
#include "wt/sim/random.h"

#ifndef WT_BENCH_SUITE_DIR
#error "WT_BENCH_SUITE_DIR must name the benchsuite source directory"
#endif

namespace wt {
namespace bench_suite {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double MillisSince(int64_t t0_nanos) {
  return static_cast<double>(obs::WallNanos() - t0_nanos) / 1e6;
}

RunFn RunLedger::Wrap(RunFn fn) {
  return [this, fn = std::move(fn)](const DesignPoint& point,
                                    RngStream& rng) -> Result<MetricMap> {
    const int64_t t0 = obs::WallNanos();
    Result<MetricMap> r = fn(point, rng);
    const double ms = MillisSince(t0);
    std::lock_guard<std::mutex> lock(mu_);
    run_ms_.push_back(ms);
    return r;
  };
}

std::vector<double> RunLedger::RunMillis() const {
  std::lock_guard<std::mutex> lock(mu_);
  return run_ms_;
}

void RunLedger::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  run_ms_.clear();
}

Status RegisterSims(WindTunnel* tunnel, RunLedger* ledger) {
  if (ledger == nullptr) return RegisterBuiltinSimulations(tunnel);
  WindTunnel builtins;
  WT_RETURN_IF_ERROR(RegisterBuiltinSimulations(&builtins));
  for (const std::string& name : builtins.SimulationNames()) {
    WT_ASSIGN_OR_RETURN(RunFn fn, builtins.GetSimulation(name));
    WT_RETURN_IF_ERROR(
        tunnel->RegisterSimulation(name, ledger->Wrap(std::move(fn))));
  }
  return Status::OK();
}

bool Fingerprints::Record(const std::string& key, const std::string& csv) {
  const uint64_t fnv = Fnv1a64(csv);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = fnv_.emplace(key, fnv);
  return inserted || it->second == fnv;
}

Result<std::vector<std::string>> CheckGoldens(const std::string& path,
                                              const Fingerprints& fp,
                                              bool regen) {
  std::map<std::string, uint64_t> golden;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string key;
      std::string hex;
      if (!(fields >> key >> hex)) {
        return Status::InvalidArgument(path + ": malformed line: " + line);
      }
      golden[key] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  std::vector<std::string> mismatched;
  for (const auto& [key, fnv] : fp.all()) {
    auto it = golden.find(key);
    if (it == golden.end() || it->second != fnv) mismatched.push_back(key);
  }
  if (!regen) return mismatched;

  for (const auto& [key, fnv] : fp.all()) golden[key] = fnv;
  std::ofstream out(path, std::ios::trunc);
  out << "# FNV-1a of each bench_suite answer's CSV at --seed 2014.\n"
         "# Regenerate: WT_BENCH_REGEN_GOLDEN=1 python3 benchsuite/run.py "
         "--smoke\n";
  for (const auto& [key, fnv] : golden) {
    out << key << ' '
        << StrFormat("%016llx", static_cast<unsigned long long>(fnv)) << '\n';
  }
  if (!out) return Status::Internal("cannot write " + path);
  return std::vector<std::string>{};
}

namespace {

constexpr const char* kWorkloads[] = {"fig1_cold", "des_whatif", "sweep_fine",
                                      "serve_mixed"};

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The highest of p99/p90/p75/p50 with at least ten of `n` samples beyond
/// it, or 1.0 — the slowest sample — when none has.
double TailQuantile(size_t n) {
  for (double q : {0.99, 0.90, 0.75, 0.50}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 1.0;
}

int64_t DeltaValue(const obs::MetricsSnapshot& delta, const char* name) {
  const obs::MetricsSnapshotEntry* e = delta.Find(name);
  return e == nullptr ? 0 : e->value;
}

std::vector<Metric> EndToEndMetrics(const std::vector<double>& setup_s,
                                    const PhaseResult& r) {
  return {
      {"setup_s", "s", Median(setup_s), static_cast<int64_t>(setup_s.size())},
      {"answer_p50_ms", "ms", Median(r.answer_ms),
       static_cast<int64_t>(r.answer_ms.size())},
  };
}

/// Per-layer metrics of a traced run: the untraced phase's tail,
/// throughput, CPU per answer, peak RSS and serving miss latency (too
/// noisy on a shared host to gate), then the traced phase's timing ledger
/// around every RunFn, cold-sweep walls, and deltas of the library's
/// counters.
std::vector<Metric> TracedPhaseMetrics(const PhaseResult& untraced,
                                       double untraced_rss_mb,
                                       const PhaseResult& traced,
                                       const RunLedger& ledger,
                                       const obs::MetricsSnapshot& delta,
                                       int workers) {
  const std::vector<double> run_ms = ledger.RunMillis();
  const double busy = std::accumulate(run_ms.begin(), run_ms.end(), 0.0);
  const double sweep_total =
      std::accumulate(traced.sweep_ms.begin(), traced.sweep_ms.end(), 0.0);
  const auto sweeps = static_cast<int64_t>(traced.sweep_ms.size());
  const auto runs = static_cast<int64_t>(run_ms.size());
  const double per_sweep = 1.0 / static_cast<double>(std::max<int64_t>(sweeps, 1));
  auto per = [&](const char* counter) {
    return static_cast<double>(DeltaValue(delta, counter)) * per_sweep;
  };
  const int64_t requests = DeltaValue(delta, "serve.requests");
  const int64_t hits = DeltaValue(delta, "serve.cache.hit");
  const double untraced_p50 = Median(untraced.answer_ms);
  const size_t answers = untraced.answer_ms.size();
  return {
      {"answer_tail_ms", "ms",
       Quantile(untraced.answer_ms, TailQuantile(answers)),
       static_cast<int64_t>(answers)},
      {"answers_per_s", "1/s", untraced.answers_per_s,
       static_cast<int64_t>(answers)},
      {"cpu_ms_per_answer", "ms", untraced.cpu_ms_per_answer,
       static_cast<int64_t>(answers)},
      {"rss_peak_mb", "MB", untraced_rss_mb, 1},
      {"obs.trace_overhead_pct", "%",
       (Median(traced.answer_ms) / untraced_p50 - 1.0) * 100.0,
       static_cast<int64_t>(traced.answer_ms.size())},
      {"obs.trace_dropped", "count",
       static_cast<double>(obs::TraceEmitter::Default().dropped()), 1},
      {"core.sweep_ms", "ms", Median(traced.sweep_ms), sweeps},
      {"core.run_busy_ms", "ms", busy * per_sweep, sweeps},
      {"core.run_p50_ms", "ms", Median(run_ms), runs},
      {"core.run_max_ms", "ms", Quantile(run_ms, 1.0), runs},
      {"core.parallel_eff", "ratio",
       sweep_total > 0 ? busy / (sweep_total * workers) : 0.0, sweeps},
      {"core.sched_overhead_ms", "ms", (sweep_total - busy / workers) * per_sweep,
       sweeps},
      {"core.runs_executed", "count", per("sweep.runs_executed"), sweeps},
      {"core.runs_pruned", "count", per("sweep.runs_pruned"), sweeps},
      {"core.wavefronts", "count", per("sweep.wavefronts"), sweeps},
      {"core.steals", "count", per("sched.pf_steals"), sweeps},
      {"core.chunks", "count", per("sched.pf_chunks"), sweeps},
      {"sim.events", "count", per("sim.events"), sweeps},
      {"sim.queue_high_water", "count",
       static_cast<double>(DeltaValue(delta, "sim.queue_depth_high_water")), 1},
      {"serve.hit_frac", "ratio",
       requests > 0 ? static_cast<double>(hits) / static_cast<double>(requests)
                    : 0.0,
       requests},
      {"serve.joins", "count",
       static_cast<double>(DeltaValue(delta, "serve.cache.inflight_join")),
       requests},
      {"serve.miss_p50_ms", "ms", Median(untraced.miss_ms),
       static_cast<int64_t>(untraced.miss_ms.size())},
  };
}

json::JsonValue HostJson() {
  const obs::RunManifest m = obs::CollectRunManifest(0, "");
  json::JsonValue host = json::JsonValue::Object();
  (void)host.Insert("commit", json::JsonValue::Str(m.git_commit));
  (void)host.Insert("compiler", json::JsonValue::Str(m.compiler));
  (void)host.Insert("build_type", json::JsonValue::Str(m.build_type));
  (void)host.Insert("cpu_model", json::JsonValue::Str(m.cpu_model));
  (void)host.Insert("hardware_threads",
                    json::JsonValue::Int(m.hardware_threads));
  (void)host.Insert("hostname", json::JsonValue::Str(m.hostname));
  (void)host.Insert("created_at_utc", json::JsonValue::Str(m.created_at_utc));
  return host;
}

/// The process's set-up, up to its first timed operation: host facts
/// (into `host`), then the workload's inputs and, for serving, its booted
/// and warmed server.
Result<std::unique_ptr<Workload>> SetUp(const RunOptions& options,
                                        json::JsonValue* host) {
  *host = HostJson();
  std::unique_ptr<Workload> w = MakeScenarioWorkload(options);
  if (w == nullptr) w = MakeServeWorkload(options);
  if (w == nullptr) {
    return Status::InvalidArgument("unknown workload '" + options.workload +
                                   "'");
  }
  WT_RETURN_IF_ERROR(w->Setup(nullptr));
  return w;
}

struct Outcome {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload as one measured run (untraced, or untraced + traced +
/// probes) and writes its results file. `setup_s` holds the set-up times
/// of other processes of this run; this process's own is added to them.
Result<Outcome> RunWorkload(const RunOptions& options, bool trace,
                            std::vector<double> setup_s) {
  json::JsonValue host;
  WT_ASSIGN_OR_RETURN(std::unique_ptr<Workload> w, SetUp(options, &host));
  setup_s.push_back(obs::WallSecondsSince(options.start_nanos));
  const double phase_s = trace ? options.seconds / 2 : options.seconds;
  WT_ASSIGN_OR_RETURN(PhaseResult untraced, w->Run(phase_s));
  const double untraced_rss_mb = PeakRssMb();
  Outcome out;
  out.attempted = untraced.attempted;
  out.failed = untraced.failed + w->Verify();

  if (!trace) {
    out.metrics = EndToEndMetrics(setup_s, untraced);
  } else {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.set_enabled(true);
    RunLedger ledger;
    WT_RETURN_IF_ERROR(w->Setup(&ledger));
    ledger.Clear();  // serving set-up runs warm-up sweeps
    const obs::MetricsBaseline base = registry.CaptureBaseline();
    // 2^18 events (14 MiB) per recording thread holds a 10 s traced phase
    // of the busiest workloads without drops.
    obs::TraceEmitter::Default().Start(1 << 18);
    WT_ASSIGN_OR_RETURN(PhaseResult traced, w->Run(phase_s));
    obs::TraceEmitter::Default().Stop();
    const obs::MetricsSnapshot delta = registry.SnapshotDelta(base);
    out.attempted += traced.attempted;
    out.failed += traced.failed + w->Verify();
    out.metrics = TracedPhaseMetrics(untraced, untraced_rss_mb, traced,
                                     ledger, delta, w->sweep_workers());
    WT_RETURN_IF_ERROR(RunProbes(options, &out.metrics));
    WT_RETURN_IF_ERROR(obs::TraceEmitter::Default().WriteJson(
        options.out_dir + "/" + options.workload + ".trace.json"));
  }

  std::string golden = "skipped (seed is not 2014)";
  if (options.seed == kGoldenSeed) {
    const char* regen_env = std::getenv("WT_BENCH_REGEN_GOLDEN");
    const bool regen = regen_env != nullptr && std::string(regen_env) == "1";
    WT_ASSIGN_OR_RETURN(
        std::vector<std::string> mismatched,
        CheckGoldens(options.suite_dir + "/golden.txt", w->fingerprints(),
                     regen));
    golden = regen ? "regenerated" : "matched";
    if (!mismatched.empty()) {
      golden = "mismatched:";
      for (const std::string& key : mismatched) golden += " " + key;
      std::fprintf(stderr, "bench_suite: golden %s\n", golden.c_str());
    }
    out.failed += static_cast<int64_t>(mismatched.size());
  }
  out.correct = out.failed == 0 && out.attempted > 0;

  json::JsonValue doc = json::JsonValue::Object();
  (void)doc.Insert("suite", json::JsonValue::Str("bench_suite"));
  (void)doc.Insert("schema_version", json::JsonValue::Int(1));
  (void)doc.Insert("workload", json::JsonValue::Str(options.workload));
  (void)doc.Insert("seed", json::JsonValue::Int(static_cast<int64_t>(options.seed)));
  (void)doc.Insert("seconds", json::JsonValue::Number(options.seconds));
  (void)doc.Insert("trace", json::JsonValue::Int(trace ? 1 : 0));
  (void)doc.Insert("workers", json::JsonValue::Int(options.workers));
  (void)doc.Insert("host", std::move(host));
  (void)doc.Insert("correct", json::JsonValue::Bool(out.correct));
  (void)doc.Insert("attempted", json::JsonValue::Int(out.attempted));
  (void)doc.Insert("failed", json::JsonValue::Int(out.failed));
  (void)doc.Insert("golden", json::JsonValue::Str(golden));
  (void)doc.Insert("untraced_rss_peak_mb",
                   json::JsonValue::Number(untraced_rss_mb));
  json::JsonValue quantiles = json::JsonValue::Array();
  for (int i = 0; i <= 20; ++i) {
    quantiles.Append(
        json::JsonValue::Number(Quantile(untraced.answer_ms, i / 20.0)));
  }
  (void)doc.Insert("answer_ms_p0_to_p100_by_5", std::move(quantiles));
  json::JsonValue metrics = json::JsonValue::Array();
  for (const Metric& m : out.metrics) {
    json::JsonValue e = json::JsonValue::Object();
    (void)e.Insert("name", json::JsonValue::Str(m.name));
    (void)e.Insert("unit", json::JsonValue::Str(m.unit));
    (void)e.Insert("value", json::JsonValue::Number(m.value));
    (void)e.Insert("samples", json::JsonValue::Int(m.samples));
    metrics.Append(std::move(e));
  }
  (void)doc.Insert("metrics", std::move(metrics));
  (void)doc.Insert("detail", std::move(untraced.detail));
  const std::string path = StrFormat(
      "%s/%s-s%llu-t%d-%d.json", options.out_dir.c_str(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      trace ? 1 : 0, static_cast<int>(::getpid()));
  std::ofstream file(path, std::ios::trunc);
  file << doc.Serialize() << '\n';
  if (!file) return Status::Internal("cannot write " + path);
  return out;
}

std::string ResultLine(const Outcome& out) {
  json::JsonValue metrics = json::JsonValue::Object();
  for (const Metric& m : out.metrics) {
    json::JsonValue v = json::JsonValue::Object();
    (void)v.Insert("value", json::JsonValue::Number(m.value));
    (void)v.Insert("unit", json::JsonValue::Str(m.unit));
    (void)metrics.Insert(m.name, std::move(v));
  }
  json::JsonValue line = json::JsonValue::Object();
  (void)line.Insert("correct", json::JsonValue::Bool(out.correct));
  (void)line.Insert("attempted", json::JsonValue::Int(out.attempted));
  (void)line.Insert("failed", json::JsonValue::Int(out.failed));
  (void)line.Insert("metrics", std::move(metrics));
  return line.Serialize();
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_suite --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR]\n"
               "                   [--start-ns T] [--setup-samples S1,S2,...]\n"
               "       bench_suite --workload <name> --setup-only [--seed N] "
               "[--start-ns T]\n"
               "       bench_suite --smoke [--out DIR]\n"
               "workloads: fig1_cold des_whatif sweep_fine serve_mixed\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  options.start_nanos = obs::WallNanos();
  options.suite_dir = WT_BENCH_SUITE_DIR;
  options.out_dir = ".bench_build/results";
  options.workers = std::min(4, std::max(1, obs::DetectedHardwareThreads()));
  bool trace = false;
  bool setup_only = false;
  std::vector<double> setup_samples;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--start-ns" && has_value) {
      const long long start = std::strtoll(argv[++i], nullptr, 10);
      if (start <= 0 || start > options.start_nanos) return Usage();
      options.start_nanos = start;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--setup-samples" && has_value) {
      for (const std::string& v : StrSplit(argv[++i], ',')) {
        const double seconds = std::atof(v.c_str());
        if (!(seconds > 0)) return Usage();
        setup_samples.push_back(seconds);
      }
    } else {
      return Usage();
    }
  }
  if (!(options.seconds > 0) || (!options.smoke && options.workload.empty())) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_suite: cannot create %s: %s\n",
                 options.out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  obs::SetThisThreadLabel("main");

  if (setup_only) {
    json::JsonValue host;
    Result<std::unique_ptr<Workload>> w = SetUp(options, &host);
    if (!w.ok()) {
      std::fprintf(stderr, "bench_suite: %s\n", w.status().ToString().c_str());
      return 1;
    }
    std::printf("setup_s %.9f\n", obs::WallSecondsSince(options.start_nanos));
    return 0;
  }

  if (options.smoke) {
    // Every workload once at minimum length, at the golden seed, plus one
    // traced run (the cheapest workload) for the per-layer path and probes.
    options.seed = kGoldenSeed;
    std::vector<std::pair<std::string, bool>> runs;
    for (const char* name : kWorkloads) runs.emplace_back(name, false);
    runs.emplace_back("sweep_fine", true);
    bool all_correct = true;
    for (const auto& [name, traced] : runs) {
      options.workload = name;
      options.start_nanos = obs::WallNanos();
      Result<Outcome> out = RunWorkload(options, traced, {});
      const bool ok = out.ok() && out->correct;
      std::printf("smoke %-11s trace %d %s (%.1f s)\n", name.c_str(),
                  traced ? 1 : 0,
                  ok ? "ok" : (out.ok() ? "WRONG ANSWERS"
                                        : out.status().ToString().c_str()),
                  obs::WallSecondsSince(options.start_nanos));
      all_correct = all_correct && ok;
    }
    return all_correct ? 0 : 1;
  }

  Result<Outcome> out = RunWorkload(options, trace, std::move(setup_samples));
  if (!out.ok()) {
    std::fprintf(stderr, "bench_suite: %s\n", out.status().ToString().c_str());
    return 1;
  }
  for (const Metric& m : out->metrics) {
    std::printf("%-26s %14.6g %-6s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  std::printf("%s\n", ResultLine(*out).c_str());
  return 0;
}

}  // namespace
}  // namespace bench_suite
}  // namespace wt

int main(int argc, char** argv) { return wt::bench_suite::Main(argc, argv); }
