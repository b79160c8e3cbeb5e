// Machine-readable benchmark output: the perf trajectory.
//
// Each key bench writes a BENCH_<name>.json next to its stdout report so
// speedups are *recorded*, not asserted. The schema is deliberately tiny
// and append-only (new fields may be added; existing ones never change
// meaning):
//
//   {
//     "bench": "e11",
//     "commit": "<git short hash or 'unknown'>",
//     "schema_version": 2,
//     "host": {"compiler": "gcc 12.2.0", "build_type": "Release",
//              "cpu_model": "...", "hardware_threads": 16,
//              "hostname": "..."},
//     "warnings": ["..."],
//     "entries": [
//       {"name": "hold_model_16k", "wall_seconds": 1.23,
//        "events_per_sec": 4.5e6, "speedup_vs_seed": 2.7},
//       {"name": "sweep_16pts_w8", "wall_seconds": 0.38, "num_workers": 8,
//        "points_per_sec": 42.1, "events_per_sec": 0.0},
//       ...
//     ]
//   }
//
// Schema history:
//   v1 — name / wall_seconds / events_per_sec / optional speedup_vs_seed.
//   v2 — adds optional per-entry "points_per_sec" (design points per
//        second; sweep benches), "trials_per_sec" (Monte-Carlo paths) and
//        "num_workers", plus a top-level "warnings" array. Also fixes a v1 units bug: sweep benches used
//        to publish design-points/sec under "events_per_sec"; that field
//        now always means *simulated events* per second (from the
//        "sim.events" obs counter; 0.0 for models that never enter the
//        DES kernel, e.g. closed-form Monte Carlo paths). A warning is
//        auto-emitted when an entry's num_workers exceeds the detected
//        hardware threads — oversubscribed rows measure scheduling
//        overhead, not speedup, and must not be read as a scaling curve.
//   v3 — adds optional per-entry serving fields "p50_us" / "p95_us"
//        (request-latency quantiles in microseconds) and "qps" (requests
//        per second), introduced with the E13 serving bench. Entries that
//        are not request-shaped simply omit them.
//
// The "host" block comes from wt::obs::RunManifest (wt/obs/manifest.h), so
// a trajectory point records the toolchain and machine that produced it —
// cross-machine comparisons of absolute events/sec are meaningless without
// it.
//
// Committed BENCH_*.json files at the repo root seed the trajectory: every
// future perf PR re-runs the bench and compares events_per_sec against the
// checked-in numbers from the previous commit. CI uploads fresh copies as
// artifacts on every push (see .github/workflows/ci.yml, bench-smoke job).
//
// Output directory: $WT_BENCH_JSON_DIR if set, else the current directory.
// Commit id: $WT_BENCH_COMMIT if set, else `git rev-parse --short HEAD`,
// else "unknown" (benches must work from an unpacked artifact too).

#ifndef WT_BENCH_BENCH_JSON_H_
#define WT_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "wt/common/json.h"
#include "wt/obs/manifest.h"

namespace wt {
namespace bench {

struct BenchEntry {
  std::string name;
  double wall_seconds = 0.0;
  /// Simulated events per second from the "sim.events" obs counter. 0.0
  /// when the workload never enters the DES kernel (still emitted — an
  /// explicit zero beats a silently mislabeled number).
  double events_per_sec = 0.0;
  /// Design points per second; <= 0 means "not a sweep" and is omitted.
  double points_per_sec = 0.0;
  /// Monte-Carlo trials per second (closed-form availability paths);
  /// <= 0 means "not applicable" and is omitted.
  double trials_per_sec = 0.0;
  /// Orchestrator workers for this entry; <= 0 means "n/a" and is omitted.
  int num_workers = 0;
  /// Optional: ratio vs the frozen seed implementation measured in the same
  /// binary on the same machine; <= 0 means "not applicable" and is omitted.
  double speedup_vs_seed = 0.0;
  /// Request-latency quantiles in microseconds (serving benches);
  /// <= 0 means "not request-shaped" and is omitted.
  double p50_us = 0.0;
  double p95_us = 0.0;
  /// Requests per second over the entry's wall time; <= 0 omitted.
  double qps = 0.0;
};

inline std::string BenchCommit() { return obs::GitCommitOrUnknown(); }

/// Writes BENCH_<bench_name>.json; returns the path written (empty on
/// failure — benches report but never fail on a read-only filesystem).
/// An oversubscription warning (num_workers > hardware threads) is added
/// to `warnings` automatically.
inline std::string WriteBenchJson(const std::string& bench_name,
                                  const std::vector<BenchEntry>& entries,
                                  std::vector<std::string> warnings = {}) {
  std::string dir = ".";
  if (const char* env = std::getenv("WT_BENCH_JSON_DIR")) dir = env;
  std::string path = dir + "/BENCH_" + bench_name + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  // Host/toolchain provenance: absolute numbers only compare within one
  // (machine, toolchain) pair. Every string field goes through json::Quote:
  // a hostname, CPU model, commit or warning may hold any character.
  const obs::RunManifest host = obs::CollectRunManifest(0, "");
  int max_workers = 0;
  for (const BenchEntry& e : entries) {
    if (e.num_workers > max_workers) max_workers = e.num_workers;
  }
  if (host.hardware_threads > 0 && max_workers > host.hardware_threads) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "num_workers up to %d exceeds detected hardware_threads=%d:"
                  " oversubscribed entries measure scheduling overhead, not"
                  " speedup",
                  max_workers, host.hardware_threads);
    warnings.emplace_back(buf);
  }
  std::fprintf(f, "{\n  \"bench\": %s,\n  \"commit\": %s,\n",
               json::Quote(bench_name).c_str(),
               json::Quote(BenchCommit()).c_str());
  std::fprintf(f, "  \"schema_version\": 3,\n");
  std::fprintf(f,
               "  \"host\": {\"compiler\": %s, \"build_type\": %s, "
               "\"cpu_model\": %s, \"hardware_threads\": %d, "
               "\"hostname\": %s},\n",
               json::Quote(host.compiler).c_str(),
               json::Quote(host.build_type).c_str(),
               json::Quote(host.cpu_model).c_str(), host.hardware_threads,
               json::Quote(host.hostname).c_str());
  if (!warnings.empty()) {
    std::fprintf(f, "  \"warnings\": [\n");
    for (size_t i = 0; i < warnings.size(); ++i) {
      std::fprintf(f, "    %s%s\n", json::Quote(warnings[i]).c_str(),
                   i + 1 < warnings.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  }
  std::fprintf(f, "  \"entries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    std::fprintf(f,
                 "    {\"name\": %s, \"wall_seconds\": %.6f, "
                 "\"events_per_sec\": %.1f",
                 json::Quote(e.name).c_str(), e.wall_seconds, e.events_per_sec);
    if (e.points_per_sec > 0.0) {
      std::fprintf(f, ", \"points_per_sec\": %.1f", e.points_per_sec);
    }
    if (e.trials_per_sec > 0.0) {
      std::fprintf(f, ", \"trials_per_sec\": %.1f", e.trials_per_sec);
    }
    if (e.num_workers > 0) {
      std::fprintf(f, ", \"num_workers\": %d", e.num_workers);
    }
    if (e.speedup_vs_seed > 0.0) {
      std::fprintf(f, ", \"speedup_vs_seed\": %.3f", e.speedup_vs_seed);
    }
    if (e.p50_us > 0.0) std::fprintf(f, ", \"p50_us\": %.1f", e.p50_us);
    if (e.p95_us > 0.0) std::fprintf(f, ", \"p95_us\": %.1f", e.p95_us);
    if (e.qps > 0.0) std::fprintf(f, ", \"qps\": %.1f", e.qps);
    std::fprintf(f, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return path;
}

}  // namespace bench
}  // namespace wt

#endif  // WT_BENCH_BENCH_JSON_H_
