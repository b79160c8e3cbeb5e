// RunManifest: provenance for a simulation run or sweep.
//
// Answers "what exactly produced these numbers?" — the seed, the code
// version, the toolchain, the host — so RunRecords, persisted result
// tables, and bench_suite results are comparable across machines and
// commits (DESIGN.md § Observability). Host and toolchain facts are
// collected once per process; per-sweep fields (seed, config hash, wall
// time) are filled by the orchestrator.

#ifndef WT_OBS_MANIFEST_H_
#define WT_OBS_MANIFEST_H_

#include <cstdint>
#include <string>

#include "wt/store/result_store.h"

namespace wt {
namespace obs {

/// Provenance of one sweep / benchmark invocation.
struct RunManifest {
  /// Root RNG seed of the sweep (0 when not applicable).
  uint64_t seed = 0;
  /// FNV-1a hex hash of the run configuration (design space + constraints).
  std::string config_hash;
  /// FNV-1a hex hash of the scenario file the sweep was built from
  /// (DESIGN.md §9); empty when the sweep was not scenario-driven.
  std::string scenario_hash;
  /// Git short hash ($WT_BENCH_COMMIT, else `git rev-parse`, else
  /// "unknown").
  std::string git_commit;
  /// Compiler id + version, e.g. "gcc 12.2.0".
  std::string compiler;
  /// CMake build type baked in at compile time ("RelWithDebInfo", ...).
  std::string build_type;
  /// CPU model string from /proc/cpuinfo ("unknown" off Linux).
  std::string cpu_model;
  int hardware_threads = 0;
  std::string hostname;
  /// UTC wall-clock time the manifest was collected, ISO-8601.
  std::string created_at_utc;
  /// Wall-clock duration of the run; filled in at completion.
  double wall_seconds = 0.0;
};

/// Hardware threads of this host: the larger positive answer of
/// std::thread::hardware_concurrency() and sysconf(_SC_NPROCESSORS_ONLN),
/// or 0 when both are unavailable. Cached in the manifest host facts; also
/// used by the orchestrator to avoid oversubscribing sweeps and by benches
/// to flag oversubscribed measurements.
int DetectedHardwareThreads();

/// Collects a manifest: cached host/toolchain facts plus the given
/// per-run fields. Cheap after the first call in a process.
RunManifest CollectRunManifest(uint64_t seed, std::string config_hash);

/// Persists `m` as a two-column (key:string, value:string) table named
/// `table` in `store` — the round-trippable wt::store form.
[[nodiscard]] Status StoreManifest(ResultStore* store, const std::string& table,
                     const RunManifest& m);

/// Reads a manifest previously written by StoreManifest (possibly after a
/// save/load cycle through wt/store/persistence).
[[nodiscard]] Result<RunManifest> LoadManifest(const ResultStore& store,
                                 const std::string& table);

/// Conventional name of the manifest side table for sweep table `table`.
inline std::string ManifestTableName(const std::string& table) {
  return table + "__manifest";
}

}  // namespace obs
}  // namespace wt

#endif  // WT_OBS_MANIFEST_H_
