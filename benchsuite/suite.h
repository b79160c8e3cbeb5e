// bench_suite: the one benchmark every performance claim in this repo is
// measured with (benchsuite/README.md). Shared types of the suite's three
// translation units: the main program (bench_suite.cc), the workloads
// (scenario_workloads.cc, serve_workloads.cc) and the per-layer probes
// (probes.cc).
//
// The suite measures every layer from outside: it times calls into each
// layer's public functions and reads the counters the library already
// emits (sim.*, sweep.*, sched.*, serve.*). Nothing here is linked into the
// library.

#ifndef WT_BENCHSUITE_SUITE_H_
#define WT_BENCHSUITE_SUITE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "wt/common/json.h"
#include "wt/common/result.h"
#include "wt/core/wind_tunnel.h"

namespace wt {
namespace bench_suite {

/// Seed whose answers the committed golden fingerprints describe.
inline constexpr uint64_t kGoldenSeed = 2014;

/// What every workload and probe of one run shares.
struct RunOptions {
  std::string workload;
  /// Replaces every tunnel seed (including a scenario file's pinned one)
  /// and seeds the load generator's arrival and popularity streams.
  uint64_t seed = kGoldenSeed;
  /// Length of one measured phase (BENCHMARK.json run_seconds).
  double seconds = 20.0;
  /// Sweep workers: min(4, hardware threads).
  int workers = 1;
  /// Directory for results files, traces and the serve socket.
  std::string out_dir;
  /// benchsuite/ source directory (golden.txt, sweep_fine.json); its
  /// parent holds the scenarios/ corpus.
  std::string suite_dir;
  /// Minimum-length run (one answer per loop, one-second serve phases).
  bool smoke = false;
  /// obs::WallNanos() time at which this process started: set-up is timed
  /// from here to the first timed operation.
  int64_t start_nanos = 0;
};

/// Nearest-rank quantile of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Process CPU time (user + system) in seconds.
double CpuSeconds();

/// Monotonic milliseconds since `t0_nanos` (an obs::WallNanos reading).
double MillisSince(int64_t t0_nanos);

/// Times every call of the RunFns it wraps: the suite's view of the
/// core↔models boundary. Thread-safe (runs execute on sweep workers).
class RunLedger {
 public:
  /// `fn` with its wall time recorded into this ledger.
  RunFn Wrap(RunFn fn);
  /// Wall time of every wrapped call since construction or Clear(), in ms.
  std::vector<double> RunMillis() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<double> run_ms_;
};

/// Registers the built-in simulations on `tunnel`. Without a ledger this
/// is RegisterBuiltinSimulations; with one, each simulation is wrapped by
/// the ledger (model declarations are skipped: sweeps do not read them).
[[nodiscard]] Status RegisterSims(WindTunnel* tunnel, RunLedger* ledger);

/// Answer fingerprints (FNV-1a of CSV bytes) of one run: every repeat of
/// an answer must equal its first occurrence, and at kGoldenSeed the
/// first occurrences must equal benchsuite/golden.txt.
class Fingerprints {
 public:
  /// Records `csv` under `key`. False when `key` was seen with other bytes.
  bool Record(const std::string& key, const std::string& csv);
  /// Every key's fingerprint; read only once the recording threads joined.
  const std::map<std::string, uint64_t>& all() const { return fnv_; }

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> fnv_;
};

/// Keys of `fp` whose fingerprint differs from (or is missing in) the
/// golden file at `path`. With `regen`, instead writes the run's keys into
/// the file (other keys are kept) and returns none.
[[nodiscard]] Result<std::vector<std::string>> CheckGoldens(
    const std::string& path, const Fingerprints& fp, bool regen);

/// Everything one measured phase of a workload produced.
struct PhaseResult {
  /// Latency of each answer — the workload's unit of work — in ms.
  std::vector<double> answer_ms;
  /// Wall time of each cold sweep, in ms (the denominator of the
  /// per-layer orchestration ratios).
  std::vector<double> sweep_ms;
  /// Serving only: latency of each open-loop miss, in ms (also in
  /// answer_ms, where hits outnumber them 200 to 1).
  std::vector<double> miss_ms;
  /// Answers per second of the phase's throughput measurement.
  double answers_per_s = 0.0;
  /// Process CPU ms per answer over the same measurement.
  double cpu_ms_per_answer = 0.0;
  /// Operations (queries or requests) attempted, and those that failed or
  /// answered wrong bytes.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Workload-specific numbers for the results file.
  json::JsonValue detail = json::JsonValue::Object();
};

/// One named workload. Each runs in its own process.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's inputs (and, for serving, a warmed server
  /// whose simulations are wrapped by `ledger` when non-null). A traced
  /// run calls it again before its traced phase.
  [[nodiscard]] virtual Status Setup(RunLedger* ledger) = 0;
  /// Measures for `seconds` of wall time.
  [[nodiscard]] virtual Result<PhaseResult> Run(double seconds) = 0;
  /// Checks run after every phase (e.g. misses against the cold path).
  /// Returns the number of wrong answers found.
  virtual int64_t Verify() { return 0; }
  /// Cold-sweep workers (the parallel-efficiency denominator).
  virtual int sweep_workers() const = 0;
  const Fingerprints& fingerprints() const { return fingerprints_; }

 protected:
  Fingerprints fingerprints_;
};

/// Query k of the serving workloads' family: every k is a distinct sweep
/// configuration of the same shape and cost (4 static_availability
/// points).
std::string ServeQueryText(int64_t k);

/// fig1_cold, des_whatif, sweep_fine; null for other names.
std::unique_ptr<Workload> MakeScenarioWorkload(const RunOptions& options);
/// serve_mixed; null for other names.
std::unique_ptr<Workload> MakeServeWorkload(const RunOptions& options);

/// A reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  int64_t samples = 0;
};

/// Runs the fixed per-layer probes (direct calls into layer public
/// functions on fixed inputs) and appends their metrics. Expects the
/// metrics registry to be enabled (sim.* counters).
[[nodiscard]] Status RunProbes(const RunOptions& options,
                               std::vector<Metric>* out);

}  // namespace bench_suite
}  // namespace wt

#endif  // WT_BENCHSUITE_SUITE_H_
