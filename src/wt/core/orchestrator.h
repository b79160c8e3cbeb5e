// RunOrchestrator: executes a design-space sweep — the wind tunnel's query
// engine (§4.2).
//
// The two scaling techniques the paper borrows from databases:
//  * optimization — order runs so that dominating configurations execute
//    first and SLA failures prune their dominated cone (DominanceIndex);
//  * parallelization — independent runs execute on a worker pool (each run
//    owns a private Simulator, so runs never share mutable state).
//
// The two compose deterministically: the sweep executes in wavefronts
// (epochs) derived from the static dominance relation. Within a wavefront
// no point can prune another, so its runs fan out onto the pool; pruning
// state advances only at epoch barriers, in point-index order. The result —
// statuses, metrics, pruned set, RNG substreams — is therefore a pure
// function of (space, hints, seed, replications): byte-identical for any
// num_workers.

#ifndef WT_CORE_ORCHESTRATOR_H_
#define WT_CORE_ORCHESTRATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "wt/core/design_space.h"
#include "wt/core/pruner.h"
#include "wt/sim/random.h"
#include "wt/sla/evaluator.h"

namespace wt {

namespace obs {
struct RunManifest;
}  // namespace obs

/// Executes one simulation run for a design point. Must be thread-safe
/// across distinct points (each call gets a private RngStream).
using RunFn =
    std::function<Result<MetricMap>(const DesignPoint&, RngStream&)>;

/// Outcome category of a scheduled run.
enum class RunStatus {
  kCompleted,  // simulated, metrics present
  kPruned,     // skipped: dominated by a failed configuration
  kError,      // RunFn returned an error
};

const char* RunStatusToString(RunStatus status);

/// One run's full record.
struct RunRecord {
  size_t run_id = 0;
  DesignPoint point;
  RunStatus status = RunStatus::kCompleted;
  MetricMap metrics;
  std::vector<SlaOutcome> sla_outcomes;
  bool sla_satisfied = false;
  std::string error;
  /// Provenance of the sweep this run belongs to (seed, config hash, git
  /// commit, toolchain, host, wall time) — one manifest shared by every
  /// record of a Sweep call. Persisted by StoreRunRecordTable as a
  /// "<table>__manifest" side table (wt/obs/manifest.h).
  std::shared_ptr<const obs::RunManifest> manifest;
};

/// Sweep execution knobs.
struct SweepOptions {
  /// Worker threads. Purely a throughput knob: sweep output (records,
  /// pruning decisions, RNG draws) is independent of num_workers.
  int num_workers = 1;
  /// Cap effective parallelism at the detected hardware concurrency
  /// (default on). Oversubscribed workers cannot add throughput — they
  /// only context-switch and evict each other's caches, which is how the
  /// original BENCH_e7 curve came to *degrade* with workers on a small
  /// host. Purely a scheduling decision: output bytes never change.
  /// Disable to force the full worker count through the pool (tests use
  /// this to pin byte-identity under genuine oversubscription).
  bool clamp_workers_to_hardware = true;
  uint64_t seed = 1;
  /// Honor MonotoneHints (disable to measure pruning savings — E6).
  bool enable_pruning = true;
  /// Independent replications per design point (distinct RNG substreams).
  /// With > 1, each metric is reported as the replicate mean and a
  /// "<metric>_se" standard-error metric is added, so SLA margins can be
  /// judged statistically ("statistically reason about the guarantees",
  /// §1). SLAs are evaluated on the means.
  int replications = 1;
  /// 16-hex FNV-1a of the scenario file this sweep was built from, or ""
  /// for sweeps not driven by a scenario. Provenance-only: copied into
  /// the RunManifest (never read by the sweep), so stored results record
  /// which scenario content produced them (DESIGN.md §9).
  std::string scenario_hash;
};

/// Provenance hash of a sweep configuration: FNV-1a over each point's
/// ToString text and each constraint's, one per line, in the order given,
/// as 16 hex digits. Sweep hashes its points in run (best-first) order for
/// the RunManifest's `config_hash`; serve::Server::CacheKeyFor hashes
/// space.AllPoints() in grid order inside the serve cache key. They agree
/// when there are no hints, since run order is then grid order.
std::string SweepConfigHash(const std::vector<DesignPoint>& points,
                            const std::vector<SlaConstraint>& constraints);

/// Aggregate sweep statistics.
struct SweepStats {
  size_t total_points = 0;
  size_t executed = 0;
  size_t pruned = 0;
  size_t errors = 0;
  /// Number of epochs the sweep executed in (1 when pruning is off or no
  /// hints are given; otherwise the depth of the dominance DAG).
  size_t wavefronts = 0;
};

/// Stateless engine: each Sweep call is independent.
class RunOrchestrator {
 public:
  explicit RunOrchestrator(SweepOptions options);

  /// Runs `fn` over every point of `space` (minus pruned ones), evaluates
  /// `constraints` on each result, and returns records in execution order.
  [[nodiscard]] Result<std::vector<RunRecord>> Sweep(
      const DesignSpace& space, const RunFn& fn,
      const std::vector<SlaConstraint>& constraints,
      const std::vector<MonotoneHint>& hints = {});

  /// Statistics of the most recent Sweep.
  const SweepStats& last_stats() const { return stats_; }

 private:
  SweepOptions options_;
  SweepStats stats_;
};

}  // namespace wt

#endif  // WT_CORE_ORCHESTRATOR_H_
