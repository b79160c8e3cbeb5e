#include "wt/core/orchestrator.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "wt/common/macros.h"
#include "wt/core/thread_pool.h"
#include "wt/obs/manifest.h"
#include "wt/obs/metrics.h"
#include "wt/obs/trace.h"
#include "wt/obs/wallclock.h"
#include "wt/stats/welford.h"

namespace wt {

const char* RunStatusToString(RunStatus status) {
  switch (status) {
    case RunStatus::kCompleted:
      return "completed";
    case RunStatus::kPruned:
      return "pruned";
    case RunStatus::kError:
      return "error";
  }
  return "?";
}

RunOrchestrator::RunOrchestrator(SweepOptions options) : options_(options) {
  WT_CHECK(options.num_workers >= 1);
  WT_CHECK(options.replications >= 1);
}

std::string SweepConfigHash(const std::vector<DesignPoint>& points,
                            const std::vector<SlaConstraint>& constraints) {
  // One buffer, sized from the first point's line: grid points render to
  // similar lengths, and a quarter spare covers the longer ones.
  std::string buf;
  for (const DesignPoint& p : points) {
    p.AppendTo(&buf);
    buf += '\n';
    if (&p == &points.front()) buf.reserve(buf.size() * points.size() * 5 / 4);
  }
  for (const SlaConstraint& c : constraints) {
    buf += c.ToString();
    buf += '\n';
  }
  char out[20];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(buf)));
  return out;
}

Result<std::vector<RunRecord>> RunOrchestrator::Sweep(
    const DesignSpace& space, const RunFn& fn,
    const std::vector<SlaConstraint>& constraints,
    const std::vector<MonotoneHint>& hints) {
  if (space.size() == 0) {
    return Status::InvalidArgument("empty design space");
  }
  WT_TRACE_SCOPE("orchestrator", "sweep");
  const int64_t sweep_wall0 = obs::WallNanos();
  // Wavefront (epoch) schedule over the best-first order. Two properties
  // make the sweep worker-count-invariant:
  //  * every potential pruner of a point sits in a strictly earlier
  //    wavefront, so by the time a point's pruning check runs, all failures
  //    that could affect it are already committed — identical to a serial
  //    sweep;
  //  * points within one wavefront cannot prune each other, so they are
  //    independent and fan out onto the pool in any order.
  // The index compares points only within a bucket of equal non-hinted
  // values, so building the schedule costs the sum of squared bucket sizes.
  //
  // Waves never merge beyond this: by construction every point of wave k
  // has a potential pruner in wave k-1, so any two consecutive non-trivial
  // waves carry a real ordering dependency. The one sound collapse is a
  // sweep that cannot prune (no hints, no constraints so nothing can fail,
  // or pruning off): the whole sweep is a single wave with zero epoch
  // barriers, and the index builds no buckets.
  DominanceIndex index(
      space, hints,
      options_.enable_pruning && !hints.empty() && !constraints.empty());
  std::vector<DesignPoint> points;
  points.reserve(index.order().size());
  for (size_t grid : index.order()) points.push_back(space.PointAt(grid));
  const std::vector<std::vector<size_t>> waves = index.Wavefronts();

  std::vector<RunRecord> records(points.size());
  RngStream root(options_.seed);

  // One provenance manifest per Sweep call, shared by every record. The
  // manifest is observability-only: it is written once here (and its wall
  // time patched at the end), never read by the sweep itself.
  auto manifest = std::make_shared<obs::RunManifest>(obs::CollectRunManifest(
      options_.seed, SweepConfigHash(points, constraints)));
  manifest->scenario_hash = options_.scenario_hash;
  for (RunRecord& rec : records) rec.manifest = manifest;

  // Effective parallelism. Workers beyond the hardware's thread count can
  // only time-slice — they add context switches and cache eviction, never
  // throughput (the measured BENCH_e7 anti-speedup) — so by default the
  // schedule is capped at the machine. The ThreadPool's ParallelFor has the
  // calling thread participate, so `effective` ways of parallelism need
  // only `effective - 1` pool threads.
  int effective = options_.num_workers;
  const int hw = obs::DetectedHardwareThreads();
  if (options_.clamp_workers_to_hardware && hw > 0) {
    effective = std::min(effective, hw);
  }
  std::unique_ptr<ThreadPool> pool;
  if (effective > 1) {
    pool = std::make_unique<ThreadPool>(effective - 1);
  }

  const size_t reps = static_cast<size_t>(options_.replications);
  size_t wave_index = 0;
  for (const std::vector<size_t>& wave : waves) {
    WT_TRACE_SCOPE_ARG("orchestrator", "wavefront", "index",
                       static_cast<int64_t>(wave_index));
    ++wave_index;
    // Epoch barrier, phase 1 (serial, point-index order): pruning decisions
    // against the failure set frozen at this boundary.
    std::vector<size_t> runnable;
    runnable.reserve(wave.size());
    for (size_t idx : wave) {
      RunRecord& rec = records[idx];
      rec.run_id = idx;
      rec.point = std::move(points[idx]);
      if (index.IsDominated(idx)) {
        rec.status = RunStatus::kPruned;
        rec.sla_satisfied = false;
        WT_TRACE_INSTANT_ARG("orchestrator", "pruned", "run_id",
                             static_cast<int64_t>(idx));
      } else {
        runnable.push_back(idx);
      }
    }
    // Phase 2: a wave of P runnable points with R replications is P*R
    // independent (point, replicate) tasks. Task t touches only
    // outcomes[t] and derives its randomness from (seed, run_id,
    // replicate) — no shared mutable state, no locks, no dependence on
    // which thread runs it or when.
    std::vector<Result<MetricMap>> outcomes(runnable.size() * reps,
                                            MetricMap{});
    auto run_task = [&](size_t t) {
      const size_t idx = runnable[t / reps];
      WT_TRACE_SCOPE_ARG("orchestrator", "run", "run_id",
                         static_cast<int64_t>(idx));
      RngStream rng = root.Substream(static_cast<uint64_t>(idx),
                                     static_cast<uint64_t>(t % reps));
      outcomes[t] = fn(records[idx].point, rng);
    };
    if (pool) {
      pool->ParallelFor(0, outcomes.size(), run_task);
    } else {
      for (size_t t = 0; t < outcomes.size(); ++t) run_task(t);
    }
    // Phase 3 (serial, (point, replicate) order): reduce each point's
    // replicates. The first failing replicate wins, and the mean/_se
    // arithmetic sees the replicates in replicate order, so record bytes
    // are identical for any worker count and any claim schedule.
    for (size_t k = 0; k < runnable.size(); ++k) {
      RunRecord& rec = records[runnable[k]];
      Result<MetricMap>* first = &outcomes[k * reps];
      Result<MetricMap>* last = first + reps;
      const Result<MetricMap>* failed = std::find_if(
          first, last, [](const Result<MetricMap>& r) { return !r.ok(); });
      if (failed != last) {
        rec.status = RunStatus::kError;
        rec.error = failed->status().ToString();
        continue;
      }
      if (reps == 1) {
        rec.metrics = std::move(*first).value();
      } else {
        std::map<std::string, RunningStats> agg;
        for (const Result<MetricMap>* r = first; r != last; ++r) {
          for (const auto& [name, value] : **r) agg[name].Add(value);
        }
        for (const auto& [name, stats] : agg) {
          rec.metrics[name] = stats.mean();
          rec.metrics[name + "_se"] = stats.stderr_mean();
        }
      }
      auto sla = EvaluateConstraints(constraints, rec.metrics);
      if (!sla.ok()) {
        rec.status = RunStatus::kError;
        rec.error = sla.status().ToString();
        continue;
      }
      rec.sla_outcomes = std::move(sla).value();
      rec.sla_satisfied = AllSatisfied(rec.sla_outcomes);
    }
    // Phase 4 (serial, point-index order): commit this epoch's SLA failures
    // to the index. This is the ONLY place pruning state changes, so the
    // pruned set depends on the wavefront structure alone, never on worker
    // count or completion order.
    for (size_t idx : wave) {
      const RunRecord& rec = records[idx];
      if (rec.status == RunStatus::kCompleted && !rec.sla_satisfied) {
        index.RecordFailure(idx);
      }
    }
  }

  stats_ = SweepStats{};
  stats_.total_points = points.size();
  stats_.wavefronts = waves.size();
  for (const RunRecord& rec : records) {
    switch (rec.status) {
      case RunStatus::kCompleted:
        ++stats_.executed;
        break;
      case RunStatus::kPruned:
        ++stats_.pruned;
        break;
      case RunStatus::kError:
        ++stats_.errors;
        break;
    }
  }
  manifest->wall_seconds = obs::WallSecondsSince(sweep_wall0);
  obs::CountIfEnabled("sweep.points", static_cast<int64_t>(stats_.total_points));
  obs::CountIfEnabled("sweep.runs_executed",
                      static_cast<int64_t>(stats_.executed));
  obs::CountIfEnabled("sweep.runs_pruned", static_cast<int64_t>(stats_.pruned));
  obs::CountIfEnabled("sweep.runs_errors", static_cast<int64_t>(stats_.errors));
  obs::CountIfEnabled("sweep.wavefronts",
                      static_cast<int64_t>(stats_.wavefronts));
  return records;
}

}  // namespace wt
