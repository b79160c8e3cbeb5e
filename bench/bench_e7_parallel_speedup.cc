// E7 — run-level parallelization (§4.2): wall-clock speedup of design-space
// sweeps as orchestrator workers increase, plus google-benchmark
// microbenchmarks of the pool and the DES engine.
//
// Three sweep variants chart the scaling fix:
//  * sweep_16pts_w{N}  — 16 Figure-1 points (closed-form Monte Carlo, no
//    DES events), the variant whose committed curve once *degraded* with
//    workers (0.386s @ w1 -> 0.569s @ w8 on a 1-thread host);
//  * sweep_64pts_w{N}  — 64 smaller points: many sub-10ms runs, the regime
//    where dispatch overhead dominates if scheduling is careless;
//  * sweep_8pts_r8_w{N} — 8 DES dynamic-availability points x 8 replicates
//    = 64 replicate-granularity tasks, the replicate-level parallelism
//    path; events_per_sec here is real simulated events from the
//    "sim.events" obs counter.
//
// Each (variant, workers) cell reports the minimum of WT_BENCH_REPS runs
// (default 3) — min-of-N is the standard noise filter for wall-clock
// benches. Every row's records are byte-identical to the sequential
// sweep's (wavefront scheduling + per-(seed,run_id,replicate) RNG; see
// sweep_fingerprint_test), so the only thing varying down a column is
// scheduling.
//
// Exits 1 when any variant's 8-worker time exceeds kMaxW8OverW1 times its
// 1-worker time: more workers must never cost wall time.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench_main.h"
#include "wt/common/macros.h"
#include "wt/common/result.h"
#include "wt/core/orchestrator.h"
#include "wt/core/thread_pool.h"
#include "wt/hw/failure.h"
#include "wt/obs/manifest.h"
#include "wt/obs/metrics.h"
#include "wt/obs/obs.h"
#include "wt/obs/wallclock.h"
#include "wt/sim/simulator.h"
#include "wt/soft/availability_dynamic.h"
#include "wt/soft/availability_static.h"

namespace {

// The orchestrator clamps parallelism to the machine, so on any host w8 <=
// w1 up to noise; 1.10 is the CI-runner noise margin for a ~0.4 s
// measurement (the bug this gates against was a 1.47x slowdown).
constexpr double kMaxW8OverW1 = 1.10;

// A moderately expensive run: one Figure 1 point (closed-form Monte Carlo —
// never enters the DES kernel, so its events_per_sec is honestly 0).
wt::RunFn Fig1Point(int trials_per_placement) {
  return [trials_per_placement](
             const wt::DesignPoint& p,
             wt::RngStream& rng) -> wt::Result<wt::MetricMap> {
    wt::StaticAvailabilityConfig cfg;
    cfg.num_nodes = 30;
    cfg.num_users = 10000;
    cfg.placement_samples = 4;
    cfg.trials_per_placement = trials_per_placement;
    cfg.seed = rng.NextU64();
    wt::ReplicationScheme scheme = wt::ReplicationScheme::Majority(3);
    wt::RandomPlacement placement;
    auto point = wt::EstimateStaticUnavailability(
        scheme, placement, cfg, static_cast<int>(p.GetInt("failures", 1)));
    return wt::MetricMap{{"p", point.p_any_unavailable}};
  };
}

// A DES run: dynamic availability with failures, repair traffic and flow
// cancellation — the event-queue hot path under a realistic model.
wt::RunFn DynamicPoint() {
  return [](const wt::DesignPoint& p,
            wt::RngStream& rng) -> wt::Result<wt::MetricMap> {
    wt::DynamicAvailabilityConfig cfg;
    cfg.datacenter.num_racks = 4;
    cfg.datacenter.nodes_per_rack = 8;
    cfg.storage.num_nodes = cfg.datacenter.num_nodes();
    cfg.storage.num_users = 2000;
    cfg.storage.object_size_gb = 2.0;
    cfg.redundancy = "replication(3)";
    cfg.repair.max_concurrent = static_cast<int>(p.GetInt("repair_par", 1));
    cfg.node_ttf = wt::MakeTtfFromAfr(0.40, 1.2);
    cfg.sim_years = 2.0;
    cfg.seed = rng.NextU64();
    WT_ASSIGN_OR_RETURN(wt::AvailabilityMetrics m,
                        wt::RunDynamicAvailability(cfg));
    return wt::MetricMap{{"unavail_frac", m.mean_unavailable_fraction},
                         {"repairs", static_cast<double>(m.repairs_completed)}};
  };
}

wt::DesignSpace IntSpace(const char* dim, int count, int modulus) {
  wt::DesignSpace space;
  std::vector<wt::Value> vs;
  for (int i = 1; i <= count; ++i) vs.emplace_back(i % modulus + 1);
  WT_CHECK(space.AddDimension(dim, vs).ok());
  return space;
}

int BenchReps() {
  if (const char* env = std::getenv("WT_BENCH_REPS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 3;
}

int64_t SimEventsCounterValue() {
  const wt::obs::MetricsSnapshot snap =
      wt::obs::MetricsRegistry::Default().Snapshot();
  const wt::obs::MetricsSnapshotEntry* e = snap.Find("sim.events");
  return e != nullptr ? e->value : 0;
}

// Runs one sweep variant across worker counts and prints its table of
// min-of-reps wall times; events/sec comes from the sim.events counter
// delta of the fastest rep (deterministic: every rep simulates the
// identical event sequence). Returns false when 8 workers took more than
// kMaxW8OverW1 times as long as 1.
bool RunSweepVariant(const std::string& base_name, const wt::DesignSpace& space,
                     const wt::RunFn& fn, int replications) {
  std::printf("%s: %zu points x %d replicate(s)\n", base_name.c_str(),
              space.size(), replications);
  std::printf("  %-9s %-12s %-9s %-14s\n", "workers", "seconds", "speedup",
              "events/sec");
  const int reps = BenchReps();
  const std::vector<int> worker_counts = {1, 2, 4, 8};
  // Reps are interleaved across worker counts (round-robin) rather than
  // run in per-count blocks: ambient load drift then biases every column
  // equally instead of whichever count happened to run during a spike.
  std::vector<double> best(worker_counts.size(), 0.0);
  std::vector<int64_t> events(worker_counts.size(), 0);
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t w = 0; w < worker_counts.size(); ++w) {
      wt::SweepOptions opts;
      opts.num_workers = worker_counts[w];
      opts.enable_pruning = false;
      opts.replications = replications;
      wt::RunOrchestrator orch(opts);
      const int64_t events0 = SimEventsCounterValue();
      const int64_t start = wt::obs::WallNanos();
      auto records = orch.Sweep(space, fn, {}, {});
      const double seconds = wt::obs::WallSecondsSince(start);
      WT_CHECK(records.ok());
      if (rep == 0 || seconds < best[w]) {
        best[w] = seconds;
        events[w] = SimEventsCounterValue() - events0;
      }
    }
  }
  for (size_t w = 0; w < worker_counts.size(); ++w) {
    std::printf("  %-9d %-12.3f %-9.2f %-14.3g\n", worker_counts[w], best[w],
                best[0] / best[w], static_cast<double>(events[w]) / best[w]);
  }
  std::printf("\n");
  const double w1 = best.front(), w8 = best.back();
  if (w8 <= w1 * kMaxW8OverW1) return true;
  std::fprintf(stderr,
               "E7 scaling gate: %s took %.3fs at 8 workers vs %.3fs at 1 "
               "(ratio %.2f > %.2f)\n",
               base_name.c_str(), w8, w1, w8 / w1, kMaxW8OverW1);
  return false;
}

// Prints the three sweep tables; false when any variant fails the scaling
// gate.
bool SweepWallClock() {
  using namespace wt;
  // Metrics on: the events_per_sec column needs the sim.events counter.
  // Counters are write-only sinks — they perturb no RNG or event order.
  obs::MetricsRegistry::Default().set_enabled(true);

  const int hw = obs::DetectedHardwareThreads();
  std::printf(
      "E7: design-space sweep wall clock vs worker threads "
      "(%d hardware thread%s detected)\n",
      hw, hw == 1 ? "" : "s");
  if (hw > 0 && hw < 8) {
    std::printf(
        "NOTE: fewer hardware threads than the largest worker count — the\n"
        "orchestrator clamps effective parallelism to the machine, so\n"
        "oversubscribed rows measure scheduling overhead (should be ~flat,\n"
        "never a slowdown), not speedup.\n");
  }
  std::printf("\n");

  // The historical variant: 16 moderately expensive Figure-1 points.
  bool scales = RunSweepVariant("sweep_16pts", IntSpace("failures", 16, 8),
                                Fig1Point(50), /*replications=*/1);
  // Many small runs: dispatch overhead would dominate here if unamortized.
  scales &= RunSweepVariant("sweep_64pts", IntSpace("failures", 64, 8),
                            Fig1Point(12), /*replications=*/1);
  // Replicate-heavy DES sweep: 8 points x 8 replicates = 64 independent
  // (point, replicate) tasks through the event-queue hot path.
  scales &= RunSweepVariant("sweep_8pts_r8", IntSpace("repair_par", 8, 4),
                            DynamicPoint(), /*replications=*/8);
  std::printf(
      "\nShape (paper §4.2): independent runs (and replicates) parallelize\n"
      "embarrassingly — speedup tracks min(workers, cores). Oversubscribed\n"
      "worker counts clamp to the hardware, so the curve is monotonically\n"
      "non-increasing on any host; every row's records are byte-identical\n"
      "to the sequential sweep's (see sweep_fingerprint_test).\n\n");
  return scales;
}

// Task-submission overhead: per-task Submit vs chunked ParallelFor, for
// many tiny tasks (the E7 sweep used to pay the per-Submit lock + wakeup
// once per design point). The pool threads do the work while the calling
// thread waits, so these report wall time: items/s over the calling
// thread's CPU time would overstate the rate.
constexpr int kTinyTasks = 1 << 14;

void BM_SubmitPerTask(benchmark::State& state) {
  wt::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::atomic<int> count{0};
    for (int i = 0; i < kTinyTasks; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.WaitIdle();
    benchmark::DoNotOptimize(count.load());
  }
  state.SetItemsProcessed(state.iterations() * kTinyTasks);
}
BENCHMARK(BM_SubmitPerTask)->Arg(4)->UseRealTime();

void BM_ParallelForChunked(benchmark::State& state) {
  wt::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, kTinyTasks, [&count](size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(count.load());
  }
  state.SetItemsProcessed(state.iterations() * kTinyTasks);
}
BENCHMARK(BM_ParallelForChunked)->Arg(4)->UseRealTime();

// Skewed costs for the claim counter: the work piles into the tail of the
// range, so participants that claim cheap front chunks come back for more
// while others are still busy in the tail.
void BM_ParallelForImbalanced(benchmark::State& state) {
  wt::ThreadPool pool(static_cast<int>(state.range(0)));
  constexpr int kItems = 1 << 10;
  for (auto _ : state) {
    std::atomic<int64_t> acc{0};
    pool.ParallelFor(
        0, kItems,
        [&acc](size_t i) {
          // Cost ramps with the index: an even static split of the range
          // would leave the last participant with most of the work.
          int64_t x = 0;
          for (size_t k = 0; k < i; ++k) x += static_cast<int64_t>(k);
          acc.fetch_add(x, std::memory_order_relaxed);
        },
        /*grain=*/1);
    benchmark::DoNotOptimize(acc.load());
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}
BENCHMARK(BM_ParallelForImbalanced)->Arg(4)->UseRealTime();

// DES engine microbenchmark: events/second through the kernel.
void BM_EventLoopThroughput(benchmark::State& state) {
  for (auto _ : state) {
    wt::Simulator sim;
    int64_t fired = 0;
    const int64_t kEvents = state.range(0);
    // Self-rescheduling chain keeps the heap small; measures dispatch cost.
    std::function<void()> tick = [&] {
      if (++fired < kEvents) sim.Schedule(wt::SimTime::Nanos(10), tick);
    };
    sim.Schedule(wt::SimTime::Nanos(10), tick);
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventLoopThroughput)->Arg(100000);

void BM_EventQueueChurn(benchmark::State& state) {
  // Wide heap: 10k pending events, push/pop churn.
  for (auto _ : state) {
    wt::Simulator sim;
    wt::RngStream rng(1);
    int64_t fired = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.Schedule(wt::SimTime::Nanos(rng.UniformInt(1, 1000000)),
                   [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueChurn);

// False for a run that times selected microbenchmarks: the sweep table,
// and its scaling gate, run only for the full bench (no
// --benchmark_filter) or the table alone (the filter NONE, as CI runs
// it), so timing one microbenchmark skips the slow sweeps.
// Read from argv before benchmark::Initialize consumes the flag:
// libbenchmark 1.6 has no GetBenchmarkFilter().
bool RunsSweepTable(int argc, char** argv) {
  constexpr std::string_view kFlag = "--benchmark_filter=";
  std::string_view filter = "NONE";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) == kFlag) filter = arg.substr(kFlag.size());
  }
  return filter == "NONE";
}

}  // namespace

int BenchMain(wt::bench::BenchContext& ctx) {
  // A traced run (WT_TRACE, set up by the bench_main.h harness) shows how
  // the claimed chunks spread over the orchestrator's worker lanes.
  const bool scales = !RunsSweepTable(ctx.argc, ctx.argv) || SweepWallClock();
  benchmark::Initialize(&ctx.argc, ctx.argv);
  benchmark::RunSpecifiedBenchmarks();
  return scales ? 0 : 1;
}
