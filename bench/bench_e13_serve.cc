// E13 — what-if query serving (DESIGN.md §8): the wind tunnel as a
// service, load-tested end to end.
//
// Phases:
//   1. miss_inproc    — K distinct EXPLORE queries served cold; every one
//                       runs a sweep (CacheOutcome::kMiss).
//   2. hit_inproc     — the same K queries repeated; every request is
//                       answered from the SweepCache (kHit). The headline
//                       number: hit p50 must sit orders of magnitude under
//                       miss p50.
//   3. coalesce_8way  — 8 threads fire one identical *new* query
//                       concurrently; single-flight admission runs exactly
//                       one sweep (asserted via the serve.sweeps counter).
//   4. socket_closed_loop_c4 — 4 client connections on the AF_UNIX wire in
//                       closed loop over the warmed cache: wire-protocol
//                       overhead and serving throughput (qps).
//   5. socket_open_loop — one wire client issuing Poisson arrivals at a
//                       target rate (the open-loop discipline of
//                       wt/workload/perf_sim.h, applied to real wall time):
//                       latency under sustained load, not back-to-back.
//
// Latency quantiles are client-side ExactQuantiles over obs::WallMicros
// timestamps.
//
// Exits 1 when miss p50 / hit p50 < kMinMissOverHit, or when a p50 or p95
// of miss_inproc, hit_inproc or socket_closed_loop_c4 is not positive.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_main.h"
#include "wt/common/macros.h"
#include "wt/common/string_util.h"
#include "wt/obs/metrics.h"
#include "wt/obs/wallclock.h"
#include "wt/query/builtin_sims.h"
#include "wt/serve/client.h"
#include "wt/serve/server.h"
#include "wt/sim/random.h"
#include "wt/stats/histogram.h"

namespace {

using wt::serve::CacheOutcome;

constexpr int kDistinctQueries = 8;
constexpr int kHitRounds = 40;
constexpr int kCoalesceThreads = 8;
constexpr int kClosedLoopClients = 4;
constexpr int kClosedLoopPerClient = 150;
constexpr double kOpenLoopRate = 400.0;  // arrivals per second
constexpr int kOpenLoopRequests = 400;
// Cache-payoff gate: a served repeat must be at least this many times
// faster than a cold sweep at the median. Measured ratios run from about
// 500x to over 10,000x, so runner noise stays far from the bound.
constexpr double kMinMissOverHit = 100.0;

// The k-th query of the family: identical shape, distinct configuration
// (the placement_samples parameter lands in the config hash), so each k is
// its own sweep and its own cache entry. Heavy enough that a cold sweep
// costs tens of milliseconds — the cache has something real to save.
std::string QueryText(int k) {
  return wt::StrFormat(
      "EXPLORE nodes IN [10, 20], replication IN [2, 3] "
      "SIMULATE static_availability WITH trials = 60, failures = 2, "
      "placement_samples = %d "
      "ORDER BY availability DESC",
      8 + k);
}

double Seconds(int64_t us) { return static_cast<double>(us) * 1e-6; }

// False (with the reason on stderr) when either quantile is not positive:
// the phase measured nothing.
bool QuantilesPositive(const char* phase, wt::ExactQuantiles& lat) {
  const double p50 = lat.Quantile(0.5), p95 = lat.Quantile(0.95);
  if (p50 > 0 && p95 > 0) return true;
  std::fprintf(stderr,
               "E13 gate: %s p50 %.0f us, p95 %.0f us (not positive)\n",
               phase, p50, p95);
  return false;
}

}  // namespace

int BenchMain(wt::bench::BenchContext&) {
  using namespace wt;

  obs::MetricsRegistry::Default().set_enabled(true);

  WindTunnel tunnel;
  WT_CHECK(RegisterBuiltinSimulations(&tunnel).ok());
  serve::ServerOptions options;
  options.num_workers = 2;
  options.seed = 2014;
  options.max_inflight_sweeps = 2;
  serve::Server server(&tunnel, options);

  // -- Phase 1: cold misses ------------------------------------------------
  ExactQuantiles miss_lat;
  for (int k = 0; k < kDistinctQueries; ++k) {
    const int64_t t0 = obs::WallMicros();
    auto reply = server.Serve(QueryText(k));
    WT_CHECK(reply.ok()) << reply.status().ToString();
    WT_CHECK(reply->cache == CacheOutcome::kMiss);
    WT_CHECK(reply->rows > 0);
    miss_lat.Add(static_cast<double>(obs::WallMicros() - t0));
  }
  const double miss_p50 = miss_lat.Quantile(0.5);
  std::printf("E13 miss:     %d queries, p50 %.0f us, p95 %.0f us\n",
              kDistinctQueries, miss_p50, miss_lat.Quantile(0.95));

  // -- Phase 2: cache hits -------------------------------------------------
  ExactQuantiles hit_lat;
  for (int round = 0; round < kHitRounds; ++round) {
    for (int k = 0; k < kDistinctQueries; ++k) {
      const int64_t t0 = obs::WallMicros();
      auto reply = server.Serve(QueryText(k));
      WT_CHECK(reply.ok()) << reply.status().ToString();
      WT_CHECK(reply->cache == CacheOutcome::kHit);
      hit_lat.Add(static_cast<double>(obs::WallMicros() - t0));
    }
  }
  const double hit_p50 = hit_lat.Quantile(0.5);
  const double ratio = hit_p50 > 0 ? miss_p50 / hit_p50 : 0.0;
  std::printf("E13 hit:      %d requests, p50 %.0f us, p95 %.0f us "
              "(miss/hit p50 ratio %.0fx)\n",
              kHitRounds * kDistinctQueries, hit_p50, hit_lat.Quantile(0.95),
              ratio);

  // -- Phase 3: single-flight coalescing -----------------------------------
  const obs::MetricsBaseline before =
      obs::MetricsRegistry::Default().CaptureBaseline();
  const std::string coalesce_query = QueryText(kDistinctQueries);  // new
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kCoalesceThreads);
  for (int i = 0; i < kCoalesceThreads; ++i) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      if (!server.Serve(coalesce_query).ok()) failures.fetch_add(1);
    });
  }
  while (ready.load() < kCoalesceThreads) {
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  WT_CHECK(failures.load() == 0);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Default().SnapshotDelta(before);
  const obs::MetricsSnapshotEntry* sweeps = delta.Find("serve.sweeps");
  WT_CHECK(sweeps != nullptr && sweeps->value == 1)
      << "coalescing must run exactly one sweep";
  std::printf("E13 coalesce: %d concurrent identical queries -> %lld sweep\n",
              kCoalesceThreads, static_cast<long long>(sweeps->value));

  // -- Phase 4: wire protocol, closed loop ---------------------------------
  const std::string socket_path = "e13_serve.sock";  // cwd-relative
  WT_CHECK(server.Listen(socket_path).ok());
  ExactQuantiles wire_lat;
  std::mutex wire_mu;
  std::atomic<int> wire_failures{0};
  const int64_t wire_t0 = obs::WallMicros();
  std::vector<std::thread> clients;
  clients.reserve(kClosedLoopClients);
  for (int c = 0; c < kClosedLoopClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = serve::Client::Connect(socket_path);
      if (!client.ok()) {
        wire_failures.fetch_add(1);
        return;
      }
      std::vector<double> local;
      local.reserve(kClosedLoopPerClient);
      for (int i = 0; i < kClosedLoopPerClient; ++i) {
        const int k = (c + i) % kDistinctQueries;
        const int64_t t0 = obs::WallMicros();
        auto reply = client->Query(QueryText(k));
        const int64_t dt = obs::WallMicros() - t0;
        if (!reply.ok() || !reply->ok()) {
          wire_failures.fetch_add(1);
          return;
        }
        local.push_back(static_cast<double>(dt));
      }
      std::lock_guard<std::mutex> lock(wire_mu);
      for (double v : local) wire_lat.Add(v);
    });
  }
  for (std::thread& t : clients) t.join();
  const double wire_wall = Seconds(obs::WallMicros() - wire_t0);
  WT_CHECK(wire_failures.load() == 0);
  const int wire_total = kClosedLoopClients * kClosedLoopPerClient;
  std::printf("E13 wire:     %d requests over %d connections, %.0f qps, "
              "p50 %.0f us\n",
              wire_total, kClosedLoopClients, wire_total / wire_wall,
              wire_lat.Quantile(0.5));

  // -- Phase 5: wire protocol, open loop -----------------------------------
  // Poisson arrivals at kOpenLoopRate against the warmed cache — the
  // open-loop client discipline of the perf simulation, pointed at real
  // wall time. A request whose arrival slot is already past is sent
  // immediately (standard open-loop backlog semantics).
  {
    auto client = serve::Client::Connect(socket_path);
    WT_CHECK(client.ok()) << client.status().ToString();
    RngStream arrivals(options.seed);
    ExactQuantiles open_lat;
    double next_us = static_cast<double>(obs::WallMicros());
    for (int i = 0; i < kOpenLoopRequests; ++i) {
      next_us += -std::log(arrivals.NextDoubleOpen()) / kOpenLoopRate * 1e6;
      while (static_cast<double>(obs::WallMicros()) < next_us) {
        // spin: sub-ms gaps, and host sleeps are banned repo-wide
      }
      const int k = i % kDistinctQueries;
      const int64_t t0 = obs::WallMicros();
      auto reply = client->Query(QueryText(k));
      WT_CHECK(reply.ok() && reply->ok());
      open_lat.Add(static_cast<double>(obs::WallMicros() - t0));
    }
    std::printf("E13 open:     %d requests at %.0f/s target, p50 %.0f us, "
                "p95 %.0f us\n",
                kOpenLoopRequests, kOpenLoopRate, open_lat.Quantile(0.5),
                open_lat.Quantile(0.95));
  }
  server.Shutdown();

  bool ok = QuantilesPositive("miss_inproc", miss_lat);
  ok &= QuantilesPositive("hit_inproc", hit_lat);
  ok &= QuantilesPositive("socket_closed_loop_c4", wire_lat);
  if (!(ratio >= kMinMissOverHit)) {
    std::fprintf(stderr,
                 "E13 gate: cache hit only %.0fx faster than miss (< %.0fx)\n",
                 ratio, kMinMissOverHit);
    ok = false;
  }
  return ok ? 0 : 1;
}
