// The serving workload, serve_mixed: many analysts ask what-if questions
// of one wt::serve::Server over its AF_UNIX wire protocol. The server runs
// in this process with 2 workers per sweep and at most 2 sweeps in flight;
// set-up warms 64 distinct queries. The load generator uses 3 threads, one
// connection each:
//
//   open loop, the first 80% of a run: hits arrive as a Poisson process
//     at 1,000/s over two connections, with Zipf(0.9) popularity over the
//     warmed queries, while misses (never-seen configurations of the same
//     shape and cost) arrive at 5/s on the third, so sweeps publish into
//     the ResultStore and SweepCache while hits read them. Every open-loop
//     request is an answer; the misses' own latency is kept apart;
//   closed loop, the last 20%: three connections send hits back to back,
//     which measures hit capacity.
//
// Generator rules: latency counts from each request's scheduled send
// time, so a stall is charged to every request it delays; a failed
// request counts as failed, never as a fast answer; the generator reports
// how late it sent.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "suite.h"
#include "wt/common/string_util.h"
#include "wt/core/thread_pool.h"
#include "wt/obs/trace.h"
#include "wt/obs/wallclock.h"
#include "wt/query/builtin_sims.h"
#include "wt/query/executor.h"
#include "wt/serve/client.h"
#include "wt/serve/server.h"
#include "wt/sim/distributions.h"
#include "wt/sim/random.h"

namespace wt {
namespace bench_suite {

std::string ServeQueryText(int64_t k) {
  // nodes and failures barely change the cost of a static estimate, users
  // does (linearly), so it moves by under 1% over a run's misses.
  return StrFormat(
      "EXPLORE replication IN [2, 3], placement IN ['random', 'round_robin'] "
      "SIMULATE static_availability WITH nodes = %lld, failures = %lld, "
      "users = %lld, trials = 60, placement_samples = 6 "
      "ORDER BY availability DESC",
      static_cast<long long>(12 + k % 32),
      static_cast<long long>(1 + (k / 32) % 4),
      static_cast<long long>(2000 + k / 128));
}

namespace {

constexpr int kWarmQueries = 64;
constexpr int kConnections = 3;
constexpr double kZipfS = 0.9;
constexpr int kWorkersPerSweep = 2;
/// Misses re-answered on the cold path by Verify().
constexpr size_t kVerifiedMisses = 8;
/// The generator sleeps until this long before a due time, then spins.
constexpr int64_t kSpinNanos = 100'000;

enum class Kind { kHit, kMiss };

struct OpenStream {
  Kind kind;
  double rate_per_s;
};

/// Open-loop traffic, one connection and thread each.
const OpenStream kOpenStreams[kConnections] = {
    {Kind::kHit, 500.0}, {Kind::kHit, 500.0}, {Kind::kMiss, 5.0}};
/// Share of a run spent in the open loop; the rest is the closed loop.
constexpr double kOpenShare = 0.8;

/// Waits until `due` (obs::WallNanos time): a host sleep to within
/// kSpinNanos, then a spin, so three generator threads do not burn three
/// of the host's cores between requests.
void PaceUntil(int64_t due) {
  for (;;) {
    const int64_t gap = due - obs::WallNanos();
    if (gap <= 0) return;
    if (gap > kSpinNanos) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(gap - kSpinNanos));  // wtlint: allow(determinism/sleep) -- load-generator pacing in host time; simulated time never reads it
    }
  }
}

/// "ok <cache> <rows> <wall_us>" → its fields; false on any other header.
bool ParseOkHeader(const std::string& header, std::string* cache,
                   long long* rows, long long* wall_us) {
  char outcome[16] = {0};
  if (std::sscanf(header.c_str(), "ok %15s %lld %lld", outcome, rows,
                  wall_us) != 3) {
    return false;
  }
  *cache = outcome;
  return true;
}

/// One request as the generator saw it.
struct Sample {
  Kind kind = Kind::kHit;
  bool ok = false;
  /// From the scheduled send time (open loop only).
  double latency_ms = 0.0;
  double server_ms = 0.0;
  double lag_us = 0.0;
};

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const RunOptions& options) : options_(options) {
    socket_path_ = StrFormat("%s/serve.%d.sock", options.out_dir.c_str(),
                             static_cast<int>(::getpid()));
    for (int k = 0; k < kWarmQueries; ++k) {
      hit_texts_.push_back(ServeQueryText(k));
    }
  }

  Status Setup(RunLedger* ledger) override {
    clients_.clear();
    server_.reset();
    tunnel_.reset();
    WindTunnelOptions tunnel_options;
    tunnel_options.seed = options_.seed;
    tunnel_ = std::make_unique<WindTunnel>(tunnel_options);
    WT_RETURN_IF_ERROR(RegisterSims(tunnel_.get(), ledger));
    serve::ServerOptions server_options;
    server_options.num_workers = kWorkersPerSweep;
    server_options.seed = options_.seed;
    server_options.max_inflight_sweeps = 2;
    server_ = std::make_unique<serve::Server>(tunnel_.get(), server_options);
    WT_RETURN_IF_ERROR(server_->Listen(socket_path_));
    for (int c = 0; c < kConnections; ++c) {
      WT_ASSIGN_OR_RETURN(serve::Client client,
                          serve::Client::Connect(socket_path_));
      clients_.push_back(std::move(client));
    }
    next_miss_.store(kWarmQueries, std::memory_order_relaxed);

    // Warm the 64 queries over all connections; their bytes are the
    // reference every later hit must reproduce.
    warm_.assign(kWarmQueries, "");
    std::atomic<int> next{0};
    std::atomic<int> failures{0};
    OnEachConnection([&](int c) {
      for (int k = next.fetch_add(1, std::memory_order_relaxed);
           k < kWarmQueries; k = next.fetch_add(1, std::memory_order_relaxed)) {
        Result<serve::Client::Reply> r = clients_[c].Query(hit_texts_[k]);
        if (!r.ok() || r->header.rfind("ok miss ", 0) != 0 ||
            !fingerprints_.Record(StrFormat("serve_warm_%02d", k),
                                  r->payload)) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        warm_[k] = r->payload;
      }
    });
    if (failures.load(std::memory_order_relaxed) != 0) {
      return Status::Internal(
          StrFormat("%d warm-up queries failed",
                    failures.load(std::memory_order_relaxed)));
    }
    return Status::OK();
  }

  Result<PhaseResult> Run(double seconds) override {
    const double open_s = options_.smoke ? 1.0 : kOpenShare * seconds;
    const double closed_s = options_.smoke ? 1.0 : (1.0 - kOpenShare) * seconds;
    PhaseResult out;

    // Phase A: open loop.
    std::vector<std::vector<Sample>> open(kConnections);
    const int64_t a0 = obs::WallNanos();
    const int64_t a_end = a0 + static_cast<int64_t>(open_s * 1e9);
    OnEachConnection([&](int c) { OpenLoop(c, a0, a_end, &open[c]); });

    // Phase B: closed loop.
    std::vector<std::vector<Sample>> closed(kConnections);
    const double cpu0 = CpuSeconds();
    const int64_t b0 = obs::WallNanos();
    const int64_t b_end = b0 + static_cast<int64_t>(closed_s * 1e9);
    OnEachConnection([&](int c) { ClosedLoop(c, b_end, &closed[c]); });
    const double closed_wall_s = MillisSince(b0) / 1e3;
    const double closed_cpu_ms = (CpuSeconds() - cpu0) * 1e3;

    std::vector<double> latency[2];
    std::vector<double> server_ms[2];
    std::vector<double> lag_us;
    for (const auto& stream : open) {
      for (const Sample& s : stream) {
        ++out.attempted;
        lag_us.push_back(s.lag_us);
        if (!s.ok) {
          ++out.failed;
          continue;
        }
        out.answer_ms.push_back(s.latency_ms);
        latency[static_cast<int>(s.kind)].push_back(s.latency_ms);
        server_ms[static_cast<int>(s.kind)].push_back(s.server_ms);
      }
    }
    int64_t closed_done = 0;
    for (const auto& stream : closed) {
      for (const Sample& s : stream) {
        ++out.attempted;
        if (!s.ok) {
          ++out.failed;
          continue;
        }
        ++closed_done;
      }
    }
    out.miss_ms = latency[static_cast<int>(Kind::kMiss)];
    out.sweep_ms = server_ms[static_cast<int>(Kind::kMiss)];
    out.answers_per_s = static_cast<double>(closed_done) / closed_wall_s;
    out.cpu_ms_per_answer =
        closed_cpu_ms / static_cast<double>(std::max<int64_t>(closed_done, 1));

    auto summary = [](std::vector<double> v) {
      json::JsonValue o = json::JsonValue::Object();
      (void)o.Insert("n", json::JsonValue::Int(static_cast<int64_t>(v.size())));
      (void)o.Insert("p50", json::JsonValue::Number(Quantile(v, 0.50)));
      (void)o.Insert("p90", json::JsonValue::Number(Quantile(v, 0.90)));
      (void)o.Insert("p99", json::JsonValue::Number(Quantile(v, 0.99)));
      return o;
    };
    const int hit = static_cast<int>(Kind::kHit);
    const int miss = static_cast<int>(Kind::kMiss);
    (void)out.detail.Insert("open_hit_latency_ms", summary(latency[hit]));
    (void)out.detail.Insert("open_miss_latency_ms", summary(latency[miss]));
    (void)out.detail.Insert("open_hit_server_ms", summary(server_ms[hit]));
    (void)out.detail.Insert("open_miss_server_ms", summary(server_ms[miss]));
    (void)out.detail.Insert("send_lag_us", summary(lag_us));
    (void)out.detail.Insert("closed_loop_requests",
                            json::JsonValue::Int(closed_done));
    const double lag_p99 = Quantile(lag_us, 0.99);
    if (lag_p99 > 1000.0) {
      std::fprintf(stderr,
                   "bench_suite: warning: generator send lag p99 %.0f us > "
                   "1 ms; the serving numbers are generator-bound\n",
                   lag_p99);
    }
    return out;
  }

  int64_t Verify() override {
    // A miss answer must be the bytes a cold ExecuteQuery produces for
    // the same query and seed (the serve layer's contract).
    int64_t wrong = 0;
    for (const auto& [k, payload] : misses_to_verify_) {
      WindTunnelOptions tunnel_options;
      tunnel_options.seed = options_.seed;
      tunnel_options.num_workers = kWorkersPerSweep;
      WindTunnel tunnel(tunnel_options);
      if (!RegisterBuiltinSimulations(&tunnel).ok()) {
        ++wrong;
        continue;
      }
      Result<QueryResult> r = RunQuery(&tunnel, ServeQueryText(k));
      if (!r.ok() || r->satisfying.ToCsv() != payload) ++wrong;
    }
    misses_to_verify_.clear();
    return wrong;
  }

  int sweep_workers() const override { return kWorkersPerSweep; }

 private:
  /// Runs `fn(c)` for every connection c, each on its own generator
  /// thread, and waits for all of them.
  void OnEachConnection(const std::function<void(int)>& fn) {
    for (int c = 0; c < kConnections; ++c) {
      generators_.Submit([&fn, c] { fn(c); });
    }
    generators_.WaitIdle();
  }

  /// Sends one request of `kind` on connection `c` and checks the reply.
  Sample Request(int c, Kind kind, RngStream& rng, const ZipfGenerator& zipf) {
    WT_TRACE_SCOPE("bench", "serve.request");
    Sample s;
    s.kind = kind;
    int64_t k = 0;
    std::string miss_text;
    if (kind == Kind::kHit) {
      k = zipf.Sample(rng);
    } else {
      k = next_miss_.fetch_add(1, std::memory_order_relaxed);
      miss_text = ServeQueryText(k);
    }
    Result<serve::Client::Reply> r = clients_[c].Query(
        kind == Kind::kHit ? hit_texts_[k] : miss_text);
    std::string cache;
    long long rows = 0;
    long long wall_us = 0;
    if (!r.ok() || !ParseOkHeader(r->header, &cache, &rows, &wall_us)) {
      return s;
    }
    s.server_ms = static_cast<double>(wall_us) / 1e3;
    if (kind == Kind::kHit) {
      s.ok = cache == "hit" && r->payload == warm_[k];
    } else {
      s.ok = cache == "miss" && rows > 0;
      if (s.ok) RememberMiss(k, r->payload);
    }
    return s;
  }

  void RememberMiss(int64_t k, const std::string& payload) {
    std::lock_guard<std::mutex> lock(verify_mu_);
    if (misses_to_verify_.size() < kVerifiedMisses) {
      misses_to_verify_.emplace_back(k, payload);
    }
  }

  void OpenLoop(int c, int64_t t0, int64_t t_end, std::vector<Sample>* out) {
    const OpenStream& stream = kOpenStreams[c];
    RngStream rng = RngStream(options_.seed).Substream(c + 1);
    const ZipfGenerator zipf(kWarmQueries, kZipfS);
    const double mean_gap_ns = 1e9 / stream.rate_per_s;
    int64_t due = t0;
    int64_t connection_free = t0;
    for (;;) {
      due += static_cast<int64_t>(-std::log(rng.NextDoubleOpen()) *
                                  mean_gap_ns);
      if (due >= t_end) break;
      PaceUntil(due);
      const int64_t sent = obs::WallNanos();
      Sample s = Request(c, stream.kind, rng, zipf);
      s.latency_ms = MillisSince(due);
      // Generator lateness only: waiting for this connection's previous
      // reply is the server's delay and already counts in the latency.
      s.lag_us =
          static_cast<double>(sent - std::max(due, connection_free)) / 1e3;
      connection_free = obs::WallNanos();
      out->push_back(s);
    }
  }

  void ClosedLoop(int c, int64_t t_end, std::vector<Sample>* out) {
    RngStream rng = RngStream(options_.seed).Substream(100 + c);
    const ZipfGenerator zipf(kWarmQueries, kZipfS);
    while (obs::WallNanos() < t_end) {
      out->push_back(Request(c, Kind::kHit, rng, zipf));
    }
  }

  RunOptions options_;
  std::string socket_path_;
  std::vector<std::string> hit_texts_;
  /// Warm-phase reply payload of each warmed query.
  std::vector<std::string> warm_;
  std::atomic<int64_t> next_miss_{kWarmQueries};
  std::mutex verify_mu_;
  std::vector<std::pair<int64_t, std::string>> misses_to_verify_;
  // Destroyed the (idle) generators first, then the clients, the server
  // and its tunnel.
  std::unique_ptr<WindTunnel> tunnel_;
  std::unique_ptr<serve::Server> server_;
  std::vector<serve::Client> clients_;
  ThreadPool generators_{kConnections};
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(const RunOptions& options) {
  if (options.workload != "serve_mixed") return nullptr;
  return std::make_unique<ServeWorkload>(options);
}

}  // namespace bench_suite
}  // namespace wt
