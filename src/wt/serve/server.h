// Server: concurrent what-if query serving (DESIGN.md §8).
//
// The wind tunnel as a service: many clients ask EXPLORE queries at once;
// repeated questions are answered from the SweepCache in microseconds,
// new questions run exactly one sweep each (AdmissionQueue single-flight)
// with bounded simulation concurrency. Answers are byte-identical to the
// cold path because every stage after the sweep — table construction
// (StoreRunRecordTable) and post-processing (PostprocessSweepTable) — is
// the same code the direct executor runs, applied to the same immutable
// stored table.
//
// Two front ends share one serving core:
//  * in-process — Serve(text) for embedding and tests;
//  * wire — Listen(socket_path) accepts connections on an AF_UNIX stream
//    socket speaking the wt/serve/wire.h frame protocol, one thread per
//    connection (wtq --serve / --connect).
//
// Consistency rules: the WindTunnel's simulation registry must not change
// while the server runs (registration is a setup-phase operation); the
// ResultStore is shared and safe (copy-on-publish, see
// wt/store/result_store.h); each cold sweep runs on a PRIVATE
// RunOrchestrator so concurrent sweeps never share mutable engine state.

#ifndef WT_SERVE_SERVER_H_
#define WT_SERVE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "wt/core/wind_tunnel.h"
#include "wt/query/executor.h"
#include "wt/serve/admission_queue.h"
#include "wt/serve/sweep_cache.h"
#include "wt/serve/wire.h"

namespace wt {
namespace serve {

/// Serving knobs. The sweep-shaping fields (seed, replications, pruning,
/// workers-per-sweep) are part of every cache key except num_workers,
/// which never changes sweep output (orchestrator determinism).
struct ServerOptions {
  /// Worker threads per sweep (passed to each cold sweep's orchestrator).
  int num_workers = 1;
  uint64_t seed = 1;
  bool enable_pruning = true;
  int replications = 1;
  /// Cold sweeps allowed to simulate concurrently; further distinct
  /// queries wait FIFO (AdmissionQueue).
  int max_inflight_sweeps = 2;
};

/// How a request was satisfied.
enum class CacheOutcome {
  kHit,   // answered from the SweepCache, no admission taken
  kMiss,  // this request ran the sweep (single-flight leader)
  kJoin,  // waited on an identical in-flight sweep, shared its result
};

const char* CacheOutcomeToString(CacheOutcome outcome);

/// One served answer.
struct ServeReply {
  /// The satisfying rows as CSV — the bytes a cold ExecuteQuery would
  /// produce for the same query.
  std::string csv;
  size_t rows = 0;
  /// ResultStore table backing the answer ("serve_<cache key>").
  std::string sweep_table;
  SweepStats stats;
  CacheOutcome cache = CacheOutcome::kMiss;
  int64_t wall_us = 0;
};

/// See the file comment. Thread-safe: Serve may be called from any number
/// of threads, concurrently with the wire front end.
class Server {
 public:
  /// `tunnel` outlives the server; its simulation registry is frozen for
  /// the server's lifetime, its store is written by cold sweeps.
  Server(WindTunnel* tunnel, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parses and serves one query. The serving core: cache lookup →
  /// (on miss) single-flight admission + sweep → shared post-processing.
  [[nodiscard]] Result<ServeReply> Serve(const std::string& query_text);

  /// Handles one protocol frame ("query" or "stats") — the unit the
  /// per-connection loop calls, exposed for in-process protocol tests.
  Frame HandleFrame(const Frame& request);

  /// Starts the wire front end on an AF_UNIX stream socket at
  /// `socket_path` (an existing socket file is replaced).
  [[nodiscard]] Status Listen(const std::string& socket_path);

  /// Stops accepting, disconnects clients, joins all serving threads, and
  /// removes the socket file. Idempotent; also run by the destructor.
  void Shutdown();

  /// Human-readable cache statistics: entry count, in-flight sweeps, and —
  /// when the metrics registry is enabled — the serve.* counters and
  /// latency summaries (the wtq \cache payload).
  std::string CacheStatsText() const;

  const std::string& socket_path() const { return socket_path_; }
  const SweepCache& cache() const { return cache_; }

  /// Connections whose serving loop is still running (wire front end).
  size_t live_connections() const;

 private:
  /// Cache identity of `spec`'s sweep: hex FNV-1a over SweepConfigHash of
  /// `space`'s points in grid order plus the constraints, then seed,
  /// simulation name, hints, replications, and the pruning flag.
  /// `config_hash` receives that inner hash, which differs from the
  /// manifest's run-order hash when the query has hints.
  std::string CacheKeyFor(const QuerySpec& spec, const DesignSpace& space,
                          std::string* config_hash) const;

  /// Runs the sweep on a private orchestrator, publishes the result table
  /// (+ manifest side table) to the tunnel's store, and inserts the cache
  /// entry. Called only as a single-flight leader.
  [[nodiscard]] Status ColdSweep(const std::string& key,
                                 const std::string& config_hash,
                                 const DesignSpace& space, const RunFn& fn,
                                 const QuerySpec& spec);

  [[nodiscard]] Result<ServeReply> ServeSpec(const QuerySpec& spec);

  void AcceptLoop();
  void ConnectionLoop(int fd);

  /// Joins connection threads whose loops have exited (they parked their
  /// own handles on reaped_threads_), so a long-lived server handling many
  /// short connections does not accumulate joinable handles. Called by
  /// AcceptLoop between accepts and by Shutdown.
  void ReapFinishedConnections();

  WindTunnel* tunnel_;
  ServerOptions options_;
  SweepCache cache_;
  AdmissionQueue admission_;

  // Wire front end state.
  std::atomic<bool> shutting_down_{false};
  int listen_fd_ = -1;
  std::string socket_path_;
  std::thread accept_thread_;
  mutable std::mutex conn_mu_;
  /// Live connections by fd; a loop erases its own entry (moving the
  /// handle to reaped_threads_) before closing its fd.
  std::map<int, std::thread> conn_threads_;
  std::vector<std::thread> reaped_threads_;
  /// Why AcceptLoop stopped, if it hit a fatal error (shown in stats).
  std::string accept_error_;
};

}  // namespace serve
}  // namespace wt

#endif  // WT_SERVE_SERVER_H_
