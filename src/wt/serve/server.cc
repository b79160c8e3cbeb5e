#include "wt/serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "wt/common/string_util.h"
#include "wt/obs/metrics.h"
#include "wt/obs/wallclock.h"
#include "wt/query/parser.h"
#include "wt/scenario/scenario.h"
#include "wt/sim/random.h"

namespace wt {
namespace serve {

namespace {

// One-line rendering for wire error headers (headers are a single line).
std::string Flatten(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

}  // namespace

const char* CacheOutcomeToString(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kJoin:
      return "join";
  }
  return "unknown";
}

Server::Server(WindTunnel* tunnel, ServerOptions options)
    : tunnel_(tunnel),
      options_(options),
      admission_(options.max_inflight_sweeps) {}

Server::~Server() { Shutdown(); }

std::string Server::CacheKeyFor(const QuerySpec& spec,
                                const DesignSpace& space,
                                std::string* config_hash) const {
  *config_hash = SweepConfigHash(space.AllPoints(), spec.constraints);
  // Everything that can change a byte of the stored sweep table goes into
  // the identity string; post-processing (ORDER BY / LIMIT) does not.
  std::string id = *config_hash;
  id += StrFormat("\nseed=%llu",
                  static_cast<unsigned long long>(options_.seed));
  id += "\nsim=" + spec.simulation;
  for (const MonotoneHint& h : spec.hints) {
    id += "\nhint=" + h.dimension;
    id += h.direction == MonotoneDirection::kHigherIsBetter ? "+" : "-";
  }
  id += StrFormat("\nreplications=%d", options_.replications);
  id += StrFormat("\npruning=%d", options_.enable_pruning ? 1 : 0);
  if (!spec.scenario_hash.empty()) {
    // Scenario-driven queries key on the file content too: editing the
    // scenario file invalidates its cached sweeps even when the resolved
    // design space happens to coincide.
    id += "\nscenario=" + spec.scenario_hash;
  }
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(Fnv1a64(id)));
}

Status Server::ColdSweep(const std::string& key,
                         const std::string& config_hash,
                         const DesignSpace& space, const RunFn& fn,
                         const QuerySpec& spec) {
  SweepOptions opts;
  opts.num_workers = options_.num_workers;
  opts.seed = options_.seed;
  opts.enable_pruning = options_.enable_pruning;
  opts.replications = options_.replications;
  opts.scenario_hash = spec.scenario_hash;
  // Private orchestrator: concurrent cold sweeps never share engine state.
  RunOrchestrator orch(opts);
  WT_ASSIGN_OR_RETURN(std::vector<RunRecord> records,
                      orch.Sweep(space, fn, spec.constraints, spec.hints));
  obs::CountIfEnabled("serve.sweeps", 1);

  const std::string table = "serve_" + key;
  if (!tunnel_->store().HasTable(table)) {
    WT_RETURN_IF_ERROR(
        StoreRunRecordTable(&tunnel_->store(), table, space, records));
  }
  cache_.Insert(key, CachedSweep{table, config_hash, orch.last_stats()});
  return Status::OK();
}

Result<ServeReply> Server::ServeSpec(const QuerySpec& spec) {
  const int64_t t0 = obs::WallMicros();
  obs::CountIfEnabled("serve.requests", 1);
  WT_ASSIGN_OR_RETURN(RunFn fn, tunnel_->GetSimulation(spec.simulation));
  WT_ASSIGN_OR_RETURN(DesignSpace space, BuildQuerySpace(spec));
  std::string config_hash;
  const std::string key = CacheKeyFor(spec, space, &config_hash);

  CacheOutcome outcome = CacheOutcome::kHit;
  const CachedSweep* entry = cache_.Lookup(key);
  if (entry == nullptr) {
    AdmissionQueue::Outcome adm =
        admission_.RunOrJoin(key, [&]() -> Status {
          // Double-check under single-flight: a flight that queued behind
          // an identical one finds the entry and costs only this lookup.
          if (cache_.Lookup(key) != nullptr) return Status::OK();
          return ColdSweep(key, config_hash, space, fn, spec);
        });
    WT_RETURN_IF_ERROR(adm.status);
    outcome = adm.joined ? CacheOutcome::kJoin : CacheOutcome::kMiss;
    entry = cache_.Lookup(key);
    if (entry == nullptr) {
      return Status::Internal("sweep completed but cache entry is missing");
    }
  }
  if (entry->config_hash != config_hash) {
    // The 64-bit serve key collided across two distinct sweep configs.
    // Refuse rather than silently serve another config's rows; the inner
    // grid-order config hash is computed over different input, so a double
    // collision is what it would take to get past this check.
    obs::CountIfEnabled("serve.cache.key_collision", 1);
    return Status::Internal("sweep cache key collision on " + key);
  }

  // Shared post-processing over the immutable stored table — the step that
  // makes every outcome byte-identical to a cold ExecuteQuery.
  WT_ASSIGN_OR_RETURN(const Table* stored,
                      tunnel_->store().GetTableConst(entry->table));
  WT_ASSIGN_OR_RETURN(Table satisfying,
                      PostprocessSweepTable(*stored, spec, nullptr));

  ServeReply reply;
  reply.csv = satisfying.ToCsv();
  reply.rows = satisfying.num_rows();
  reply.sweep_table = entry->table;
  reply.stats = entry->stats;
  reply.cache = outcome;
  reply.wall_us = obs::WallMicros() - t0;
  switch (outcome) {
    case CacheOutcome::kHit:
      obs::CountIfEnabled("serve.cache.hit", 1);
      obs::LatencyIfEnabled("serve.hit.wall_us",
                            static_cast<double>(reply.wall_us));
      break;
    case CacheOutcome::kMiss:
      obs::CountIfEnabled("serve.cache.miss", 1);
      obs::LatencyIfEnabled("serve.miss.wall_us",
                            static_cast<double>(reply.wall_us));
      break;
    case CacheOutcome::kJoin:
      obs::CountIfEnabled("serve.cache.inflight_join", 1);
      obs::LatencyIfEnabled("serve.join.wall_us",
                            static_cast<double>(reply.wall_us));
      break;
  }
  obs::LatencyIfEnabled("serve.request.wall_us",
                        static_cast<double>(reply.wall_us));
  return reply;
}

Result<ServeReply> Server::Serve(const std::string& query_text) {
  WT_ASSIGN_OR_RETURN(QuerySpec spec, ParseQuery(query_text));
  // USING SCENARIO queries resolve against the scenario corpus here — the
  // executor stays scenario-file-agnostic, and the resolved spec carries
  // the scenario hash that CacheKeyFor and the manifest record.
  WT_ASSIGN_OR_RETURN(spec, scenario::ResolveQuery(spec));
  return ServeSpec(spec);
}

Frame Server::HandleFrame(const Frame& request) {
  const std::string_view header = StrTrim(request.header);
  if (header == "query") {
    Result<ServeReply> reply = Serve(request.payload);
    if (!reply.ok()) {
      return Frame{"err " + Flatten(reply.status().ToString()), ""};
    }
    return Frame{StrFormat("ok %s %zu %lld",
                           CacheOutcomeToString(reply->cache), reply->rows,
                           static_cast<long long>(reply->wall_us)),
                 reply->csv};
  }
  if (header == "stats") {
    return Frame{"ok stats", CacheStatsText()};
  }
  return Frame{"err unknown request '" + Flatten(request.header) + "'", ""};
}

std::string Server::CacheStatsText() const {
  std::string out = StrFormat("cache entries        %zu\n", cache_.size());
  out += StrFormat("in-flight sweeps     %d\n", admission_.inflight());
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (!accept_error_.empty()) {
      out += "accept error         " + accept_error_ + "\n";
    }
  }
  if (!obs::MetricsEnabled()) {
    out += "(enable the metrics registry for serve.* counters)\n";
    return out;
  }
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Default().Snapshot();
  for (const obs::MetricsSnapshotEntry& e : snap.entries) {
    if (!e.name.starts_with("serve.")) continue;
    if (e.kind == "latency") {
      out += StrFormat("%-20s n=%lld p50=%.0f p95=%.0f max=%.0f\n",
                       e.name.c_str(), static_cast<long long>(e.value),
                       e.p50, e.p95, e.max);
    } else {
      out += StrFormat("%-20s %lld\n", e.name.c_str(),
                       static_cast<long long>(e.value));
    }
  }
  return out;
}

Status Server::Listen(const std::string& socket_path) {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("server is already listening");
  }
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(StrFormat("bind %s: %s", socket_path.c_str(),
                                      std::strerror(err)));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(std::string("listen: ") + std::strerror(err));
  }
  listen_fd_ = fd;
  socket_path_ = socket_path;
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return Status::OK();
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (shutting_down_.load(std::memory_order_acquire)) {
        return;  // shutdown(listen_fd_) woke us
      }
      if (err == EINTR || err == ECONNABORTED) continue;
      if (err == EMFILE || err == ENFILE) {
        // Descriptor exhaustion is transient (a connection closing frees
        // one): back off and retry instead of killing the listener.
        obs::CountIfEnabled("serve.accept.backoff", 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));  // wtlint: allow(determinism/sleep) -- host fd-exhaustion backoff in the accept loop, not simulated time
        continue;
      }
      // Genuinely fatal (EBADF, EINVAL, ...): record why the listener
      // died so `stats` surfaces it instead of failing silently.
      obs::CountIfEnabled("serve.accept.fatal", 1);
      std::lock_guard<std::mutex> lock(conn_mu_);
      accept_error_ =
          StrFormat("accept: %s (listener stopped)", std::strerror(err));
      return;
    }
    if (shutting_down_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    ReapFinishedConnections();
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_threads_.emplace(fd,
                          std::thread(&Server::ConnectionLoop, this, fd));
  }
}

void Server::ConnectionLoop(int fd) {
  FdStream stream(fd);
  for (;;) {
    Result<Frame> request = ReadFrame(&stream);
    if (!request.ok()) break;  // EOF or I/O error: client is done
    const Frame reply = HandleFrame(*request);
    if (!WriteFrame(&stream, reply).ok()) break;
  }
  {
    // Park our own handle for joining (a thread cannot join itself) and
    // leave the live map BEFORE closing the fd, so an accept() reusing
    // this fd number can never race a stale map entry.
    std::lock_guard<std::mutex> lock(conn_mu_);
    auto it = conn_threads_.find(fd);
    if (it != conn_threads_.end()) {
      reaped_threads_.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
  }
  ::close(fd);
}

void Server::ReapFinishedConnections() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    done.swap(reaped_threads_);
  }
  // These loops have exited (or are returning); joins complete promptly.
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

size_t Server::live_connections() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return conn_threads_.size();
}

void Server::Shutdown() {
  // acq_rel: the winning caller's prior writes (e.g. handler teardown in
  // subclasses) are visible to a losing second caller, which returns
  // believing shutdown is complete.
  if (shutting_down_.exchange(true, std::memory_order_acq_rel)) {
    // Second caller (e.g. the destructor after an explicit Shutdown):
    // everything below already ran.
    return;
  }
  if (listen_fd_ >= 0) {
    // Wakes the blocked accept() with an error; the loop then exits.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [fd, thread] : conn_threads_) {
      ::shutdown(fd, SHUT_RDWR);
      workers.push_back(std::move(thread));
    }
    conn_threads_.clear();
    for (std::thread& t : reaped_threads_) workers.push_back(std::move(t));
    reaped_threads_.clear();
  }
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
}

}  // namespace serve
}  // namespace wt
