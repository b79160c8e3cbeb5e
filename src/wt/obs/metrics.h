// MetricsRegistry: named counters, gauges, and latency histograms for the
// whole wind tunnel (DESIGN.md § Observability).
//
// Contract:
//  * Deterministic where the underlying quantity is deterministic. Counters
//    and histograms aggregate with commutative integer updates, and gauges
//    only expose last-write (single-threaded sites) and monotone-max
//    (UpdateMax) semantics, so a metrics snapshot of deterministic
//    quantities — event counts, runs executed, queue-depth high-water —
//    is identical for any num_workers. Two families are excluded from that
//    contract by naming convention: wall-clock metrics (".wall_ns",
//    ".wall_us" suffixes) are machine-dependent, and "sched."-prefixed
//    scheduling telemetry (ParallelFor chunk claims, inline dispatches,
//    queue-depth high-water) legitimately varies with worker count and OS
//    scheduling. Anything scheduling-dependent MUST live under "sched.";
//    tests diff everything else across worker counts.
//    "serve."-prefixed request-serving telemetry sits in between: totals
//    (requests, sweeps executed) are deterministic for a fixed query
//    sequence, but the cache hit/miss/in-flight-join split of CONCURRENT
//    identical queries depends on client arrival order and is only
//    constrained in aggregate (hit + miss + join == requests; sweeps ==
//    distinct configs).
//  * Never observed, never paid. The registry starts disabled; every
//    instrumentation site is a relaxed-load branch when disabled, and
//    instruments are registered (the only allocating operation) on first
//    use while enabled. Instrument pointers are stable for the registry's
//    lifetime, so hot loops cache them and pay one atomic add per update.
//  * Observability never touches RNG streams or event ordering: instruments
//    are pure write-only sinks.

#ifndef WT_OBS_METRICS_H_
#define WT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "wt/stats/histogram.h"

namespace wt {
namespace obs {

/// Monotone event count. Relaxed atomic adds: totals are order-independent,
/// so concurrent workers produce deterministic sums.
class Counter {
 public:
  void Add(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Point-in-time level. Set() is last-write-wins (use from one thread per
/// gauge); UpdateMax() is a commutative high-water update safe — and
/// deterministic — under concurrency.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void UpdateMax(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Latency-style distribution: a mutex-guarded wt::LogHistogram. Bucket
/// counts are integers, so merged totals and quantiles are deterministic
/// when the recorded values are. Record at run/stage granularity, not per
/// event — the lock is the price of exact quantiles.
class LatencyHistogram {
 public:
  void Record(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Add(value);
  }
  /// Copies the histogram out under the lock.
  LogHistogram SnapshotHistogram() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }
  /// Merges a locally accumulated histogram in one locked operation —
  /// cheaper than per-value Record() from a loop, and the idiom for sites
  /// (ResourceQueue) that aggregate privately and flush once at the end.
  /// `other` must use the default sub-bucket resolution (32).
  void MergeFrom(const LogHistogram& other) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Merge(other);
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Clear();
  }

 private:
  mutable std::mutex mu_;
  LogHistogram hist_{32};
};

/// One exported instrument value.
struct MetricsSnapshotEntry {
  std::string name;
  std::string kind;  // "counter" | "gauge" | "latency"
  /// Counter/gauge value; latency count.
  int64_t value = 0;
  /// Latency-only summary (zero otherwise).
  double mean = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
};

/// A consistent-enough export of every registered instrument, sorted by
/// name (deterministic ordering).
struct MetricsSnapshot {
  std::vector<MetricsSnapshotEntry> entries;

  /// JSON object: {"metrics": [{"name": ..., "kind": ..., ...}, ...]}.
  std::string ToJson() const;
  /// Aligned human-readable listing, one instrument per line.
  std::string ToText() const;
  /// Entry lookup by name; nullptr when absent.
  const MetricsSnapshotEntry* Find(const std::string& name) const;
};

/// Point-in-time copy of every instrument's accumulated state, captured by
/// MetricsRegistry::CaptureBaseline(). Diff a later state against it with
/// SnapshotDelta() to isolate one operation's metrics from everything the
/// process did before — the serve layer reports per-query cache stats this
/// way instead of process-lifetime aggregates. Gauges are levels, not
/// totals, so baselines don't copy them.
struct MetricsBaseline {
  std::map<std::string, int64_t> counters;
  std::map<std::string, LogHistogram> latencies;
};

/// Registry of named instruments. Registration is mutex-guarded and
/// allocates; returned pointers are stable until the registry dies, so
/// call sites register once and update lock-free afterwards.
class MetricsRegistry {
 public:
  /// The process-wide registry every WT_OBS_* site reports to.
  static MetricsRegistry& Default();

  /// Runtime kill switch. Disabled (the default) means instrumentation
  /// sites take one relaxed-load branch and touch nothing.
  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetLatency(const std::string& name);

  /// Exports every instrument, sorted by name.
  MetricsSnapshot Snapshot() const;

  /// Copies every counter value and latency histogram for a later
  /// SnapshotDelta(). Cheap relative to a query: one map copy under the
  /// registration lock.
  MetricsBaseline CaptureBaseline() const;

  /// Snapshot of activity since `base`: counters report value − baseline
  /// and latency entries summarize only values recorded since the baseline
  /// (LogHistogram::DiffSince). Gauges report their current level
  /// unchanged. Instruments registered after the baseline diff against
  /// zero/empty. Undefined if ResetValues() ran between capture and diff.
  MetricsSnapshot SnapshotDelta(const MetricsBaseline& base) const;

  /// Zeroes every instrument (registration survives). For tests comparing
  /// runs back-to-back.
  void ResetValues();

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  // deque: stable addresses under growth.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<LatencyHistogram> latencies_;
  std::map<std::string, Counter*> counter_by_name_;
  std::map<std::string, Gauge*> gauge_by_name_;
  std::map<std::string, LatencyHistogram*> latency_by_name_;
};

/// True when the default registry is recording.
inline bool MetricsEnabled() { return MetricsRegistry::Default().enabled(); }

/// Flush-granularity helpers: one branch when disabled; a registry lookup
/// (mutex + possible registration) when enabled. Use from cold sites (end
/// of a run, destructor), not per-event loops — hot loops cache instrument
/// pointers instead.
void CountIfEnabled(const char* name, int64_t delta);
void GaugeSetIfEnabled(const char* name, int64_t value);
void GaugeMaxIfEnabled(const char* name, int64_t value);
void LatencyIfEnabled(const char* name, double value);
/// Merges a locally accumulated histogram into latency instrument `name`.
/// No-op when disabled or when `h` is empty.
void LatencyMergeIfEnabled(const char* name, const LogHistogram& h);

}  // namespace obs
}  // namespace wt

#endif  // WT_OBS_METRICS_H_
