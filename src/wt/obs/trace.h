// TraceEmitter: timeline tracing in Chrome trace-event JSON.
//
// Spans (RAII WT_TRACE_SCOPE), instants, and counter samples are recorded
// into per-thread buffers and exported as the Chrome trace-event format —
// open the file in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Hot-path contract (same as MetricsRegistry):
//  * Inactive tracing costs one relaxed-load branch per site — no clock
//    read, no buffer touch, no allocation (enforced by obs_alloc_test).
//  * Active tracing appends a fixed-size record to a pre-reserved
//    per-thread vector: no allocation in steady state; a full buffer drops
//    the event and counts it (reported as a "dropped" arg on the process
//    metadata), never reallocates.
//  * Event names and categories must be string literals (or otherwise
//    outlive the emitter session): records store the pointers.
//  * Tracing observes; it never touches RNG streams or event ordering.
//
// Timestamps are wall microseconds since Start() (obs::WallMicros); the
// per-thread track id is the registration order, with thread labels from
// SetThisThreadLabel exported as Chrome thread_name metadata.

#ifndef WT_OBS_TRACE_H_
#define WT_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "wt/common/macros.h"
#include "wt/common/status.h"
#include "wt/obs/wallclock.h"

namespace wt {
namespace obs {

/// One fixed-size trace record (no owned strings).
struct TraceEvent {
  const char* cat = "";
  const char* name = "";
  const char* arg_name = nullptr;  // null = no args object
  int64_t arg_value = 0;
  int64_t ts_us = 0;   // since Start()
  int64_t dur_us = 0;  // complete events only
  char phase = 'i';    // 'X' complete, 'i' instant, 'C' counter
};

/// Labels the calling thread for trace export ("worker-3", "main", ...).
/// Sticky per thread; safe to call before or after Start(). `label` must be
/// a string literal or otherwise immortal.
void SetThisThreadLabel(const char* label);

class TraceEmitter {
 public:
  /// The process-wide emitter the WT_TRACE_* macros record into.
  static TraceEmitter& Default();

  /// Discards prior events and starts recording, reserving space for
  /// `capacity_per_thread` events in each thread buffer (buffers are
  /// created — the only allocation — on a thread's first event).
  void Start(size_t capacity_per_thread = 1 << 16);

  /// Stops recording. Buffers remain readable until the next Start().
  void Stop();

  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Microseconds since Start() on the steady clock.
  int64_t NowMicros() const;

  /// Records a complete span [ts_us, ts_us + dur_us). No-op when inactive.
  void Complete(const char* cat, const char* name, int64_t ts_us,
                int64_t dur_us, const char* arg_name = nullptr,
                int64_t arg_value = 0);
  /// Records an instantaneous event at now. No-op when inactive.
  void Instant(const char* cat, const char* name,
               const char* arg_name = nullptr, int64_t arg_value = 0);
  /// Records a counter sample (rendered as a track in Perfetto).
  void CounterValue(const char* cat, const char* name, int64_t value);

  /// Total events dropped to full buffers since Start().
  int64_t dropped() const;

  /// Serializes every buffered event as Chrome trace-event JSON. Call only
  /// after the traced work has quiesced (after Stop(), or with no writers
  /// running): export takes the registration lock but does not block
  /// writers already holding a buffer.
  std::string ToJson() const;

  /// ToJson() to a file. Returns the first write error, if any.
  [[nodiscard]] Status WriteJson(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::vector<TraceEvent> events;
    std::atomic<int64_t> dropped{0};
    uint32_t tid = 0;
    const char* label = nullptr;
  };

  // Appends to this thread's buffer, registering it on first use.
  void Append(const TraceEvent& ev);
  ThreadBuffer* BufferForThisThread();

  std::atomic<bool> active_{false};
  std::atomic<uint64_t> session_{0};  // invalidates cached TLS buffers
  int64_t epoch_us_ = 0;  // WallMicros() at Start()
  size_t capacity_per_thread_ = 1 << 16;
  mutable std::mutex mu_;  // guards buffers_ registration and export
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span against TraceEmitter::Default(). Decides at construction: if
/// tracing is inactive, construction and destruction are a branch each.
class TraceScope {
 public:
  TraceScope(const char* cat, const char* name)
      : TraceScope(cat, name, nullptr, 0) {}
  TraceScope(const char* cat, const char* name, const char* arg_name,
             int64_t arg_value)
      : cat_(cat), name_(name), arg_name_(arg_name), arg_value_(arg_value) {
    TraceEmitter& t = TraceEmitter::Default();
    active_ = t.active();
    if (active_) t0_us_ = t.NowMicros();
  }
  ~TraceScope() {
    if (!active_) return;
    TraceEmitter& t = TraceEmitter::Default();
    t.Complete(cat_, name_, t0_us_, t.NowMicros() - t0_us_, arg_name_,
               arg_value_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* cat_;
  const char* name_;
  const char* arg_name_;
  int64_t arg_value_;
  int64_t t0_us_ = 0;
  bool active_ = false;
};

}  // namespace obs
}  // namespace wt

/// Span covering the enclosing scope. Category/name must be literals.
#define WT_TRACE_SCOPE(cat, name) \
  ::wt::obs::TraceScope WT_MACRO_CONCAT(wt_trace_scope_, __LINE__)(cat, name)
/// Span with one integer argument (e.g. a run id).
#define WT_TRACE_SCOPE_ARG(cat, name, arg_name, arg_value)             \
  ::wt::obs::TraceScope WT_MACRO_CONCAT(wt_trace_scope_, __LINE__)(    \
      cat, name, arg_name, static_cast<int64_t>(arg_value))
/// Instantaneous event with one integer argument.
#define WT_TRACE_INSTANT_ARG(cat, name, arg_name, arg_value)          \
  ::wt::obs::TraceEmitter::Default().Instant(                         \
      cat, name, arg_name, static_cast<int64_t>(arg_value))

#endif  // WT_OBS_TRACE_H_
