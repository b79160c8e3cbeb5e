#include "wt/obs/trace.h"

#include <cstdio>

#include "wt/common/json.h"
#include "wt/common/string_util.h"

namespace wt {
namespace obs {

namespace {

// Sticky label for threads that announce themselves before their first
// traced event (thread_local is per thread, so no locking needed).
thread_local const char* tls_thread_label = nullptr;

// Cached buffer lookup: valid while (emitter, session) match.
struct TlsBufferCache {
  const void* owner = nullptr;
  uint64_t session = 0;
  void* buffer = nullptr;
};
thread_local TlsBufferCache tls_cache;

}  // namespace

void SetThisThreadLabel(const char* label) { tls_thread_label = label; }

TraceEmitter& TraceEmitter::Default() {
  static TraceEmitter* emitter = new TraceEmitter();  // never dies
  return *emitter;
}

void TraceEmitter::Start(size_t capacity_per_thread) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  capacity_per_thread_ = capacity_per_thread;
  epoch_us_ = WallMicros();
  session_.fetch_add(1, std::memory_order_relaxed);
  active_.store(true, std::memory_order_relaxed);
}

void TraceEmitter::Stop() { active_.store(false, std::memory_order_relaxed); }

int64_t TraceEmitter::NowMicros() const { return WallMicros() - epoch_us_; }

TraceEmitter::ThreadBuffer* TraceEmitter::BufferForThisThread() {
  uint64_t session = session_.load(std::memory_order_relaxed);
  if (tls_cache.owner == this && tls_cache.session == session) {
    return static_cast<ThreadBuffer*>(tls_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->events.reserve(capacity_per_thread_);
  buf->tid = static_cast<uint32_t>(buffers_.size());
  buf->label = tls_thread_label;
  ThreadBuffer* raw = buf.get();
  buffers_.push_back(std::move(buf));
  tls_cache = {this, session, raw};
  return raw;
}

void TraceEmitter::Append(const TraceEvent& ev) {
  ThreadBuffer* buf = BufferForThisThread();
  if (buf->events.size() >= capacity_per_thread_) {
    buf->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf->events.push_back(ev);
}

void TraceEmitter::Complete(const char* cat, const char* name, int64_t ts_us,
                            int64_t dur_us, const char* arg_name,
                            int64_t arg_value) {
  if (!active()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.phase = 'X';
  Append(ev);
}

void TraceEmitter::Instant(const char* cat, const char* name,
                           const char* arg_name, int64_t arg_value) {
  if (!active()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  ev.ts_us = NowMicros();
  ev.phase = 'i';
  Append(ev);
}

void TraceEmitter::CounterValue(const char* cat, const char* name,
                                int64_t value) {
  if (!active()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.arg_name = "value";
  ev.arg_value = value;
  ev.ts_us = NowMicros();
  ev.phase = 'C';
  Append(ev);
}

int64_t TraceEmitter::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string TraceEmitter::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };
  // Process metadata: name + dropped-event count.
  int64_t total_dropped = 0;
  for (const auto& buf : buffers_) {
    total_dropped += buf->dropped.load(std::memory_order_relaxed);
  }
  emit(StrFormat("{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
                 "\"name\": \"process_name\", "
                 "\"args\": {\"name\": \"windtunnel\", \"dropped\": %lld}}",
                 static_cast<long long>(total_dropped)));
  for (const auto& buf : buffers_) {
    if (buf->label != nullptr) {
      emit(StrFormat("{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, "
                     "\"name\": \"thread_name\", \"args\": {\"name\": "
                     "%s}}",
                     buf->tid, json::Quote(buf->label).c_str()));
    }
    for (const TraceEvent& ev : buf->events) {
      std::string line = StrFormat(
          "{\"ph\": \"%c\", \"pid\": 1, \"tid\": %u, \"cat\": %s, "
          "\"name\": %s, \"ts\": %lld",
          ev.phase, buf->tid, json::Quote(ev.cat).c_str(),
          json::Quote(ev.name).c_str(), static_cast<long long>(ev.ts_us));
      if (ev.phase == 'X') {
        line += StrFormat(", \"dur\": %lld",
                          static_cast<long long>(ev.dur_us));
      }
      if (ev.arg_name != nullptr) {
        line += StrFormat(", \"args\": {%s: %lld}",
                          json::Quote(ev.arg_name).c_str(),
                          static_cast<long long>(ev.arg_value));
      }
      line += "}";
      emit(line);
    }
  }
  out += "\n]}\n";
  return out;
}

Status TraceEmitter::WriteJson(const std::string& path) const {
  std::string json = ToJson();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::Internal("short write to trace file: " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace wt
