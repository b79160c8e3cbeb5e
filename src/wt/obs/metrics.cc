#include "wt/obs/metrics.h"

#include <algorithm>

#include "wt/common/json.h"
#include "wt/common/string_util.h"

namespace wt {
namespace obs {

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"metrics\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    const MetricsSnapshotEntry& e = entries[i];
    out += StrFormat("    {\"name\": %s, \"kind\": \"%s\", \"value\": %lld",
                     json::Quote(e.name).c_str(), e.kind.c_str(),
                     static_cast<long long>(e.value));
    if (e.kind == "latency") {
      out += StrFormat(
          ", \"mean\": %.6g, \"p50\": %.6g, \"p95\": %.6g, \"p99\": %.6g, "
          "\"max\": %.6g",
          e.mean, e.p50, e.p95, e.p99, e.max);
    }
    out += "}";
    if (i + 1 < entries.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const MetricsSnapshotEntry& e : entries) {
    if (e.kind == "latency") {
      out += StrFormat("%-40s latency n=%lld mean=%.4g p50=%.4g p95=%.4g "
                       "p99=%.4g max=%.4g\n",
                       e.name.c_str(), static_cast<long long>(e.value), e.mean,
                       e.p50, e.p95, e.p99, e.max);
    } else {
      out += StrFormat("%-40s %-7s %lld\n", e.name.c_str(), e.kind.c_str(),
                       static_cast<long long>(e.value));
    }
  }
  return out;
}

const MetricsSnapshotEntry* MetricsSnapshot::Find(
    const std::string& name) const {
  for (const MetricsSnapshotEntry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies
  return *registry;
}

void MetricsRegistry::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_by_name_.find(name);
  if (it != counter_by_name_.end()) return it->second;
  counters_.emplace_back();
  return counter_by_name_.emplace(name, &counters_.back()).first->second;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_by_name_.find(name);
  if (it != gauge_by_name_.end()) return it->second;
  gauges_.emplace_back();
  return gauge_by_name_.emplace(name, &gauges_.back()).first->second;
}

LatencyHistogram* MetricsRegistry::GetLatency(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = latency_by_name_.find(name);
  if (it != latency_by_name_.end()) return it->second;
  latencies_.emplace_back();
  return latency_by_name_.emplace(name, &latencies_.back()).first->second;
}

namespace {

MetricsSnapshotEntry ScalarEntry(const std::string& name, const char* kind,
                                 int64_t value) {
  MetricsSnapshotEntry e;
  e.name = name;
  e.kind = kind;
  e.value = value;
  return e;
}

MetricsSnapshotEntry LatencyEntry(const std::string& name,
                                  const LogHistogram& hist) {
  MetricsSnapshotEntry e;
  e.name = name;
  e.kind = "latency";
  e.value = hist.count();
  e.mean = hist.mean();
  e.p50 = hist.P50();
  e.p95 = hist.P95();
  e.p99 = hist.P99();
  e.max = hist.max_value();
  return e;
}

void SortByName(MetricsSnapshot* snap) {
  std::sort(snap->entries.begin(), snap->entries.end(),
            [](const MetricsSnapshotEntry& a, const MetricsSnapshotEntry& b) {
              return a.name < b.name;
            });
}

}  // namespace

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.entries.reserve(counter_by_name_.size() + gauge_by_name_.size() +
                       latency_by_name_.size());
  for (const auto& [name, c] : counter_by_name_) {
    snap.entries.push_back(ScalarEntry(name, "counter", c->value()));
  }
  for (const auto& [name, g] : gauge_by_name_) {
    snap.entries.push_back(ScalarEntry(name, "gauge", g->value()));
  }
  for (const auto& [name, h] : latency_by_name_) {
    snap.entries.push_back(LatencyEntry(name, h->SnapshotHistogram()));
  }
  SortByName(&snap);
  return snap;
}

MetricsBaseline MetricsRegistry::CaptureBaseline() const {
  MetricsBaseline base;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counter_by_name_) {
    base.counters.emplace(name, c->value());
  }
  for (const auto& [name, h] : latency_by_name_) {
    base.latencies.emplace(name, h->SnapshotHistogram());
  }
  return base;
}

MetricsSnapshot MetricsRegistry::SnapshotDelta(
    const MetricsBaseline& base) const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.entries.reserve(counter_by_name_.size() + gauge_by_name_.size() +
                       latency_by_name_.size());
  for (const auto& [name, c] : counter_by_name_) {
    auto it = base.counters.find(name);
    const int64_t before = it != base.counters.end() ? it->second : 0;
    snap.entries.push_back(ScalarEntry(name, "counter", c->value() - before));
  }
  // Gauges are levels, not totals: the current value IS the answer.
  for (const auto& [name, g] : gauge_by_name_) {
    snap.entries.push_back(ScalarEntry(name, "gauge", g->value()));
  }
  for (const auto& [name, h] : latency_by_name_) {
    LogHistogram hist = h->SnapshotHistogram();
    auto it = base.latencies.find(name);
    if (it != base.latencies.end()) hist = hist.DiffSince(it->second);
    snap.entries.push_back(LatencyEntry(name, hist));
  }
  SortByName(&snap);
  return snap;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter& c : counters_) c.Reset();
  for (Gauge& g : gauges_) g.Reset();
  for (LatencyHistogram& h : latencies_) h.Reset();
}

void CountIfEnabled(const char* name, int64_t delta) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  if (!reg.enabled()) return;
  reg.GetCounter(name)->Add(delta);
}

void GaugeSetIfEnabled(const char* name, int64_t value) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  if (!reg.enabled()) return;
  reg.GetGauge(name)->Set(value);
}

void GaugeMaxIfEnabled(const char* name, int64_t value) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  if (!reg.enabled()) return;
  reg.GetGauge(name)->UpdateMax(value);
}

void LatencyIfEnabled(const char* name, double value) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  if (!reg.enabled()) return;
  reg.GetLatency(name)->Record(value);
}

void LatencyMergeIfEnabled(const char* name, const LogHistogram& h) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  if (!reg.enabled() || h.count() == 0) return;
  reg.GetLatency(name)->MergeFrom(h);
}

}  // namespace obs
}  // namespace wt
