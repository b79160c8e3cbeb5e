#include "wt/workload/resource_queue.h"

#include <utility>

#include "wt/common/macros.h"
#include "wt/obs/metrics.h"

namespace wt {

ResourceQueue::ResourceQueue(Simulator* sim, int servers, std::string name)
    : sim_(sim), servers_(servers), name_(std::move(name)) {
  WT_CHECK(servers >= 1);
  in_service_.resize(static_cast<size_t>(servers));
  free_servers_.reserve(static_cast<size_t>(servers));
  for (int s = servers - 1; s >= 0; --s) free_servers_.push_back(s);
  RecordState();
}

ResourceQueue::~ResourceQueue() {
  // Flush-at-end: service totals are deterministic integers, so concurrent
  // runs aggregate commutatively into the registry.
  obs::CountIfEnabled("rq.jobs_completed", completed_);
  obs::GaugeMaxIfEnabled("rq.queue_len_high_water",
                         static_cast<int64_t>(waiting_hw_));
  obs::LatencyMergeIfEnabled("rq.wait_ms", wait_hist_);
}

void ResourceQueue::RecordState() {
  double t = sim_->Now().seconds();
  busy_stats_.Set(t, static_cast<double>(busy_servers()));
  qlen_stats_.Set(t, static_cast<double>(waiting_));
}

void ResourceQueue::Submit(double service_seconds, InlineFn on_done) {
  WT_CHECK(service_seconds >= 0);
  const double now_s = sim_->Now().seconds();
  if (!free_servers_.empty()) {
    Dispatch(service_seconds, now_s, std::move(on_done));
  } else {
    if (waiting_ == ring_.size()) GrowRing();
    Job& job = ring_[(head_ + waiting_) & (ring_.size() - 1)];
    job.service_seconds = service_seconds;
    job.enqueue_seconds = now_s;
    job.on_done = std::move(on_done);
    if (++waiting_ > waiting_hw_) waiting_hw_ = waiting_;
  }
  RecordState();
}

void ResourceQueue::GrowRing() {
  std::vector<Job> bigger(ring_.empty() ? 8 : 2 * ring_.size());
  for (size_t i = 0; i < waiting_; ++i) {
    bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
  }
  ring_.swap(bigger);
  head_ = 0;
}

void ResourceQueue::Dispatch(double service_seconds, double enqueue_seconds,
                             InlineFn&& on_done) {
  const int server = free_servers_.back();
  free_servers_.pop_back();
  in_service_[static_cast<size_t>(server)] = std::move(on_done);
  if (obs::MetricsEnabled()) {
    // Simulated-time wait, aggregated locally and merged at destruction:
    // the registry mutex is never taken on the per-job path.
    wait_hist_.Add((sim_->Now().seconds() - enqueue_seconds) * 1e3);
  }
  double effective = service_seconds / perf_factor_;
  sim_->Schedule(SimTime::Seconds(effective),
                 [this, server] { OnJobDone(server); });
}

void ResourceQueue::OnJobDone(int server) {
  // Moved out first: the next waiting job may take this server's slot.
  InlineFn on_done = std::move(in_service_[static_cast<size_t>(server)]);
  free_servers_.push_back(server);
  ++completed_;
  if (waiting_ > 0) {
    Job& next = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --waiting_;
    Dispatch(next.service_seconds, next.enqueue_seconds,
             std::move(next.on_done));
  }
  RecordState();
  if (on_done) on_done();
}

void ResourceQueue::SetPerfFactor(double f) {
  WT_CHECK(f > 0 && f <= 1.0) << "perf factor must be in (0,1]";
  perf_factor_ = f;
}

double ResourceQueue::Utilization(SimTime now) const {
  return busy_stats_.Mean(now.seconds()) / static_cast<double>(servers_);
}

double ResourceQueue::MeanQueueLength(SimTime now) const {
  return qlen_stats_.Mean(now.seconds());
}

}  // namespace wt
