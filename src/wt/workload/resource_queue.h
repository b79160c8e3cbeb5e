// A c-server FCFS queue inside the DES — the building block of the
// performance simulation (one per CPU pool, disk array, or NIC).

#ifndef WT_WORKLOAD_RESOURCE_QUEUE_H_
#define WT_WORKLOAD_RESOURCE_QUEUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wt/common/inline_fn.h"
#include "wt/sim/simulator.h"
#include "wt/stats/histogram.h"
#include "wt/stats/time_weighted.h"

namespace wt {

/// First-come-first-served queue with `servers` identical servers.
/// Service times are supplied per job; a perf factor (limpware) stretches
/// the service of jobs dispatched while degraded.
class ResourceQueue {
 public:
  ResourceQueue(Simulator* sim, int servers, std::string name);
  /// Flushes service totals (jobs completed, queue-length high water) and
  /// the per-job wait-time histogram ("rq.wait_ms", simulated milliseconds
  /// from Submit to dispatch — deterministic, unlike wall-clock latencies)
  /// into the process metrics registry when enabled — a cold-path branch;
  /// the per-job path stays allocation-free.
  ~ResourceQueue();
  ResourceQueue(const ResourceQueue&) = delete;
  ResourceQueue& operator=(const ResourceQueue&) = delete;

  /// Enqueues a job needing `service_seconds` of one server's time;
  /// `on_done` fires at completion, and its captures are destroyed right
  /// after. The queue owns `on_done` until then: in a per-server slot while
  /// the job is in service (the completion event captures only the queue
  /// and the server index), in the waiting ring before that. The slots are
  /// sized once and the ring only grows to the queue's high water, so
  /// otherwise a job costs no heap allocation as long as `on_done` fits
  /// InlineFn's inline buffer.
  void Submit(double service_seconds, InlineFn on_done);

  /// Sets the performance factor applied to jobs dispatched from now on
  /// (0 < f <= 1; 0.01 = hundredfold slowdown).
  void SetPerfFactor(double f);
  double perf_factor() const { return perf_factor_; }

  int64_t completed() const { return completed_; }
  int busy_servers() const {
    return servers_ - static_cast<int>(free_servers_.size());
  }
  size_t queue_length() const { return waiting_; }

  /// Time-averaged fraction of servers busy up to `now`.
  double Utilization(SimTime now) const;
  /// Time-averaged number of jobs waiting (not in service).
  double MeanQueueLength(SimTime now) const;

  const std::string& name() const { return name_; }

 private:
  struct Job {
    double service_seconds = 0.0;
    double enqueue_seconds = 0.0;  // Submit() time, for the wait histogram
    InlineFn on_done;
  };

  // Starts a job on an idle server; `on_done` moves into its slot.
  void Dispatch(double service_seconds, double enqueue_seconds,
                InlineFn&& on_done);
  void OnJobDone(int server);
  void GrowRing();
  void RecordState();

  Simulator* sim_;
  int servers_;
  std::string name_;
  double perf_factor_ = 1.0;
  /// in_service_[s]: on_done of the job server s is serving.
  std::vector<InlineFn> in_service_;
  std::vector<int> free_servers_;  // LIFO stack of idle server indices
  /// Waiting jobs, FIFO: a ring of power-of-two size that doubles when
  /// full and never shrinks; waiting_ jobs start at ring_[head_].
  std::vector<Job> ring_;
  size_t head_ = 0;
  size_t waiting_ = 0;
  int64_t completed_ = 0;
  size_t waiting_hw_ = 0;  // queue-length high water (for obs flush)
  LogHistogram wait_hist_;  // per-job wait in simulated ms (for obs flush)
  TimeWeightedStats busy_stats_;
  TimeWeightedStats qlen_stats_;
};

}  // namespace wt

#endif  // WT_WORKLOAD_RESOURCE_QUEUE_H_
