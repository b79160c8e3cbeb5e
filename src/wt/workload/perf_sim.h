// Queueing-network performance simulation — the "Performance SLAs" use case
// (§3).
//
// A cluster of nodes, each with a CPU pool, a disk array, and a NIC, serves
// one or more workloads (open-loop Poisson clients with Zipf key
// popularity over replicated data). The simulation answers DBSeer-style
// questions — "what happens to workload A's p99 when workload B lands on
// the same machines?" — and, beyond what pure prediction models capture,
// the impact of *cluster events*: node outages that redirect traffic to
// replicas and inject repair I/O, and limping hardware (§4.5).

#ifndef WT_WORKLOAD_PERF_SIM_H_
#define WT_WORKLOAD_PERF_SIM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "wt/common/result.h"
#include "wt/sim/distributions.h"
#include "wt/stats/histogram.h"

namespace wt {

/// One tenant workload (open loop).
struct PerfWorkloadSpec {
  std::string name = "workload";
  /// Poisson arrival rate, requests/second.
  double arrival_rate = 100.0;
  /// Fraction of requests that are reads (writes fan out to all replicas).
  double read_fraction = 0.9;
  /// Per-request disk service time, seconds.
  DistributionPtr disk_service_s;
  /// Per-request CPU service time, seconds.
  DistributionPtr cpu_service_s;
  /// Per-request bytes moved over the serving node's NIC.
  double request_bytes = 64 * 1024.0;
  /// Key popularity skew (0 = uniform) over `num_keys` keys.
  double zipf_s = 0.99;
  int64_t num_keys = 10000;

  PerfWorkloadSpec();
  PerfWorkloadSpec(const PerfWorkloadSpec& other);
  PerfWorkloadSpec& operator=(const PerfWorkloadSpec&) = delete;
};

/// A node outage window: the node serves nothing during [at_s, at_s +
/// duration_s); reads fail over to the next live replica, and re-replication
/// I/O (repair_disk_jobs_per_s of repair_disk_service_s each) lands on the
/// surviving nodes' disks for the duration.
struct OutageEvent {
  double at_s = 0.0;
  int node = 0;
  double duration_s = 600.0;
  double repair_disk_jobs_per_s = 0.0;
  double repair_disk_service_s = 0.05;
};

/// A limpware window: resource `kind` on `node` runs at `perf_factor` from
/// `at_s` until the end of the run (set perf_factor=1 in a later event to
/// restore).
struct DegradeEvent {
  enum class Resource { kDisk, kCpu, kNic };
  double at_s = 0.0;
  int node = 0;
  Resource resource = Resource::kNic;
  double perf_factor = 0.1;
};

/// Cluster shape and run horizon.
struct PerfSimConfig {
  int num_nodes = 4;
  int cores_per_node = 8;
  int disks_per_node = 2;
  double nic_gbps = 10.0;
  /// Replication factor for data placement (reads prefer the primary).
  int replication = 3;
  double duration_s = 600.0;
  /// Measurements before this time are discarded (warm-up).
  double warmup_s = 30.0;
  uint64_t seed = 1;
};

/// Per-workload measurements.
struct WorkloadResult {
  LogHistogram latency_ms{64};
  int64_t completed = 0;
  /// Requests that found no live replica.
  int64_t failed = 0;
  /// completed / (duration_s - warmup_s), biased high on a backed-up
  /// cluster: `completed` counts the backlog drained after duration_s and
  /// filters warm-up by completion, not arrival, time (ROADMAP open item).
  double throughput_per_s = 0.0;
};

/// Whole-run measurements.
struct PerfSimResult {
  std::map<std::string, WorkloadResult> workloads;
  std::vector<double> disk_utilization;  // per node
  std::vector<double> cpu_utilization;   // per node
  std::vector<double> nic_utilization;   // per node
};

/// Runs the scenario; deterministic given (config.seed, specs, events).
[[nodiscard]] Result<PerfSimResult> RunPerfSim(const PerfSimConfig& config,
                                 const std::vector<PerfWorkloadSpec>& specs,
                                 const std::vector<OutageEvent>& outages = {},
                                 const std::vector<DegradeEvent>& degrades = {});

}  // namespace wt

#endif  // WT_WORKLOAD_PERF_SIM_H_
