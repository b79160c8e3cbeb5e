#include "wt/workload/perf_sim.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "wt/hw/network.h"

#include "wt/common/macros.h"
#include "wt/common/string_util.h"
#include "wt/obs/metrics.h"
#include "wt/obs/trace.h"
#include "wt/workload/resource_queue.h"

namespace wt {

PerfWorkloadSpec::PerfWorkloadSpec()
    : disk_service_s(std::make_unique<ExponentialDist>(1.0 / 0.005)),
      cpu_service_s(std::make_unique<ExponentialDist>(1.0 / 0.002)) {}

PerfWorkloadSpec::PerfWorkloadSpec(const PerfWorkloadSpec& other)
    : name(other.name),
      arrival_rate(other.arrival_rate),
      read_fraction(other.read_fraction),
      disk_service_s(other.disk_service_s ? other.disk_service_s->Clone()
                                          : nullptr),
      cpu_service_s(other.cpu_service_s ? other.cpu_service_s->Clone()
                                        : nullptr),
      request_bytes(other.request_bytes),
      zipf_s(other.zipf_s),
      num_keys(other.num_keys) {}

namespace {

/// One node's resource pools.
struct NodeResources {
  std::unique_ptr<ResourceQueue> disk;
  std::unique_ptr<ResourceQueue> cpu;
  std::unique_ptr<ResourceQueue> nic;
  bool up = true;
};

/// An in-flight write: disk branches still running at its replicas, and
/// what its completion records.
struct WriteJoin {
  int remaining = 0;
  size_t workload = 0;
  double start_s = 0.0;
};

/// One open-loop Poisson source per workload.
struct SourceCtx {
  const PerfWorkloadSpec* spec;
  size_t workload_idx;
  RngStream rng;
  std::unique_ptr<ZipfGenerator> zipf;
};

/// Shared mutable state of one run. The request path reuses its buffers
/// and keeps a write's join in a slab, so a request's callbacks capture
/// only pointers, indices and service times, and fit InlineFn's inline
/// buffer.
struct RunState {
  Simulator sim;
  std::vector<NodeResources> nodes;
  std::vector<WorkloadResult> results;
  int replication = 1;
  double duration_s = 0.0;
  double warmup_s = 0.0;
  double nic_bytes_per_s = 0.0;
  RngStream* repair_rng = nullptr;   // shared by every outage's repair I/O
  std::vector<int> live;             // one write's live replicas
  std::vector<WriteJoin> joins;      // slab of in-flight writes
  std::vector<uint32_t> free_joins;  // recycled slab indices

  void Arrive(SourceCtx* ctx);
  void Execute(SourceCtx& ctx);
  void Finish(size_t workload, double start_s);
  void BranchDone(uint32_t join);
  void InjectRepair(const OutageEvent* ev);
};

// Self-rescheduling arrival loop of one source.
void RunState::Arrive(SourceCtx* ctx) {
  Execute(*ctx);
  double gap = -std::log(ctx->rng.NextDoubleOpen()) / ctx->spec->arrival_rate;
  if (sim.Now().seconds() + gap < duration_s) {
    sim.Schedule(SimTime::Seconds(gap), [this, ctx] { Arrive(ctx); });
  }
}

// Repair I/O on survivors during an outage: Poisson background disk jobs
// spread over live nodes.
void RunState::InjectRepair(const OutageEvent* ev) {
  double now = sim.Now().seconds();
  if (now >= ev->at_s + ev->duration_s) return;
  const int num_nodes = static_cast<int>(nodes.size());
  int victim = static_cast<int>(repair_rng->UniformInt(0, num_nodes - 1));
  if (victim == ev->node) victim = (victim + 1) % num_nodes;
  auto& node = nodes[static_cast<size_t>(victim)];
  if (node.up) node.disk->Submit(ev->repair_disk_service_s, nullptr);
  double gap =
      -std::log(repair_rng->NextDoubleOpen()) / ev->repair_disk_jobs_per_s;
  sim.Schedule(SimTime::Seconds(gap), [this, ev] { InjectRepair(ev); });
}

void RunState::Finish(size_t workload, double start_s) {
  double now_s = sim.Now().seconds();
  if (now_s >= warmup_s) {
    auto& res = results[workload];
    res.latency_ms.Add((now_s - start_s) * 1e3);
    ++res.completed;
  }
}

void RunState::BranchDone(uint32_t join) {
  WriteJoin& j = joins[join];
  if (--j.remaining == 0) {
    Finish(j.workload, j.start_s);
    free_joins.push_back(join);
  }
}

// Executes one request end-to-end: serving node's disk -> cpu -> nic.
// Writes additionally occupy each replica's disk; completion waits for the
// slowest branch. A key's replicas are the contiguous window of
// `replication` nodes from key % nodes (round-robin placement).
void RunState::Execute(SourceCtx& ctx) {
  const PerfWorkloadSpec& spec = *ctx.spec;
  const int64_t key = ctx.zipf->Sample(ctx.rng);
  const int num_nodes = static_cast<int>(nodes.size());
  const int first = static_cast<int>(key % num_nodes);

  bool is_read = ctx.rng.Bernoulli(spec.read_fraction);
  double start_s = sim.Now().seconds();
  size_t widx = ctx.workload_idx;

  if (is_read) {
    // Serve from the first live replica.
    int serve = -1;
    for (int i = 0; i < replication; ++i) {
      const int r = (first + i) % num_nodes;
      if (nodes[static_cast<size_t>(r)].up) {
        serve = r;
        break;
      }
    }
    if (serve < 0) {
      ++results[widx].failed;
      return;
    }
    auto& node = nodes[static_cast<size_t>(serve)];
    double disk_s = spec.disk_service_s->Sample(ctx.rng);
    double cpu_s = spec.cpu_service_s->Sample(ctx.rng);
    double nic_s = spec.request_bytes / nic_bytes_per_s;
    auto finish = [this, widx, start_s] { Finish(widx, start_s); };
    node.disk->Submit(disk_s, [&node, cpu_s, nic_s, finish] {
      node.cpu->Submit(cpu_s, [&node, nic_s, finish] {
        node.nic->Submit(nic_s, finish);
      });
    });
  } else {
    // Write: disk work at every live replica; cpu+nic at the primary
    // (first live). Completion when all branches are done.
    live.clear();
    for (int i = 0; i < replication; ++i) {
      const int r = (first + i) % num_nodes;
      if (nodes[static_cast<size_t>(r)].up) live.push_back(r);
    }
    if (live.empty()) {
      ++results[widx].failed;
      return;
    }
    uint32_t join;
    if (free_joins.empty()) {
      join = static_cast<uint32_t>(joins.size());
      joins.emplace_back();
    } else {
      join = free_joins.back();
      free_joins.pop_back();
    }
    joins[join] = WriteJoin{static_cast<int>(live.size()), widx, start_s};
    auto branch_done = [this, join] { BranchDone(join); };
    double cpu_s = spec.cpu_service_s->Sample(ctx.rng);
    double nic_s = spec.request_bytes / nic_bytes_per_s;
    for (size_t i = 0; i < live.size(); ++i) {
      auto& node = nodes[static_cast<size_t>(live[i])];
      double disk_s = spec.disk_service_s->Sample(ctx.rng);
      if (i == 0) {
        node.disk->Submit(disk_s, [&node, cpu_s, nic_s, branch_done] {
          node.cpu->Submit(cpu_s, [&node, nic_s, branch_done] {
            node.nic->Submit(nic_s, branch_done);
          });
        });
      } else {
        node.disk->Submit(disk_s, branch_done);
      }
    }
  }
}

}  // namespace

Result<PerfSimResult> RunPerfSim(const PerfSimConfig& config,
                                 const std::vector<PerfWorkloadSpec>& specs,
                                 const std::vector<OutageEvent>& outages,
                                 const std::vector<DegradeEvent>& degrades) {
  if (config.num_nodes < 1) {
    return Status::InvalidArgument("num_nodes must be >= 1");
  }
  if (config.replication < 1 || config.replication > config.num_nodes) {
    return Status::InvalidArgument("replication out of [1, num_nodes]");
  }
  if (specs.empty()) {
    return Status::InvalidArgument("at least one workload required");
  }
  for (const auto& spec : specs) {
    if (!spec.disk_service_s || !spec.cpu_service_s) {
      return Status::InvalidArgument("workload '" + spec.name +
                                     "' missing service distributions");
    }
    if (spec.arrival_rate <= 0) {
      return Status::InvalidArgument("workload '" + spec.name +
                                     "' arrival_rate must be > 0");
    }
  }

  WT_TRACE_SCOPE("workload", "perf_sim");
  RunState state;
  state.sim.AttachDefaultObs();
  state.replication = config.replication;
  state.duration_s = config.duration_s;
  state.warmup_s = config.warmup_s;
  state.nic_bytes_per_s = GbpsToBytesPerSec(config.nic_gbps);
  state.live.reserve(static_cast<size_t>(config.replication));
  // Peak pending events: at most one completion per busy server across all
  // per-node resource queues, one arrival timer per workload source, plus
  // cluster-event timers. Pre-sizing the event pool once here means the
  // per-request path never grows it.
  state.sim.Reserve(static_cast<size_t>(config.num_nodes) *
                        static_cast<size_t>(config.cores_per_node +
                                            config.disks_per_node + 1) +
                    specs.size() + 2 * outages.size() + degrades.size() + 16);
  state.nodes.resize(static_cast<size_t>(config.num_nodes));
  for (int i = 0; i < config.num_nodes; ++i) {
    auto& node = state.nodes[static_cast<size_t>(i)];
    node.disk = std::make_unique<ResourceQueue>(
        &state.sim, config.disks_per_node, StrFormat("n%d.disk", i));
    node.cpu = std::make_unique<ResourceQueue>(
        &state.sim, config.cores_per_node, StrFormat("n%d.cpu", i));
    node.nic =
        std::make_unique<ResourceQueue>(&state.sim, 1, StrFormat("n%d.nic", i));
  }
  state.results.resize(specs.size());

  RngStream root(config.seed);

  // --- request generation: one open-loop Poisson source per workload ---
  std::vector<std::unique_ptr<SourceCtx>> sources;
  for (size_t w = 0; w < specs.size(); ++w) {
    auto ctx = std::make_unique<SourceCtx>(SourceCtx{
        &specs[w], w, root.Substream("workload-" + specs[w].name), nullptr});
    ctx->zipf =
        std::make_unique<ZipfGenerator>(specs[w].num_keys, specs[w].zipf_s);
    sources.push_back(std::move(ctx));
  }
  for (auto& ctx : sources) {
    double first = -std::log(ctx->rng.NextDoubleOpen()) /
                   ctx->spec->arrival_rate;
    SourceCtx* raw = ctx.get();
    state.sim.Schedule(SimTime::Seconds(first),
                       [&state, raw] { state.Arrive(raw); });
  }

  // --- cluster events -----------------------------------------------------
  RngStream repair_rng = root.Substream("repair-traffic");
  state.repair_rng = &repair_rng;
  for (const OutageEvent& ev : outages) {
    if (ev.node < 0 || ev.node >= config.num_nodes) {
      return Status::InvalidArgument("outage node out of range");
    }
    state.sim.ScheduleAt(SimTime::Seconds(ev.at_s), [&state, ev] {
      state.nodes[static_cast<size_t>(ev.node)].up = false;
    });
    state.sim.ScheduleAt(SimTime::Seconds(ev.at_s + ev.duration_s),
                         [&state, ev] {
                           state.nodes[static_cast<size_t>(ev.node)].up = true;
                         });
    if (ev.repair_disk_jobs_per_s > 0) {
      state.sim.ScheduleAt(SimTime::Seconds(ev.at_s),
                           [&state, &ev] { state.InjectRepair(&ev); });
    }
  }
  for (const DegradeEvent& ev : degrades) {
    if (ev.node < 0 || ev.node >= config.num_nodes) {
      return Status::InvalidArgument("degrade node out of range");
    }
    state.sim.ScheduleAt(SimTime::Seconds(ev.at_s), [&state, ev] {
      auto& node = state.nodes[static_cast<size_t>(ev.node)];
      ResourceQueue* q = nullptr;
      switch (ev.resource) {
        case DegradeEvent::Resource::kDisk:
          q = node.disk.get();
          break;
        case DegradeEvent::Resource::kCpu:
          q = node.cpu.get();
          break;
        case DegradeEvent::Resource::kNic:
          q = node.nic.get();
          break;
      }
      q->SetPerfFactor(ev.perf_factor);
    });
  }

  state.sim.RunUntil(SimTime::Seconds(config.duration_s));
  // Drain in-flight work so latencies of late arrivals are recorded.
  state.sim.Run();

  PerfSimResult out;
  SimTime end = state.sim.Now();
  double measured_s = config.duration_s - config.warmup_s;
  for (size_t w = 0; w < specs.size(); ++w) {
    WorkloadResult& res = state.results[w];
    res.throughput_per_s =
        measured_s > 0 ? static_cast<double>(res.completed) / measured_s : 0.0;
    obs::CountIfEnabled("perf_sim.requests_completed", res.completed);
    obs::CountIfEnabled("perf_sim.requests_failed", res.failed);
    out.workloads.emplace(specs[w].name, std::move(res));
  }
  for (auto& node : state.nodes) {
    out.disk_utilization.push_back(node.disk->Utilization(end));
    out.cpu_utilization.push_back(node.cpu->Utilization(end));
    out.nic_utilization.push_back(node.nic->Utilization(end));
  }
  return out;
}

}  // namespace wt
