#include "wt/core/wind_tunnel.h"

#include <set>

#include "wt/common/macros.h"
#include "wt/obs/manifest.h"

namespace wt {

namespace {
SweepOptions ToSweepOptions(const WindTunnelOptions& o) {
  SweepOptions s;
  s.num_workers = o.num_workers;
  s.seed = o.seed;
  s.enable_pruning = o.enable_pruning;
  s.replications = o.replications;
  return s;
}
}  // namespace

WindTunnel::WindTunnel(WindTunnelOptions options) : options_(options) {
  WT_CHECK(options.num_workers >= 1);
  WT_CHECK(options.replications >= 1);
}

Status WindTunnel::RegisterSimulation(const std::string& name, RunFn fn) {
  if (simulations_.count(name) > 0) {
    return Status::AlreadyExists("simulation exists: '" + name + "'");
  }
  if (!fn) return Status::InvalidArgument("null simulation function");
  simulations_.emplace(name, std::move(fn));
  return Status::OK();
}

bool WindTunnel::HasSimulation(const std::string& name) const {
  return simulations_.count(name) > 0;
}

Result<RunFn> WindTunnel::GetSimulation(const std::string& name) const {
  auto it = simulations_.find(name);
  if (it == simulations_.end()) {
    return Status::NotFound("no such simulation: '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> WindTunnel::SimulationNames() const {
  std::vector<std::string> names;
  for (const auto& [name, fn] : simulations_) names.push_back(name);
  return names;
}

Result<std::vector<RunRecord>> WindTunnel::RunSweep(
    const std::string& sweep_name, const DesignSpace& space,
    const std::string& simulation,
    const std::vector<SlaConstraint>& constraints,
    const std::vector<MonotoneHint>& hints,
    const std::string& scenario_hash) {
  WT_ASSIGN_OR_RETURN(RunFn fn, GetSimulation(simulation));
  return RunSweepWith(sweep_name, space, fn, constraints, hints,
                      scenario_hash);
}

Result<std::vector<RunRecord>> WindTunnel::RunSweepWith(
    const std::string& sweep_name, const DesignSpace& space, const RunFn& fn,
    const std::vector<SlaConstraint>& constraints,
    const std::vector<MonotoneHint>& hints,
    const std::string& scenario_hash) {
  SweepOptions sweep_options = ToSweepOptions(options_);
  sweep_options.scenario_hash = scenario_hash;
  RunOrchestrator orchestrator(sweep_options);
  WT_ASSIGN_OR_RETURN(std::vector<RunRecord> records,
                      orchestrator.Sweep(space, fn, constraints, hints));
  last_stats_ = orchestrator.last_stats();
  WT_RETURN_IF_ERROR(StoreRunRecordTable(&store_, sweep_name, space, records));
  return records;
}

Result<Table> BuildRunRecordTable(const DesignSpace& space,
                                  const std::vector<RunRecord>& records) {
  // Columns: run_id, dims (typed from candidates), union of metric names
  // (double), sla_ok, status.
  std::vector<ColumnDef> defs;
  defs.push_back({"run_id", ValueType::kInt});
  for (const Dimension& d : space.dimensions()) {
    defs.push_back({d.name, d.candidates.front().type()});
  }
  std::set<std::string> metric_names;
  for (const RunRecord& r : records) {
    for (const auto& [k, v] : r.metrics) metric_names.insert(k);
  }
  // A metric sharing a dimension's name (e.g. a fixed parameter "trials"
  // echoed back as a measurement) gets a "measured_" column prefix.
  auto column_name = [&](const std::string& metric) {
    for (const Dimension& d : space.dimensions()) {
      if (d.name == metric) return "measured_" + metric;
    }
    return metric;
  };
  for (const std::string& m : metric_names) {
    defs.push_back({column_name(m), ValueType::kDouble});
  }
  defs.push_back({"sla_ok", ValueType::kBool});
  defs.push_back({"status", ValueType::kString});

  Table table{Schema(defs)};
  for (const RunRecord& r : records) {
    std::vector<Value> row;
    row.reserve(defs.size());
    row.emplace_back(static_cast<int64_t>(r.run_id));
    // if/else pushes rather than `cond ? v : Value()` ternaries: the
    // ternary over the string-variant Value trips GCC 12's
    // -Werror=maybe-uninitialized.
    for (const Dimension& d : space.dimensions()) {
      auto v = r.point.Get(d.name);
      if (v.ok()) {
        row.push_back(std::move(v).value());
      } else {
        row.emplace_back();
      }
    }
    for (const std::string& m : metric_names) {
      auto it = r.metrics.find(m);
      if (it != r.metrics.end()) {
        row.emplace_back(it->second);
      } else {
        row.emplace_back();
      }
    }
    row.emplace_back(r.sla_satisfied);
    row.emplace_back(std::string(RunStatusToString(r.status)));
    WT_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
  }
  return table;
}

Status StoreRunRecordTable(ResultStore* store, const std::string& table_name,
                           const DesignSpace& space,
                           const std::vector<RunRecord>& records) {
  // Build privately, publish atomically: concurrent store readers (the
  // serve layer) never observe a partially-filled sweep table.
  WT_ASSIGN_OR_RETURN(Table table, BuildRunRecordTable(space, records));
  WT_RETURN_IF_ERROR(store->PublishTable(table_name, std::move(table)));

  // Provenance side table: every record of one sweep shares one manifest,
  // so persisting the first one captures the sweep's provenance. Survives
  // SaveResultStore/LoadResultStore like any other table.
  if (!records.empty() && records.front().manifest != nullptr) {
    WT_RETURN_IF_ERROR(obs::StoreManifest(store,
                                          obs::ManifestTableName(table_name),
                                          *records.front().manifest));
  }
  return Status::OK();
}

}  // namespace wt
