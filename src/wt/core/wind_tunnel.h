// WindTunnel: the top-level facade of the library.
//
// Owns the model-interaction declarations (§4.1), the registry of named
// simulations and the result store (§4.4), and runs each sweep on a fresh
// RunOrchestrator (§4.2).
// A what-if study is: register/choose a simulation, define a design space,
// attach SLA constraints and monotone hints, run the sweep, and explore the
// result table.

#ifndef WT_CORE_WIND_TUNNEL_H_
#define WT_CORE_WIND_TUNNEL_H_

#include <map>
#include <string>
#include <vector>

#include "wt/core/orchestrator.h"
#include "wt/core/sim_model.h"
#include "wt/store/result_store.h"

namespace wt {

/// Facade configuration.
struct WindTunnelOptions {
  int num_workers = 1;
  uint64_t seed = 1;
  bool enable_pruning = true;
  /// Independent replications per design point (see SweepOptions).
  int replications = 1;
};

/// Builds the result table of a sweep — columns run_id, the space's
/// dimensions (typed from their candidates), the union of metric names
/// (double; name-collisions with dimensions get a "measured_" prefix),
/// sla_ok, and status; one row per record.
[[nodiscard]] Result<Table> BuildRunRecordTable(
    const DesignSpace& space, const std::vector<RunRecord>& records);

/// Builds the sweep's table, publishes it to `store` as `table_name`, and
/// stores the sweep's RunManifest as the "<table_name>__manifest" side
/// table. Shared by WindTunnel sweeps and the wt::serve cold path, so a
/// served sweep's tables are byte-identical to the ones a direct query
/// stores.
[[nodiscard]] Status StoreRunRecordTable(ResultStore* store,
                                         const std::string& table_name,
                                         const DesignSpace& space,
                                         const std::vector<RunRecord>& records);

/// The wind tunnel: simulation registry + sweeps + result store.
class WindTunnel {
 public:
  explicit WindTunnel(WindTunnelOptions options = {});

  /// Declares a model and its resource interactions (§4.1).
  [[nodiscard]] Status DeclareModel(ModelDecl decl) {
    return interactions_.AddModel(std::move(decl));
  }
  const InteractionGraph& interactions() const { return interactions_; }

  /// Registers a named simulation callable from sweeps and the DSL.
  [[nodiscard]] Status RegisterSimulation(const std::string& name, RunFn fn);
  bool HasSimulation(const std::string& name) const;
  [[nodiscard]] Result<RunFn> GetSimulation(const std::string& name) const;
  std::vector<std::string> SimulationNames() const;

  /// Runs `simulation` over `space`, evaluates `constraints`, stores one
  /// row per run in result table `sweep_name`, and returns the records.
  /// `scenario_hash` (16-hex FNV of the scenario file, "" when the sweep
  /// is not scenario-driven) is recorded in the sweep's RunManifest.
  [[nodiscard]] Result<std::vector<RunRecord>> RunSweep(
      const std::string& sweep_name, const DesignSpace& space,
      const std::string& simulation,
      const std::vector<SlaConstraint>& constraints = {},
      const std::vector<MonotoneHint>& hints = {},
      const std::string& scenario_hash = "");

  /// As above with an inline RunFn.
  [[nodiscard]] Result<std::vector<RunRecord>> RunSweepWith(
      const std::string& sweep_name, const DesignSpace& space,
      const RunFn& fn, const std::vector<SlaConstraint>& constraints = {},
      const std::vector<MonotoneHint>& hints = {},
      const std::string& scenario_hash = "");

  /// Result tables of past sweeps.
  ResultStore& store() { return store_; }
  const ResultStore& store() const { return store_; }

  /// Stats of the most recent sweep.
  const SweepStats& last_sweep_stats() const { return last_stats_; }

 private:
  WindTunnelOptions options_;
  InteractionGraph interactions_;
  std::map<std::string, RunFn> simulations_;
  SweepStats last_stats_;
  ResultStore store_;
};

}  // namespace wt

#endif  // WT_CORE_WIND_TUNNEL_H_
