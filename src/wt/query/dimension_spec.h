// Machine-readable dimension declarations for the built-in simulations.
//
// Before this table existed, the dimension defaults lived in a
// hand-maintained comment block in builtin_sims.h — which drifted (the
// comment said nodes(10) was common to all sims while the performance and
// provisioning engines actually default to 4). This table is now the ONE
// authority: the RunFns in builtin_sims.cc read their defaults from it
// (DimensionReader), wtq's \dims renders it, the scenario loader
// validates builder, "with" and "explore" keys against it, and
// builtin_sims_dimension_test asserts every declared default matches
// observed engine behavior when the dimension is omitted.
//
// Each dimension belongs to one of the scenario builder families
// (DESIGN.md §9): topology, failure_model, placement, workload_mix.
// Defaults marked kDerived have no static value — the engine computes
// them from other dimensions (documented in the spec's description).

#ifndef WT_QUERY_DIMENSION_SPEC_H_
#define WT_QUERY_DIMENSION_SPEC_H_

#include <string>
#include <vector>

#include "wt/core/design_space.h"
#include "wt/store/value.h"

namespace wt {

/// Scenario builder family a dimension belongs to (DESIGN.md §9).
enum class DimFamily {
  kTopology,      // machine and network shape: nodes, racks, nic, disk...
  kFailureModel,  // fault injection: AFR, TTF shape, outages, limpware...
  kPlacement,     // replica placement and redundancy policy
  kWorkloadMix,   // offered load: rates, sizes, skew, durations
};

const char* DimFamilyToString(DimFamily family);

/// How a dimension's default is produced.
enum class DimDefault {
  kStatic,   // `fallback` below, verbatim
  kDerived,  // computed from other dimensions; fallback is the sentinel
};

/// One dimension a simulation accepts.
struct DimensionSpec {
  std::string name;
  ValueType type = ValueType::kNull;
  DimFamily family = DimFamily::kTopology;
  DimDefault default_kind = DimDefault::kStatic;
  /// The default applied when a DesignPoint omits the dimension (for
  /// kDerived: the in-band sentinel the engine replaces).
  Value fallback;
  /// One line for \dims and docs.
  std::string description;
};

/// All dimensions of one built-in simulation.
struct SimulationDims {
  std::string simulation;
  std::string description;
  std::vector<DimensionSpec> dims;

  /// The spec for `name`, or nullptr if this simulation has no such
  /// dimension.
  const DimensionSpec* Find(const std::string& name) const;
};

/// The full table, one entry per built-in simulation, in registration
/// order. Immutable; built once.
const std::vector<SimulationDims>& BuiltinDimensionSpecs();

/// The entry for `simulation`, or nullptr if unknown.
const SimulationDims* FindSimulationDims(const std::string& simulation);

/// Renders the table for humans (wtq's \dims):
///   simulation
///     name  type  family  default  description
/// Pass a non-empty `simulation` to render just that entry.
std::string RenderDimensionTable(const std::string& simulation = "");

/// Reads a DesignPoint with defaults drawn from the declaration table.
/// Accessing a dimension the simulation never declared is a programming
/// error (aborts) — the guard that keeps builtin_sims.cc and the table
/// from drifting apart again.
class DimensionReader {
 public:
  /// `dims` must outlive the reader (table entries are static).
  DimensionReader(const SimulationDims& dims, const DesignPoint& point);

  int64_t Int(const std::string& name) const;
  double Double(const std::string& name) const;
  std::string Str(const std::string& name) const;
  bool Has(const std::string& name) const;

 private:
  const Value& FallbackFor(const std::string& name) const;

  const SimulationDims& dims_;
  const DesignPoint& point_;
};

}  // namespace wt

#endif  // WT_QUERY_DIMENSION_SPEC_H_
