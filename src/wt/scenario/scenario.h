// wt::scenario — config-driven scenario construction (DESIGN.md §9).
//
// The paper's pitch is an analyst composing topology × failure model ×
// placement × workload mix and asking what-if questions; before this
// layer, every such composition in the repo was a hand-written C++
// binary. A scenario FILE is the declarative replacement: a strict JSON
// document (parsed by wt/common/json.h, the tree's one JSON reader) that
// names built-in builders and is compiled into the same QuerySpec the DSL
// produces — so benches, examples, wtq, and wt::serve all run scenario
// files through the one executor path.
//
// File schema (all keys validated; unknown keys are errors):
//
//   {
//     "scenario": "e2_replication_tradeoff",   // required, snake_case
//     "description": "...",                    // optional
//     "simulation": "availability",            // required, a built-in sim
//     "topology":      {"builder": "flat_cluster", ...},   // optional
//     "failure_model": {"builder": "weibull_afr", ...},    // optional
//     "placement":     {"builder": "replicated", ...},     // optional
//     "workload_mix":  {"builder": "object_store", ...},   // optional
//     "with":    {"years": 2},                 // extra fixed dimensions
//     "explore": {"replication": [3, 2]},      // swept dimensions (ordered)
//     "assuming": [{"higher": "replication"}],
//     "where":    [{"metric": "availability", "at_least": 0.999}],
//     "order_by": "cost_monthly_usd",
//     "ascending": true,
//     "limit": 5,
//     "seed": 777,                             // driver hint (see below)
//     "replications": 3,                       // driver hint
//     "ablations": {
//       "fast_detection": {"set": {"detection_delay_s": 1.0}}
//     }
//   }
//
// Builders. Each of the four model families has a fixed set of named
// builders (the table in scenario.cc). A family object's "builder" key
// picks one; the remaining keys fix dimensions, each validated against
// the simulation's DimensionSpec table (name declared, type compatible,
// family matches the builder's), and some builders require a key
// (failure_model/weibull_afr needs node_afr). Entries under "ablations"
// are named transforms of the composed query — set_params (the default
// "builder"), drop_dimensions, override_explore — applied only when a
// caller asks for them by name: SNIPPETS.md's "flags applied to a copied
// config".
//
// Precedence, lowest to highest: family builders → "with" → "explore"
// (exploring a dimension removes any fixed value for it) → applied
// ablations → query-level clauses (ResolveQuery).
//
// Determinism contract: compiling a scenario is pure — the resulting
// QuerySpec, and therefore the sweep's RunRecords, are byte-identical to
// the hand-built setup it replaces (scenario_equivalence_test pins this
// at 1 and 8 workers). `seed` and `replications` are hints for drivers
// that BOOT a tunnel from the scenario (wtq --scenario, benches, tests);
// inside a live REPL or server the session's own seed governs, and the
// scenario hash in the cache key keeps the answers distinct.

#ifndef WT_SCENARIO_SCENARIO_H_
#define WT_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wt/common/result.h"
#include "wt/query/parser.h"

namespace wt {
namespace scenario {

/// A loaded scenario, compiled to a ready-to-execute QuerySpec.
struct ScenarioSpec {
  std::string name;
  std::string description;
  /// The compiled query: simulation, dimensions, params, hints,
  /// constraints, order, limit, plus scenario_name/ablations/
  /// scenario_hash — executable as-is.
  QuerySpec query;
  /// Sweep seed pinned by the file (valid iff has_seed).
  uint64_t seed = 0;
  bool has_seed = false;
  /// Replications pinned by the file (0 = unspecified).
  int replications = 0;
  /// Every ablation name the file defines (applied or not).
  std::vector<std::string> available_ablations;
};

/// Compiles scenario JSON `text` (error messages cite `source_name`),
/// applying `ablations` by name. The returned spec's scenario_hash is
/// the 16-hex FNV-1a of `text` — exactly the committed file bytes.
[[nodiscard]] Result<ScenarioSpec> LoadScenarioText(
    const std::string& text, const std::string& source_name,
    const std::vector<std::string>& ablations = {});

/// Reads and compiles a scenario file.
[[nodiscard]] Result<ScenarioSpec> LoadScenarioFile(
    const std::string& path, const std::vector<std::string>& ablations = {});

/// The scenario corpus directory: $WT_SCENARIO_DIR if set, else the
/// compile-time WT_SCENARIO_DIR (the repo's scenarios/ tree), else
/// "scenarios".
std::string ScenarioDir();

/// Resolves a scenario reference to a file path: a reference containing
/// '/' or ending in ".json" is used as a path; otherwise it names
/// ScenarioDir()/<ref>.json. NotFound if the file does not exist.
[[nodiscard]] Result<std::string> FindScenarioPath(const std::string& ref);

/// Sorted *.json paths under ScenarioDir() (empty if the directory is
/// missing).
std::vector<std::string> ListScenarioFiles();

/// Resolves a parsed `USING SCENARIO` query into a plain executable
/// QuerySpec: loads the named scenario (with the query's ablations),
/// then applies the query-level overrides — EXPLORE dimensions replace
/// same-named scenario dimensions (and win over fixed values), ASSUMING
/// hints replace same-dimension hints, WHERE constraints append, ORDER
/// BY and LIMIT override when present. Queries without a scenario pass
/// through unchanged.
[[nodiscard]] Result<QuerySpec> ResolveQuery(const QuerySpec& parsed);

}  // namespace scenario
}  // namespace wt

#endif  // WT_SCENARIO_SCENARIO_H_
