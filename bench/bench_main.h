// Shared entry point for the bench binaries.
//
// Before this header existed every bench hand-rolled the same main()
// prologue — and most of them rolled it inconsistently: only two set up
// the WT_TRACE / WT_METRICS observability session, so CI's obs smoke step
// could only point at those two. Now each bench defines
//
//   int BenchMain(wt::bench::BenchContext& ctx);
//
// and this header supplies main(): an EnvObsSession (so WT_TRACE=t.json /
// WT_METRICS=m.json work for EVERY bench) and a labeled main thread.
// Include this header exactly once, from the bench's own .cc file.
//
// Scenario-driven benches (E2, E9, fig1, ...) additionally use
// RunScenarioQuery(ref): it loads a scenario file from the committed
// corpus (scenarios/ — see wt/scenario/scenario.h), boots a tunnel with
// the scenario's pinned seed and replications, and answers its query.
// The bench then only formats the result — the experiment's definition
// lives in version-controlled JSON, not in the binary.

#ifndef WT_BENCH_BENCH_MAIN_H_
#define WT_BENCH_BENCH_MAIN_H_

#include <string>
#include <utility>

#include "wt/common/macros.h"
#include "wt/common/result.h"
#include "wt/obs/obs.h"
#include "wt/query/builtin_sims.h"
#include "wt/query/executor.h"
#include "wt/scenario/scenario.h"

namespace wt {
namespace bench {

/// What BenchMain gets from the harness.
struct BenchContext {
  int argc = 0;
  char** argv = nullptr;
};

/// A scenario answered end-to-end: the compiled spec plus the query
/// result (sweep stats, satisfying table).
struct ScenarioRun {
  scenario::ScenarioSpec spec;
  QueryResult result;
};

/// Loads scenario `ref` (corpus name or path), boots a WindTunnel with
/// the scenario's seed/replications and the built-in simulations, and
/// executes the compiled query.
[[nodiscard]] inline Result<ScenarioRun> RunScenarioQuery(
    const std::string& ref, int num_workers = 1) {
  WT_ASSIGN_OR_RETURN(const std::string path,
                      scenario::FindScenarioPath(ref));
  WT_ASSIGN_OR_RETURN(scenario::ScenarioSpec spec,
                      scenario::LoadScenarioFile(path));
  WindTunnelOptions options;
  options.num_workers = num_workers;
  if (spec.has_seed) options.seed = spec.seed;
  if (spec.replications > 0) options.replications = spec.replications;
  WindTunnel tunnel(options);
  WT_RETURN_IF_ERROR(RegisterBuiltinSimulations(&tunnel));
  WT_ASSIGN_OR_RETURN(QueryResult result,
                      ExecuteQuery(&tunnel, spec.query, spec.name));
  return ScenarioRun{std::move(spec), std::move(result)};
}

}  // namespace bench
}  // namespace wt

/// Defined by each bench.
int BenchMain(wt::bench::BenchContext& ctx);

int main(int argc, char** argv) {
  // Env-driven observability for the whole bench run (CI's obs smoke step
  // relies on WT_TRACE / WT_METRICS working uniformly across benches).
  wt::obs::EnvObsSession obs_session;
  wt::obs::SetThisThreadLabel("main");
  wt::bench::BenchContext ctx;
  ctx.argc = argc;
  ctx.argv = argv;
  return BenchMain(ctx);
}

#endif  // WT_BENCH_BENCH_MAIN_H_
