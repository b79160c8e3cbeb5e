// wtlint rule engine: project-invariant checks over lexed token streams
// plus whole-program structure checks over the include graph
// (include_graph.h).
//
// Rule catalog (ids are what `// wtlint: allow(<rule>) -- <reason>` names;
// `allow(<family>)` suppresses a whole family on that line):
//
//   determinism/raw-random     std::random_device, rand(), srand(), ...
//   determinism/wall-clock     *_clock::now(), time(), gettimeofday(), ...
//   determinism/sleep          std::this_thread::sleep_*, usleep, nanosleep
//   hotpath/std-function       std::function in hot files (use wt::InlineFn)
//   hotpath/throw              throw in hot files (use Status/Result)
//   hotpath/dynamic-cast       dynamic_cast in hot files
//   hotpath/iostream           <iostream>/std::cout/std::cerr in hot files
//   error/nodiscard-status     Status/Result<T>-returning declaration in a
//                              header without [[nodiscard]]
//   error/dropped-status       (void)-cast of a call to a function known to
//                              return Status/Result
//   hygiene/using-namespace-header   using namespace in a header
//   hygiene/include-guard      header guard missing or not the WT_<PATH>_H_
//                              derived name (#pragma once also rejected:
//                              the tree standardizes on named guards)
//   hygiene/unordered-serialization  std::unordered_{map,set} inside the
//                              serialization layers (obs/, store/), where
//                              iteration order could leak into artifacts
//   hygiene/bad-suppression    wtlint suppression without a reason
//   hygiene/unused-suppression suppression that matched no finding
//   scenario/single-parser     ParseJson called outside wt/common,
//                              wt/scenario, tools/wtlint (its own layer
//                              config), and fuzz/ (drives the parser):
//                              the strict JSON reader is the only
//                              scenario-file parser; everything else loads
//                              through scenario::LoadScenarioFile
//   deps/include-cycle         file-level include cycle (full path in the
//                              message); the include graph must be acyclic
//   deps/layer-back-edge       module edge violating the committed layering
//                              DAG (tools/wtlint/layers.json): includes
//                              must point strictly downward
//   deps/unknown-module        src/wt module missing from layers.json
//   concurrency/implicit-seq-cst  atomic .load()/.store()/.exchange()/
//                              .fetch_*()/.compare_exchange_*() in sim/,
//                              core/, serve/ without a named memory order:
//                              seq_cst must be a decision, not a default
//   concurrency/manual-lock    .lock()/.unlock() member calls in a TU that
//                              names a mutex type; locks are RAII only
//                              (lock_guard / unique_lock / shared_lock)
//   concurrency/raw-thread     std::thread construction outside
//                              core/thread_pool and serve/server: threads
//                              come from the pool or the server, nowhere
//                              else in src/wt
//   concurrency/thread-detach  .detach() anywhere: a detached thread
//                              outlives every shutdown guarantee
//   determinism-flow/unordered-sink  a TU that uses an unordered container
//                              AND calls a serialization/hash sink
//                              (ToJson, ToString, Serialize, Fnv1a64, ...):
//                              iteration order can leak into bytes that are
//                              supposed to be byte-identical. Generalizes
//                              hygiene/unordered-serialization tree-wide.
//
// Determinism rules are skipped entirely for files on the allowlist
// (default: exactly src/wt/obs/wallclock.cc — see that header's contract).
//
// Analyze() is deterministic and optionally parallel: handed a
// wt::ThreadPool it lexes and rule-checks files concurrently into per-file
// finding buffers, then merges in path order — the report is byte-identical
// with and without the pool (covered by wtlint_test).

#ifndef WT_TOOLS_WTLINT_RULES_H_
#define WT_TOOLS_WTLINT_RULES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "tools/wtlint/include_graph.h"

namespace wt {

class ThreadPool;

namespace wtlint {

struct Finding {
  std::string rule;
  std::string file;   // root-relative path
  int line = 0;
  std::string message;
  bool suppressed = false;
  std::string suppress_reason;
  // For error/nodiscard-status: byte offset where "[[nodiscard]] " can be
  // inserted by --fix-nodiscard. SIZE_MAX = not fixable.
  size_t fix_offset = static_cast<size_t>(-1);
};

struct Config {
  // Path suffixes exempt from the determinism family. Keep this list a
  // single file: every entry is a place nondeterminism can hide.
  std::vector<std::string> determinism_allowlist = {"src/wt/obs/wallclock.cc"};
  // Path prefixes (root-relative) where hot-path rules apply.
  std::vector<std::string> hot_paths = {"src/wt/sim/",
                                        "src/wt/workload/resource_queue",
                                        "src/wt/workload/perf_sim"};
  // Path prefixes where unordered containers may not feed serialized output.
  std::vector<std::string> serialization_paths = {"src/wt/obs/",
                                                  "src/wt/store/"};
  // Path prefixes allowed to call the strict JSON reader directly; every
  // other caller must go through the scenario layer (scenario/single-parser).
  // tools/wtlint loads its own layers.json; fuzz/ feeds the parser corpora.
  std::vector<std::string> json_parser_allowlist = {
      "src/wt/common/", "src/wt/scenario/", "tools/wtlint/", "fuzz/"};
  // Path prefixes where every atomic access must name its memory order
  // (concurrency/implicit-seq-cst).
  std::vector<std::string> atomic_order_paths = {"src/wt/sim/",
                                                 "src/wt/core/",
                                                 "src/wt/serve/"};
  // Path prefixes licensed to construct std::thread. Everything else in
  // src/wt borrows threads from the pool or the server.
  std::vector<std::string> raw_thread_allowlist = {"src/wt/core/thread_pool",
                                                   "src/wt/serve/server"};
  // Function names whose call marks a TU as a serialization/hash sink for
  // determinism-flow/unordered-sink.
  std::vector<std::string> flow_sinks = {
      "ToJson",   "ToString",        "ToCsv",       "Serialize",
      "ToText",   "SaveResultStore", "Fnv1a64",     "SweepConfigHash",
      "ScenarioHash", "WriteFrame",  "AppendJson",  "AppendTo"};
  // The committed layering DAG (tools/wtlint/layers.json; deps/ family).
  LayerConfig layer_config = DefaultLayerConfig();
};

struct FileInput {
  std::string path;     // root-relative, '/'-separated
  std::string content;
};

struct AnalysisResult {
  std::vector<Finding> findings;  // suppressed ones included, marked
  int files_scanned = 0;
};

/// Runs every rule over `files`. Per-file passes run on `pool` when one is
/// provided (nullptr = serial); cross-file passes (status-fn collection,
/// the include graph) are sequential either way, and the result is
/// byte-identical regardless.
[[nodiscard]] AnalysisResult Analyze(const std::vector<FileInput>& files,
                                     const Config& config,
                                     ThreadPool* pool = nullptr);

/// Strict-JSON report (wtlint --json); schema documented in wtlint.cc.
[[nodiscard]] std::string ResultToJson(const AnalysisResult& result);

/// Human-readable report: one "file:line: [rule] message" per finding.
[[nodiscard]] std::string ResultToText(const AnalysisResult& result);

/// Returns `content` with "[[nodiscard]] " inserted for every unsuppressed
/// error/nodiscard-status finding that belongs to `path`.
[[nodiscard]] std::string ApplyNodiscardFixes(
    const std::string& path, const std::string& content,
    const std::vector<Finding>& findings);

}  // namespace wtlint
}  // namespace wt

#endif  // WT_TOOLS_WTLINT_RULES_H_
