// The three batch workloads: an analyst asks a what-if question of a
// scenario file and waits for the answer. Each answer is cold: load and
// compile the scenario file, boot a fresh WindTunnel, execute its query —
// what `wtq --scenario` does per invocation.
//
//   fig1_cold   the paper's one figure (72 points of static Monte Carlo,
//               no DES events, no serving). Time goes to soft's
//               StorageService builds and quorum scans.
//   des_whatif  one answer is a round over four DES scenarios (E2, the §1
//               what-if, E9 limpware, E4 provisioning): the sim kernel,
//               dynamic availability and the queueing network do the work,
//               and with 4–10 points per sweep the slowest point sets the
//               answer time.
//   sweep_fine  benchsuite/sweep_fine.json: 1,280 cheap points with
//               dominance pruning, so orchestration (wavefronts, pruner,
//               ParallelFor grain and steals, table build) is the cost.

#include <string>
#include <utility>
#include <vector>

#include "suite.h"
#include "wt/obs/trace.h"
#include "wt/obs/wallclock.h"
#include "wt/query/executor.h"
#include "wt/scenario/scenario.h"

namespace wt {
namespace bench_suite {
namespace {

struct ScenarioWorkloadDef {
  const char* name;
  /// Scenario files, relative to the repository root.
  std::vector<std::string> files;
};

const ScenarioWorkloadDef* FindDef(const std::string& name) {
  static const std::vector<ScenarioWorkloadDef> kDefs = {
      {"fig1_cold", {"scenarios/fig1_unavailability.json"}},
      {"des_whatif",
       {"scenarios/e2_replication_tradeoff.json",
        "scenarios/whatif_repair_codesign.json",
        "scenarios/e9_limpware.json", "scenarios/e4_provisioning.json"}},
      {"sweep_fine", {"benchsuite/sweep_fine.json"}},
  };
  for (const ScenarioWorkloadDef& d : kDefs) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

/// One cold answer: load, boot, execute — with the run's seed in place of
/// the file's pinned one.
Result<QueryResult> AnswerCold(const std::string& path, uint64_t seed,
                               int workers, RunLedger* ledger,
                               std::string* name) {
  WT_TRACE_SCOPE("bench", "answer");
  scenario::ScenarioSpec spec;
  {
    WT_TRACE_SCOPE("bench", "scenario.load");
    WT_ASSIGN_OR_RETURN(const std::string resolved,
                        scenario::FindScenarioPath(path));
    WT_ASSIGN_OR_RETURN(spec, scenario::LoadScenarioFile(resolved));
  }
  WindTunnelOptions options;
  options.num_workers = workers;
  options.seed = seed;
  if (spec.replications > 0) options.replications = spec.replications;
  WindTunnel tunnel(options);
  WT_RETURN_IF_ERROR(RegisterSims(&tunnel, ledger));
  *name = spec.name;
  WT_TRACE_SCOPE("bench", "query.execute");
  return ExecuteQuery(&tunnel, spec.query, spec.name);
}

class ScenarioWorkload final : public Workload {
 public:
  ScenarioWorkload(const ScenarioWorkloadDef& def, const RunOptions& options)
      : def_(def), options_(options) {
    for (const std::string& f : def.files) {
      paths_.push_back(options.suite_dir + "/../" + f);
    }
  }

  Status Setup(RunLedger* ledger) override {
    ledger_ = ledger;
    // Every file is compiled once up front so a broken corpus fails before
    // measuring.
    for (const std::string& p : paths_) {
      WT_ASSIGN_OR_RETURN(const std::string resolved,
                          scenario::FindScenarioPath(p));
      WT_ASSIGN_OR_RETURN(scenario::ScenarioSpec spec,
                          scenario::LoadScenarioFile(resolved));
      if (spec.query.dimensions.empty()) {
        return Status::InvalidArgument(p + " explores nothing");
      }
    }
    return Status::OK();
  }

  Result<PhaseResult> Run(double seconds) override {
    PhaseResult out;
    std::vector<std::vector<double>> per_file_ms(paths_.size());
    int64_t executed = 0;
    int64_t pruned = 0;
    const double cpu0 = CpuSeconds();
    const int64_t t0 = obs::WallNanos();
    do {
      const int64_t round_t0 = obs::WallNanos();
      for (size_t i = 0; i < paths_.size(); ++i) {
        const int64_t q0 = obs::WallNanos();
        std::string name;
        Result<QueryResult> r = AnswerCold(paths_[i], options_.seed,
                                           options_.workers, ledger_, &name);
        ++out.attempted;
        if (!r.ok()) {
          ++out.failed;
          continue;
        }
        per_file_ms[i].push_back(MillisSince(q0));
        out.sweep_ms.push_back(static_cast<double>(r->profile.sweep_us) /
                               1e3);
        executed += static_cast<int64_t>(r->stats.executed);
        pruned += static_cast<int64_t>(r->stats.pruned);
        if (r->satisfying.num_rows() == 0 ||
            !fingerprints_.Record(name, r->satisfying.ToCsv())) {
          ++out.failed;
        }
      }
      out.answer_ms.push_back(MillisSince(round_t0));
    } while (!options_.smoke && MillisSince(t0) < seconds * 1e3);
    const double wall_s = MillisSince(t0) / 1e3;
    const double answers = static_cast<double>(out.answer_ms.size());
    out.answers_per_s = answers / wall_s;
    out.cpu_ms_per_answer = (CpuSeconds() - cpu0) * 1e3 / answers;

    json::JsonValue per_file = json::JsonValue::Object();
    for (size_t i = 0; i < paths_.size(); ++i) {
      (void)per_file.Insert(def_.files[i],
                            json::JsonValue::Number(Median(per_file_ms[i])));
    }
    (void)out.detail.Insert("answer_ms_p50_by_file", std::move(per_file));
    (void)out.detail.Insert("runs_executed", json::JsonValue::Int(executed));
    (void)out.detail.Insert("runs_pruned", json::JsonValue::Int(pruned));
    return out;
  }

  int sweep_workers() const override { return options_.workers; }

 private:
  const ScenarioWorkloadDef& def_;
  RunOptions options_;
  std::vector<std::string> paths_;
  RunLedger* ledger_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> MakeScenarioWorkload(const RunOptions& options) {
  const ScenarioWorkloadDef* def = FindDef(options.workload);
  if (def == nullptr) return nullptr;
  return std::make_unique<ScenarioWorkload>(*def, options);
}

}  // namespace bench_suite
}  // namespace wt
