// E1 — Figure 1 of the paper: probability that at least one of 10,000
// customers' data becomes unavailable vs. the number of failed nodes, for
// placement {Random, RoundRobin} x replication {3, 5} x cluster {10, 30}.
//
// The grid and Monte-Carlo parameters live in
// scenarios/fig1_unavailability.json (a rectangular f = 0..8 grid; the
// pre-registry bench extended N=30 to f=12, which a product grid cannot
// express). For each simulated point this bench also computes the exact
// closed-form value (hypergeometric for Random; circular transfer-matrix
// DP for RoundRobin). The paper reports the simulated curves only; the
// exact column is this repo's validation of them (§4.3).

#include <cstdio>
#include <string>

#include "bench_main.h"
#include "wt/analytics/combinatorics.h"
#include "wt/obs/obs.h"
#include "wt/store/table.h"

namespace {

double Num(const wt::Table& t, size_t row, const char* col) {
  return t.Get(row, col).value().ToNumeric().value();
}

}  // namespace

int BenchMain(wt::bench::BenchContext&) {
  using namespace wt;

  std::printf(
      "E1 / Figure 1: P(>=1 of 10,000 users unavailable) vs node failures\n"
      "quorum-based protocol (majority of n replicas required)\n\n");

  auto run = bench::RunScenarioQuery("fig1_unavailability");
  if (!run.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const Table& t = run->result.satisfying;

  int64_t trials = 0;
  std::string prev_group;
  for (size_t row = 0; row < t.num_rows(); ++row) {
    int num_nodes = static_cast<int>(Num(t, row, "nodes"));
    int n = static_cast<int>(Num(t, row, "replication"));
    int f = static_cast<int>(Num(t, row, "failures"));
    int num_users = static_cast<int>(Num(t, row, "users"));
    const std::string placement =
        t.Get(row, "placement").value().AsString();
    std::string group = placement + "/" +
                        std::to_string(n) + "/" + std::to_string(num_nodes);
    if (!prev_group.empty() && group != prev_group) std::printf("\n");
    prev_group = group;

    int quorum = n / 2 + 1;
    double exact =
        placement == "round_robin"
            ? RoundRobinAnyUnavailable(num_nodes, n, quorum, f).value()
            : RandomPlacementAnyUnavailable(num_nodes, n, quorum, f,
                                            num_users);
    std::printf("%-12s n=%d N=%-3d f=%-3d  P(unavail) sim=%.4f exact=%.4f\n",
                placement.c_str(), n, num_nodes, f,
                Num(t, row, "p_any_unavailable"), exact);
    trials += static_cast<int64_t>(Num(t, row, "mc_trials"));
  }
  std::printf("\n");
  obs::CountIfEnabled("fig1.mc_trials", trials);
  std::printf(
      "\nShape checks (paper): unavailability rises with f; n=5 curves sit\n"
      "below n=3 at the same (N, f); the placement policy separates the\n"
      "curves strongly (with 10,000 users, Random saturates at f = quorum\n"
      "losses while RoundRobin climbs gradually with the number of\n"
      "co-window failure patterns) — and every simulated point agrees with\n"
      "the exact column.\n");
  return 0;
}
