// Unit tests for wt::scenario — the registry, the strict loader, ablation
// application, USING SCENARIO resolution, and corpus lookup.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "wt/common/json.h"
#include "wt/scenario/scenario.h"
#include "wt/store/value.h"

namespace wt {
namespace scenario {
namespace {

// A cheap, valid scenario exercising all four model families.
constexpr const char* kMinimal = R"({
  "scenario": "unit_minimal",
  "simulation": "static_availability",
  "topology": {"builder": "flat_cluster", "nodes": 10},
  "placement": {"builder": "replicated", "replication": 3},
  "workload_mix": {"builder": "object_store", "users": 50, "trials": 20},
  "explore": {"failures": [1, 2]},
  "seed": 7
})";

const Dimension* FindDim(const QuerySpec& q, const std::string& name) {
  for (const Dimension& d : q.dimensions) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

TEST(ScenarioRegistry, FamiliesAreFixed) {
  const std::vector<std::string>& fams = ScenarioRegistry::Families();
  ASSERT_EQ(fams.size(), 5u);
  EXPECT_EQ(fams[0], "topology");
  EXPECT_EQ(fams[4], "ablation");
}

TEST(ScenarioRegistry, RejectsUnknownFamilyAndBadNames) {
  ScenarioRegistry reg;
  auto noop = [](const json::JsonValue&, ScenarioDraft*) {
    return Status::OK();
  };
  EXPECT_FALSE(reg.Register("not_a_family", "x", noop).ok());
  EXPECT_FALSE(reg.Register("topology", "CamelCase", noop).ok());
  EXPECT_FALSE(reg.Register("topology", "has space", noop).ok());
  EXPECT_FALSE(reg.Register("topology", "trailing_", noop).ok());
  EXPECT_FALSE(reg.Register("topology", "doubled__name", noop).ok());
  EXPECT_TRUE(reg.Register("topology", "ok_name", noop).ok());
}

TEST(ScenarioRegistry, DuplicateNameIsAlreadyExists) {
  ScenarioRegistry reg;
  auto noop = [](const json::JsonValue&, ScenarioDraft*) {
    return Status::OK();
  };
  ASSERT_TRUE(reg.Register("placement", "dup", noop).ok());
  Status again = reg.Register("placement", "dup", noop);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
}

TEST(ScenarioRegistry, FindUnknownListsKnownBuilders) {
  auto missing = ScenarioRegistry::Global()->Find("topology", "nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("flat_cluster"),
            std::string::npos);
}

TEST(ScenarioRegistry, GlobalHasBuiltins) {
  ScenarioRegistry* reg = ScenarioRegistry::Global();
  EXPECT_TRUE(reg->Find("topology", "flat_cluster").ok());
  EXPECT_TRUE(reg->Find("failure_model", "weibull_afr").ok());
  EXPECT_TRUE(reg->Find("placement", "replicated").ok());
  EXPECT_TRUE(reg->Find("workload_mix", "open_loop").ok());
  EXPECT_TRUE(reg->Find("ablation", "set_params").ok());
  // Names() is sorted.
  std::vector<std::string> names = reg->Names("failure_model");
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ScenarioLoad, MinimalCompiles) {
  auto spec = LoadScenarioText(kMinimal, "unit");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "unit_minimal");
  EXPECT_EQ(spec->query.simulation, "static_availability");
  ASSERT_EQ(spec->query.dimensions.size(), 1u);
  EXPECT_EQ(spec->query.dimensions[0].name, "failures");
  EXPECT_EQ(spec->query.dimensions[0].candidates.size(), 2u);
  EXPECT_EQ(spec->query.params.at("nodes"), Value(10));
  EXPECT_EQ(spec->query.params.at("replication"), Value(3));
  EXPECT_EQ(spec->query.params.at("users"), Value(50));
  EXPECT_TRUE(spec->has_seed);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->replications, 0);
  EXPECT_EQ(spec->query.scenario_hash.size(), 16u);
  EXPECT_EQ(spec->query.scenario_name, "unit_minimal");
}

TEST(ScenarioLoad, HashIsContentAddressed) {
  auto a = LoadScenarioText(kMinimal, "unit");
  std::string tweaked = kMinimal;
  tweaked.insert(tweaked.size() - 2, " ");  // whitespace-only edit
  auto b = LoadScenarioText(tweaked, "unit");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->query.scenario_hash, b->query.scenario_hash);
}

TEST(ScenarioLoad, UnknownTopLevelKeyRejected) {
  auto spec = LoadScenarioText(R"({
    "scenario": "x", "simulation": "static_availability",
    "explore": {"failures": [1]}, "typo_key": 1
  })",
                               "unit");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("typo_key"), std::string::npos);
}

TEST(ScenarioLoad, UnknownSimulationListsKnown) {
  auto spec = LoadScenarioText(
      R"({"scenario": "x", "simulation": "nope"})", "unit");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
  EXPECT_NE(spec.status().message().find("availability"),
            std::string::npos);
}

TEST(ScenarioLoad, NonSnakeCaseNameRejected) {
  auto spec = LoadScenarioText(
      R"({"scenario": "BadName", "simulation": "availability"})", "unit");
  EXPECT_FALSE(spec.ok());
  auto doubled = LoadScenarioText(
      R"({"scenario": "bad__name", "simulation": "availability"})", "unit");
  ASSERT_FALSE(doubled.ok());
  EXPECT_EQ(doubled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(doubled.status().message().find("snake_case"), std::string::npos);
}

TEST(ScenarioLoad, ParseErrorsCiteSourceAndPosition) {
  auto spec = LoadScenarioText("{\n  \"scenario\": oops\n}", "my_file.json");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("my_file.json:2"),
            std::string::npos);
}

TEST(ScenarioLoad, UndeclaredDimensionRejected) {
  auto spec = LoadScenarioText(R"({
    "scenario": "x", "simulation": "static_availability",
    "with": {"warp_factor": 9}
  })",
                               "unit");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("warp_factor"), std::string::npos);
}

TEST(ScenarioLoad, BuilderCannotSetOtherFamilysDimension) {
  // "failures" belongs to the failure_model family; a topology builder
  // must not be able to configure it.
  auto spec = LoadScenarioText(R"({
    "scenario": "x", "simulation": "static_availability",
    "topology": {"builder": "flat_cluster", "failures": 2}
  })",
                               "unit");
  EXPECT_FALSE(spec.ok());
}

TEST(ScenarioLoad, ExploreWinsOverWith) {
  auto spec = LoadScenarioText(R"({
    "scenario": "x", "simulation": "static_availability",
    "with": {"failures": 3},
    "explore": {"failures": [1, 2]}
  })",
                               "unit");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->query.params.count("failures"), 0u);
  ASSERT_NE(FindDim(spec->query, "failures"), nullptr);
  EXPECT_EQ(FindDim(spec->query, "failures")->candidates.size(), 2u);
}

TEST(ScenarioLoad, DslLiteralParity) {
  // An exact-int literal stays an int Value even for a double-typed
  // dimension — exactly what the DSL parser does — so scenario-built and
  // DSL-built sweeps hash identically. A fractional literal becomes a
  // double; a fractional literal can never fill an int dimension.
  auto spec = LoadScenarioText(R"({
    "scenario": "x", "simulation": "availability",
    "with": {"nic_gbps": 10, "object_gb": 20.0}
  })",
                               "unit");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->query.params.at("nic_gbps").type(), ValueType::kInt);
  EXPECT_EQ(spec->query.params.at("object_gb").type(), ValueType::kDouble);

  auto bad = LoadScenarioText(R"({
    "scenario": "x", "simulation": "availability",
    "with": {"nodes": 2.5}
  })",
                              "unit");
  EXPECT_FALSE(bad.ok());
}

TEST(ScenarioLoad, QueryClausesCompile) {
  auto spec = LoadScenarioText(R"({
    "scenario": "x", "simulation": "availability",
    "explore": {"replication": [2, 3], "nic_gbps": [1.0, 10.0]},
    "assuming": [{"higher": "replication"}, {"lower": "nic_gbps"}],
    "where": [{"metric": "availability", "at_least": 0.999}],
    "order_by": "cost_monthly_usd",
    "ascending": false,
    "limit": 4,
    "replications": 3
  })",
                               "unit");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->query.hints.size(), 2u);
  EXPECT_EQ(spec->query.hints[0].dimension, "replication");
  EXPECT_EQ(spec->query.hints[0].direction,
            MonotoneDirection::kHigherIsBetter);
  EXPECT_EQ(spec->query.hints[1].direction,
            MonotoneDirection::kLowerIsBetter);
  ASSERT_EQ(spec->query.constraints.size(), 1u);
  EXPECT_EQ(spec->query.constraints[0].metric, "availability");
  EXPECT_EQ(spec->query.constraints[0].op, SlaOp::kAtLeast);
  EXPECT_EQ(spec->query.order_by, "cost_monthly_usd");
  EXPECT_FALSE(spec->query.order_ascending);
  EXPECT_EQ(spec->query.limit, 4);
  EXPECT_EQ(spec->replications, 3);
}

TEST(ScenarioLoad, AscendingRequiresOrderBy) {
  auto spec = LoadScenarioText(R"({
    "scenario": "x", "simulation": "availability", "ascending": true
  })",
                               "unit");
  EXPECT_FALSE(spec.ok());
}

constexpr const char* kWithAblations = R"({
  "scenario": "abl",
  "simulation": "static_availability",
  "with": {"trials": 30},
  "explore": {"failures": [1, 2, 3], "replication": [3, 5]},
  "ablations": {
    "few_trials": {"set": {"trials": 5}},
    "fix_failures": {"builder": "drop_dimensions", "drop": ["failures"]},
    "wide_failures": {
      "builder": "override_explore",
      "explore": {"failures": [1, 2, 3, 4, 5, 6]}
    }
  }
})";

TEST(ScenarioAblations, ListedButNotAppliedByDefault) {
  auto spec = LoadScenarioText(kWithAblations, "unit");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->available_ablations.size(), 3u);
  EXPECT_EQ(spec->query.params.at("trials"), Value(30));
  EXPECT_EQ(FindDim(spec->query, "failures")->candidates.size(), 3u);
}

TEST(ScenarioAblations, SetParamsOverridesFixedValue) {
  auto spec = LoadScenarioText(kWithAblations, "unit", {"few_trials"});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->query.params.at("trials"), Value(5));
  EXPECT_EQ(spec->query.ablations,
            std::vector<std::string>{"few_trials"});
}

TEST(ScenarioAblations, DropDimensionsRemovesExploredDim) {
  auto spec = LoadScenarioText(kWithAblations, "unit", {"fix_failures"});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(FindDim(spec->query, "failures"), nullptr);
  EXPECT_NE(FindDim(spec->query, "replication"), nullptr);
}

TEST(ScenarioAblations, OverrideExploreReplacesCandidates) {
  auto spec = LoadScenarioText(kWithAblations, "unit", {"wide_failures"});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(FindDim(spec->query, "failures")->candidates.size(), 6u);
  // Position is preserved: failures is still the first dimension.
  EXPECT_EQ(spec->query.dimensions[0].name, "failures");
}

TEST(ScenarioAblations, UnknownAblationIsNotFound) {
  auto spec = LoadScenarioText(kWithAblations, "unit", {"no_such"});
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
  EXPECT_NE(spec.status().message().find("few_trials"), std::string::npos);
}

TEST(ScenarioResolve, PassThroughWithoutScenario) {
  QuerySpec plain;
  plain.simulation = "availability";
  plain.dimensions.push_back({"replication", {Value(2), Value(3)}});
  auto resolved = ResolveQuery(plain);
  ASSERT_TRUE(resolved.ok());
  EXPECT_TRUE(resolved->scenario_hash.empty());
  EXPECT_EQ(resolved->dimensions.size(), 1u);
}

TEST(ScenarioResolve, QueryOverridesScenario) {
  // Uses the committed corpus: fig1 explores nodes/replication/placement/
  // failures. The query narrows nodes, applies an ablation, and caps rows.
  QuerySpec parsed;
  parsed.scenario_name = "fig1_unavailability";
  parsed.ablations = {"round_robin_only"};
  parsed.dimensions.push_back({"nodes", {Value(10)}});
  parsed.limit = 5;
  auto resolved = ResolveQuery(parsed);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved->simulation, "static_availability");
  EXPECT_EQ(FindDim(*resolved, "nodes")->candidates.size(), 1u);
  EXPECT_EQ(FindDim(*resolved, "placement")->candidates.size(), 1u);
  EXPECT_EQ(FindDim(*resolved, "failures")->candidates.size(), 9u);
  EXPECT_EQ(resolved->limit, 5);
  EXPECT_EQ(resolved->scenario_hash.size(), 16u);
}

TEST(ScenarioResolve, UnknownScenarioIsNotFound) {
  QuerySpec parsed;
  parsed.scenario_name = "no_such_scenario";
  auto resolved = ResolveQuery(parsed);
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kNotFound);
}

TEST(ScenarioCorpus, EveryCommittedFileLoads) {
  std::vector<std::string> files = ListScenarioFiles();
  ASSERT_GE(files.size(), 5u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  for (const std::string& path : files) {
    auto spec = LoadScenarioFile(path);
    EXPECT_TRUE(spec.ok()) << path << ": " << spec.status().ToString();
    // Every declared ablation must itself apply cleanly.
    for (const std::string& ab : spec->available_ablations) {
      auto ablated = LoadScenarioFile(path, {ab});
      EXPECT_TRUE(ablated.ok())
          << path << " ablation " << ab << ": "
          << ablated.status().ToString();
      EXPECT_NE(ablated->query.scenario_hash, "");
      EXPECT_EQ(ablated->query.scenario_hash, spec->query.scenario_hash)
          << "hash is file-content-addressed, not ablation-dependent";
    }
  }
}

TEST(ScenarioCorpus, FindScenarioPathResolvesNamesAndPaths) {
  auto by_name = FindScenarioPath("e2_replication_tradeoff");
  ASSERT_TRUE(by_name.ok()) << by_name.status().ToString();
  auto by_path = FindScenarioPath(*by_name);  // contains '/' → used as-is
  ASSERT_TRUE(by_path.ok());
  EXPECT_EQ(*by_name, *by_path);

  auto missing = FindScenarioPath("definitely_not_here");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(ScenarioCorpus, EnvVarOverridesScenarioDir) {
  std::string dir = ::testing::TempDir() + "wt_scn_env";
  std::filesystem::create_directories(dir);
  std::filesystem::remove(dir + "/other.json");
  {
    std::ofstream out(dir + "/tiny.json");
    out << R"({"scenario": "tiny", "simulation": "static_availability",
               "explore": {"failures": [1]}})";
  }
  ::setenv("WT_SCENARIO_DIR", dir.c_str(), 1);
  EXPECT_EQ(ScenarioDir(), dir);
  auto found = FindScenarioPath("tiny");
  std::vector<std::string> files = ListScenarioFiles();
  ::unsetenv("WT_SCENARIO_DIR");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_EQ(files.size(), 1u);
  auto spec = LoadScenarioFile(files[0]);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
}

}  // namespace
}  // namespace scenario
}  // namespace wt
