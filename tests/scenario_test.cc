// Unit tests for wt::scenario — the built-in builders, the strict loader,
// ablation application, USING SCENARIO resolution, and corpus lookup.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
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

// A scenario over `simulation` whose only model family section is
// `family`: `section` (JSON text).
Result<ScenarioSpec> LoadSection(const std::string& simulation,
                                 const std::string& family,
                                 const std::string& section) {
  return LoadScenarioText(R"({"scenario": "x", "simulation": ")" +
                              simulation + R"(", ")" + family +
                              R"(": )" + section + "}",
                          "unit");
}

TEST(ScenarioBuilders, EveryBuiltinLoads) {
  struct Case {
    const char* simulation;
    const char* family;
    const char* section;
    std::map<std::string, Value> params;
  };
  const std::vector<Case> cases = {
      {"static_availability", "topology",
       R"({"builder": "flat_cluster", "nodes": 12})", {{"nodes", Value(12)}}},
      {"availability", "failure_model",
       R"({"builder": "weibull_afr", "node_afr": 0.05, "ttf_shape": 2})",
       {{"node_afr", Value(0.05)}, {"ttf_shape", Value(2)}}},
      {"static_availability", "failure_model",
       R"({"builder": "fixed_count", "failures": 2})",
       {{"failures", Value(2)}}},
      {"performance", "failure_model",
       R"({"builder": "node_outage", "outage_at_s": 60.5})",
       {{"outage_at_s", Value(60.5)}}},
      {"performance", "failure_model",
       R"({"builder": "degraded_nic", "limp_nic_node": 1})",
       {{"limp_nic_node", Value(1)}}},
      {"availability", "failure_model", R"({"builder": "none"})", {}},
      {"static_availability", "placement",
       R"({"builder": "replicated", "replication": 2, "placement": "copyset"})",
       {{"replication", Value(2)}, {"placement", Value("copyset")}}},
      {"static_availability", "workload_mix",
       R"({"builder": "object_store", "users": 50})", {{"users", Value(50)}}},
      {"performance", "workload_mix", R"({"builder": "open_loop", "rate": 100})",
       {{"rate", Value(100)}}},
      {"provisioning", "workload_mix",
       R"({"builder": "cache_working_set", "working_set_gb": 64})",
       {{"working_set_gb", Value(64)}}},
  };
  for (const Case& c : cases) {
    auto spec = LoadSection(c.simulation, c.family, c.section);
    ASSERT_TRUE(spec.ok()) << c.section << ": " << spec.status().ToString();
    EXPECT_EQ(spec->query.params, c.params) << c.section;
    EXPECT_TRUE(spec->query.dimensions.empty()) << c.section;
  }
}

TEST(ScenarioBuilders, UnknownBuilderListsItsFamilySorted) {
  auto spec = LoadSection("availability", "failure_model",
                          R"({"builder": "nope"})");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(spec.status().message(),
            "unit: no builder 'nope' in family 'failure_model'; known: "
            "degraded_nic, fixed_count, node_outage, none, weibull_afr");

  auto topo = LoadSection("availability", "topology", R"({"builder": "x"})");
  ASSERT_FALSE(topo.ok());
  EXPECT_EQ(topo.status().message(),
            "unit: no builder 'x' in family 'topology'; known: flat_cluster");
}

TEST(ScenarioBuilders, RequiredKeysAreEnforced) {
  struct Case {
    const char* simulation;
    const char* family;
    const char* builder;
    const char* key;
  };
  const std::vector<Case> cases = {
      {"availability", "failure_model", "weibull_afr", "node_afr"},
      {"static_availability", "failure_model", "fixed_count", "failures"},
      {"performance", "failure_model", "node_outage", "outage_at_s"},
      {"performance", "failure_model", "degraded_nic", "limp_nic_node"},
      {"performance", "workload_mix", "open_loop", "rate"},
      {"provisioning", "workload_mix", "cache_working_set", "working_set_gb"},
  };
  for (const Case& c : cases) {
    auto spec = LoadSection(c.simulation, c.family,
                            std::string(R"({"builder": ")") + c.builder +
                                "\"}");
    ASSERT_FALSE(spec.ok()) << c.builder;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(spec.status().message(),
              std::string("unit: ") + c.family + "/" + c.builder +
                  ": missing required key '" + c.key + "'");
  }
}

TEST(ScenarioBuilders, SectionErrorsKeepTheirMessages) {
  struct Case {
    const char* family;
    const char* section;
    const char* message;
  };
  const std::vector<Case> cases = {
      {"failure_model", R"({"builder": "none", "failures": 1})",
       "unit: failure_model/none takes no config"},
      {"topology", "3", "unit: 'topology' must be an object"},
      {"placement", R"({"replication": 3})",
       "unit: 'placement' needs a string \"builder\" key"},
      {"workload_mix", R"({"builder": 5})",
       "unit: 'workload_mix' needs a string \"builder\" key"},
      {"topology", R"({"builder": "flat_cluster", "failures": 2})",
       "unit: topology/flat_cluster: dimension 'failures' belongs to family "
       "'failure_model', not 'topology'"},
      {"topology", R"({"builder": "flat_cluster", "warp": 9})",
       "unit: topology/flat_cluster: simulation 'static_availability' has no "
       "dimension 'warp' (see \\dims)"},
      {"placement", R"({"builder": "replicated", "replication": 2.5})",
       "unit: placement/replicated: dimension 'replication': expected an "
       "integer"},
  };
  for (const Case& c : cases) {
    auto spec = LoadSection("static_availability", c.family, c.section);
    ASSERT_FALSE(spec.ok()) << c.section;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(spec.status().message(), c.message);
  }
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

TEST(ScenarioAblations, SetParamsUnexploresThePinnedDimension) {
  std::string text = kWithAblations;
  text.replace(text.find(R"("few_trials")"), 0,
               R"("pin_failures": {"set": {"failures": 2}}, )");
  auto spec = LoadScenarioText(text, "unit", {"pin_failures"});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(FindDim(spec->query, "failures"), nullptr);
  EXPECT_EQ(spec->query.params.at("failures"), Value(2));
  ASSERT_EQ(spec->query.dimensions.size(), 1u);
  EXPECT_EQ(spec->query.dimensions[0].name, "replication");
}

TEST(ScenarioAblations, ErrorsKeepTheirMessages) {
  // Malformed ablations load until requested; each then fails alone.
  constexpr const char* kMalformed = R"({
    "scenario": "abl", "simulation": "static_availability",
    "with": {"trials": 30},
    "explore": {"failures": [1, 2]},
    "ablations": {
      "unknown": {"builder": "nope"},
      "numeric_builder": {"builder": 7},
      "set_not_object": {"set": 3},
      "set_empty": {"set": {}},
      "set_extra_key": {"set": {"trials": 5}, "also": 1},
      "drop_not_array": {"builder": "drop_dimensions", "drop": "failures"},
      "drop_not_name": {"builder": "drop_dimensions", "drop": [3]},
      "drop_fixed": {"builder": "drop_dimensions", "drop": ["trials"]},
      "explore_not_object": {"builder": "override_explore", "explore": []}
    }
  })";
  ASSERT_TRUE(LoadScenarioText(kMalformed, "unit").ok());
  struct Case {
    const char* ablation;
    StatusCode code;
    const char* message;
  };
  const std::vector<Case> cases = {
      {"unknown", StatusCode::kNotFound,
       "unit: no builder 'nope' in family 'ablation'; known: "
       "drop_dimensions, override_explore, set_params"},
      {"numeric_builder", StatusCode::kInvalidArgument,
       "unit: 'ablation 'numeric_builder' builder' must be a string"},
      {"set_not_object", StatusCode::kInvalidArgument,
       "unit: ablation/set_params wants exactly {\"set\": {dim: value, ...}}"},
      {"set_empty", StatusCode::kInvalidArgument,
       "unit: ablation/set_params wants exactly {\"set\": {dim: value, ...}}"},
      {"set_extra_key", StatusCode::kInvalidArgument,
       "unit: ablation/set_params wants exactly {\"set\": {dim: value, ...}}"},
      {"drop_not_array", StatusCode::kInvalidArgument,
       "unit: ablation/drop_dimensions wants exactly {\"drop\": [dim, ...]}"},
      {"drop_not_name", StatusCode::kInvalidArgument,
       "unit: ablation/drop_dimensions: 'drop' entries must be dimension "
       "names"},
      {"drop_fixed", StatusCode::kInvalidArgument,
       "unit: ablation/drop_dimensions: 'trials' is not an explored "
       "dimension of this scenario"},
      {"explore_not_object", StatusCode::kInvalidArgument,
       "unit: ablation/override_explore wants exactly {\"explore\": {dim: "
       "[...]}}"},
  };
  for (const Case& c : cases) {
    auto spec = LoadScenarioText(kMalformed, "unit", {c.ablation});
    ASSERT_FALSE(spec.ok()) << c.ablation;
    EXPECT_EQ(spec.status().code(), c.code) << c.ablation;
    EXPECT_EQ(spec.status().message(), c.message);
  }
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
  // "trials" is fixed by the file: exploring it unfixes it and appends it.
  parsed.dimensions.push_back({"trials", {Value(5), Value(10)}});
  parsed.limit = 5;
  auto resolved = ResolveQuery(parsed);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved->simulation, "static_availability");
  EXPECT_EQ(resolved->dimensions.front().name, "nodes");
  EXPECT_EQ(FindDim(*resolved, "nodes")->candidates.size(), 1u);
  EXPECT_EQ(resolved->params.count("trials"), 0u);
  EXPECT_EQ(resolved->dimensions.back().name, "trials");
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
