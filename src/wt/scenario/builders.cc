// Built-in scenario builders (DESIGN.md §9).
//
// The four model families are populated with pass-through builders: each
// accepts only dimensions its family owns (ScenarioDraft::SetFamilyParam
// enforces the family and the simulation's declaration table enforces
// existence and type), plus per-builder required keys that make choosing
// the builder meaningful — picking failure_model/weibull_afr without an
// AFR is a mistake worth rejecting loudly. The ablation family holds
// draft transformers: set_params, drop_dimensions, override_explore.
// Register rejects a bad or duplicate name, and ScenarioRegistry::Global()
// checks that every registration below succeeds.

#include <string>
#include <vector>

#include "wt/common/macros.h"
#include "wt/scenario/scenario.h"

namespace wt {
namespace scenario {

namespace {

// A family builder that forwards every config key as a fixed dimension of
// `family`, after checking `required` keys are present.
BuilderFn PassThrough(DimFamily family, std::string origin,
                      std::vector<std::string> required) {
  return [family, origin = std::move(origin),
          required = std::move(required)](const json::JsonValue& config,
                                          ScenarioDraft* draft) -> Status {
    for (const std::string& key : required) {
      if (!config.Has(key)) {
        return Status::InvalidArgument(origin + ": missing required key '" +
                                       key + "'");
      }
    }
    for (const std::string& key : config.ObjectKeys()) {
      WT_RETURN_IF_ERROR(
          draft->SetFamilyParam(origin, family, key, *config.Find(key)));
    }
    return Status::OK();
  };
}

// failure_model/none: declares "no fault injection" and accepts nothing —
// the explicit way to say the scenario relies on the engine's defaults.
Status FailureNone(const json::JsonValue& config, ScenarioDraft* draft) {
  (void)draft;
  if (config.size() != 0) {
    return Status::InvalidArgument("failure_model/none takes no config");
  }
  return Status::OK();
}

// ablation/set_params: {"set": {dim: value, ...}} — fixes dimensions,
// un-exploring any that were swept (the ablation pins them).
Status AblationSetParams(const json::JsonValue& config, ScenarioDraft* draft) {
  const json::JsonValue* set = config.Find("set");
  if (config.size() != 1 || set == nullptr || !set->is_object() ||
      set->size() == 0) {
    return Status::InvalidArgument(
        "ablation/set_params wants exactly {\"set\": {dim: value, ...}}");
  }
  for (const std::string& key : set->ObjectKeys()) {
    for (size_t i = 0; i < draft->explore.size(); ++i) {
      if (draft->explore[i].name == key) {
        draft->explore.erase(draft->explore.begin() +
                             static_cast<ptrdiff_t>(i));
        break;
      }
    }
    WT_RETURN_IF_ERROR(
        draft->SetParam("ablation/set_params", key, *set->Find(key)));
  }
  return Status::OK();
}

// ablation/drop_dimensions: {"drop": [dim, ...]} — removes swept
// dimensions (the runs fall back to engine defaults). Dropping a
// dimension that is not currently explored is an error: it means the
// ablation no longer matches the scenario it was written against.
Status AblationDropDimensions(const json::JsonValue& config,
                              ScenarioDraft* draft) {
  const json::JsonValue* drop = config.Find("drop");
  if (config.size() != 1 || drop == nullptr || !drop->is_array() ||
      drop->size() == 0) {
    return Status::InvalidArgument(
        "ablation/drop_dimensions wants exactly {\"drop\": [dim, ...]}");
  }
  for (size_t i = 0; i < drop->size(); ++i) {
    if (!drop->At(i).is_string()) {
      return Status::InvalidArgument(
          "ablation/drop_dimensions: 'drop' entries must be dimension names");
    }
    const std::string& name = drop->At(i).AsString();
    bool found = false;
    for (size_t j = 0; j < draft->explore.size(); ++j) {
      if (draft->explore[j].name == name) {
        draft->explore.erase(draft->explore.begin() +
                             static_cast<ptrdiff_t>(j));
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          "ablation/drop_dimensions: '" + name +
          "' is not an explored dimension of this scenario");
    }
  }
  return Status::OK();
}

// ablation/override_explore: {"explore": {dim: [v, ...], ...}} — replaces
// (or adds) swept candidate lists.
Status AblationOverrideExplore(const json::JsonValue& config,
                               ScenarioDraft* draft) {
  const json::JsonValue* explore = config.Find("explore");
  if (config.size() != 1 || explore == nullptr || !explore->is_object() ||
      explore->size() == 0) {
    return Status::InvalidArgument(
        "ablation/override_explore wants exactly {\"explore\": {dim: [...]}}");
  }
  for (const std::string& name : explore->ObjectKeys()) {
    WT_RETURN_IF_ERROR(draft->ExploreParam("ablation/override_explore", name,
                                           *explore->Find(name)));
  }
  return Status::OK();
}

}  // namespace

Status RegisterBuiltinBuilders(ScenarioRegistry* registry) {
  // topology: machine and network shape.
  WT_RETURN_IF_ERROR(registry->Register(
      "topology", "flat_cluster",
      PassThrough(DimFamily::kTopology, "topology/flat_cluster", {})));

  // failure_model: how things break.
  WT_RETURN_IF_ERROR(registry->Register(
      "failure_model", "weibull_afr",
      PassThrough(DimFamily::kFailureModel, "failure_model/weibull_afr",
                  {"node_afr"})));
  WT_RETURN_IF_ERROR(registry->Register(
      "failure_model", "fixed_count",
      PassThrough(DimFamily::kFailureModel, "failure_model/fixed_count",
                  {"failures"})));
  WT_RETURN_IF_ERROR(registry->Register(
      "failure_model", "node_outage",
      PassThrough(DimFamily::kFailureModel, "failure_model/node_outage",
                  {"outage_at_s"})));
  WT_RETURN_IF_ERROR(registry->Register(
      "failure_model", "degraded_nic",
      PassThrough(DimFamily::kFailureModel, "failure_model/degraded_nic",
                  {"limp_nic_node"})));
  WT_RETURN_IF_ERROR(
      registry->Register("failure_model", "none", FailureNone));

  // placement: replica placement and redundancy policy.
  WT_RETURN_IF_ERROR(registry->Register(
      "placement", "replicated",
      PassThrough(DimFamily::kPlacement, "placement/replicated", {})));

  // workload_mix: offered load.
  WT_RETURN_IF_ERROR(registry->Register(
      "workload_mix", "object_store",
      PassThrough(DimFamily::kWorkloadMix, "workload_mix/object_store", {})));
  WT_RETURN_IF_ERROR(registry->Register(
      "workload_mix", "open_loop",
      PassThrough(DimFamily::kWorkloadMix, "workload_mix/open_loop",
                  {"rate"})));
  WT_RETURN_IF_ERROR(registry->Register(
      "workload_mix", "cache_working_set",
      PassThrough(DimFamily::kWorkloadMix, "workload_mix/cache_working_set",
                  {"working_set_gb"})));

  // ablation: draft transformers.
  WT_RETURN_IF_ERROR(
      registry->Register("ablation", "set_params", AblationSetParams));
  WT_RETURN_IF_ERROR(registry->Register("ablation", "drop_dimensions",
                                        AblationDropDimensions));
  WT_RETURN_IF_ERROR(registry->Register("ablation", "override_explore",
                                        AblationOverrideExplore));
  return Status::OK();
}

}  // namespace scenario
}  // namespace wt
