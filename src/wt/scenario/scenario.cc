#include "wt/scenario/scenario.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "wt/common/json.h"
#include "wt/common/macros.h"
#include "wt/common/string_util.h"
#include "wt/query/dimension_spec.h"
#include "wt/sim/random.h"

namespace wt {
namespace scenario {

namespace {

// The naming contract for scenario and ablation names: [a-z][a-z0-9_]*,
// with no trailing or doubled '_'.
bool IsSnakeCase(const std::string& s) {
  if (s.empty() || s.front() < 'a' || s.front() > 'z' || s.back() == '_') {
    return false;
  }
  for (char c : s) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return s.find("__") == std::string::npos;
}

// The built-in builders of the four model families. Each fixes its
// section's keys as dimensions of its own family, so a topology builder
// cannot quietly configure the failure model. A required key makes
// choosing the builder meaningful (failure_model/weibull_afr without an AFR
// is a mistake worth rejecting loudly); failure_model/none takes no keys
// and says the scenario relies on the engine's defaults.
struct FamilyBuilder {
  DimFamily family;
  const char* name;
  const char* required;  // "" when no key is required
  bool takes_keys;
};

constexpr FamilyBuilder kFamilyBuilders[] = {
    {DimFamily::kTopology, "flat_cluster", "", true},
    {DimFamily::kFailureModel, "weibull_afr", "node_afr", true},
    {DimFamily::kFailureModel, "fixed_count", "failures", true},
    {DimFamily::kFailureModel, "node_outage", "outage_at_s", true},
    {DimFamily::kFailureModel, "degraded_nic", "limp_nic_node", true},
    {DimFamily::kFailureModel, "none", "", false},
    {DimFamily::kPlacement, "replicated", "", true},
    {DimFamily::kWorkloadMix, "object_store", "", true},
    {DimFamily::kWorkloadMix, "open_loop", "rate", true},
    {DimFamily::kWorkloadMix, "cache_working_set", "working_set_gb", true},
};

// Converts a JSON scalar to a Value compatible with the dimension's
// declared type. Mirrors the DSL's literal typing exactly: an exact-int
// literal stays an int Value even for a kDouble dimension (engines read
// through GetDouble either way), so a scenario file and the equivalent
// DSL query produce identical candidate Values — and therefore identical
// sweep config hashes and record fingerprints. A fractional literal
// never satisfies kInt.
Result<Value> CoerceScalar(const json::JsonValue& v, ValueType want,
                           const std::string& what) {
  switch (want) {
    case ValueType::kInt:
      if (v.is_int()) return Value(v.AsInt());
      return Status::InvalidArgument(what + ": expected an integer");
    case ValueType::kDouble:
      if (v.is_int()) return Value(v.AsInt());  // DSL literal parity
      if (v.is_number()) return Value(v.AsDouble());
      return Status::InvalidArgument(what + ": expected a number");
    case ValueType::kString:
      if (v.is_string()) return Value(v.AsString());
      return Status::InvalidArgument(what + ": expected a string");
    case ValueType::kBool:
      if (v.is_bool()) return Value(v.AsBool());
      return Status::InvalidArgument(what + ": expected a boolean");
    default:
      return Status::Internal(what + ": dimension declares unsupported type");
  }
}

// Looks `name` up in the simulation's dimension table with a uniform error.
Result<const DimensionSpec*> FindDim(const SimulationDims& dims,
                                     const std::string& origin,
                                     const std::string& name) {
  const DimensionSpec* spec = dims.Find(name);
  if (spec == nullptr) {
    return Status::InvalidArgument(origin + ": simulation '" +
                                   dims.simulation + "' has no dimension '" +
                                   name + "' (see \\dims)");
  }
  return spec;
}

// The swept dimension named `name`, or dimensions.end().
std::vector<Dimension>::iterator Swept(QuerySpec* q, const std::string& name) {
  return std::find_if(q->dimensions.begin(), q->dimensions.end(),
                      [&](const Dimension& d) { return d.name == name; });
}

// Validates `value` (declared dimension, compatible type) and fixes the
// dimension, un-exploring it: a pinned value wins over a sweep. `origin`
// names the builder or clause for errors.
Status Fix(const SimulationDims& dims, const std::string& origin,
           const std::string& name, const json::JsonValue& value,
           QuerySpec* q) {
  WT_ASSIGN_OR_RETURN(const DimensionSpec* spec, FindDim(dims, origin, name));
  WT_ASSIGN_OR_RETURN(
      Value v,
      CoerceScalar(value, spec->type, origin + ": dimension '" + name + "'"));
  if (auto it = Swept(q, name); it != q->dimensions.end()) {
    q->dimensions.erase(it);
  }
  q->params[name] = std::move(v);
  return Status::OK();
}

// Explores `dim`: replaces a same-named swept dimension in place or
// appends it, and removes any fixed value — exploring wins over fixing.
void Explore(Dimension dim, QuerySpec* q) {
  q->params.erase(dim.name);
  if (auto it = Swept(q, dim.name); it != q->dimensions.end()) {
    *it = std::move(dim);
  } else {
    q->dimensions.push_back(std::move(dim));
  }
}

// Explores every {dim: [candidates]} member of `explore`, each candidate
// coerced to the dimension's declared type.
Status ExploreEach(const SimulationDims& dims, const std::string& origin,
                   const json::JsonValue& explore, QuerySpec* q) {
  for (const std::string& name : explore.ObjectKeys()) {
    WT_ASSIGN_OR_RETURN(const DimensionSpec* spec,
                        FindDim(dims, origin, name));
    const json::JsonValue& candidates = *explore.Find(name);
    if (!candidates.is_array() || candidates.size() == 0) {
      return Status::InvalidArgument(origin + ": '" + name +
                                     "' needs a non-empty candidate array");
    }
    Dimension dim;
    dim.name = name;
    for (size_t i = 0; i < candidates.size(); ++i) {
      WT_ASSIGN_OR_RETURN(Value v,
                          CoerceScalar(candidates.At(i), spec->type,
                                       origin + ": '" + name + "'"));
      dim.candidates.push_back(std::move(v));
    }
    Explore(std::move(dim), q);
  }
  return Status::OK();
}

Status CheckKeys(const json::JsonValue& obj,
                 const std::set<std::string>& allowed,
                 const std::string& what) {
  for (const std::string& k : obj.ObjectKeys()) {
    if (allowed.count(k) == 0) {
      return Status::InvalidArgument(what + ": unknown key '" + k + "'");
    }
  }
  return Status::OK();
}

// Reads an optional scalar member of `root`; each Get* validates presence
// elsewhere, these validate type/range.
Result<std::string> MemberString(const json::JsonValue& member,
                                 const std::string& what) {
  if (!member.is_string()) {
    return Status::InvalidArgument("'" + what + "' must be a string");
  }
  return member.AsString();
}

Result<int64_t> MemberInt(const json::JsonValue& member,
                          const std::string& what, int64_t min) {
  if (!member.is_int() || member.AsInt() < min) {
    return Status::InvalidArgument(
        "'" + what + "' must be an integer >= " + std::to_string(min));
  }
  return member.AsInt();
}

// Runs the family section's named builder over the section's other keys.
Status ApplyFamilySection(const json::JsonValue& section, DimFamily family,
                          const SimulationDims& dims, QuerySpec* q) {
  const std::string family_name = DimFamilyToString(family);
  if (!section.is_object()) {
    return Status::InvalidArgument("'" + family_name + "' must be an object");
  }
  const json::JsonValue* builder = section.Find("builder");
  if (builder == nullptr || !builder->is_string()) {
    return Status::InvalidArgument("'" + family_name +
                                   "' needs a string \"builder\" key");
  }
  const FamilyBuilder* chosen = nullptr;
  std::vector<std::string> known;
  for (const FamilyBuilder& b : kFamilyBuilders) {
    if (b.family != family) continue;
    known.push_back(b.name);
    if (builder->AsString() == b.name) chosen = &b;
  }
  if (chosen == nullptr) {
    std::sort(known.begin(), known.end());
    return Status::NotFound("no builder '" + builder->AsString() +
                            "' in family '" + family_name +
                            "'; known: " + StrJoin(known, ", "));
  }
  const std::string origin = family_name + "/" + chosen->name;
  if (chosen->required[0] != '\0' && !section.Has(chosen->required)) {
    return Status::InvalidArgument(origin + ": missing required key '" +
                                   chosen->required + "'");
  }
  if (!chosen->takes_keys && section.size() > 1) {
    return Status::InvalidArgument(origin + " takes no config");
  }
  for (const std::string& key : section.ObjectKeys()) {
    if (key == "builder") continue;
    WT_ASSIGN_OR_RETURN(const DimensionSpec* spec, FindDim(dims, origin, key));
    if (spec->family != family) {
      return Status::InvalidArgument(
          origin + ": dimension '" + key + "' belongs to family '" +
          DimFamilyToString(spec->family) + "', not '" + family_name + "'");
    }
    WT_RETURN_IF_ERROR(Fix(dims, origin, key, *section.Find(key), q));
  }
  return Status::OK();
}

Status ApplyAssuming(const json::JsonValue& assuming,
                     const SimulationDims& dims,
                     std::vector<MonotoneHint>* hints) {
  if (!assuming.is_array()) {
    return Status::InvalidArgument(
        "'assuming' must be an array of {\"higher\"|\"lower\": dimension}");
  }
  for (size_t i = 0; i < assuming.size(); ++i) {
    const json::JsonValue& entry = assuming.At(i);
    if (!entry.is_object() || entry.size() != 1) {
      return Status::InvalidArgument(
          "assuming: each entry must be exactly {\"higher\": dim} or "
          "{\"lower\": dim}");
    }
    const std::string& key = entry.ObjectKeys().front();
    if (key != "higher" && key != "lower") {
      return Status::InvalidArgument("assuming: unknown direction '" + key +
                                     "' (want \"higher\" or \"lower\")");
    }
    const json::JsonValue& dim = *entry.Find(key);
    if (!dim.is_string()) {
      return Status::InvalidArgument("assuming: '" + key +
                                     "' must name a dimension");
    }
    WT_ASSIGN_OR_RETURN(const DimensionSpec* spec,
                        FindDim(dims, "assuming", dim.AsString()));
    (void)spec;
    hints->push_back(MonotoneHint{
        dim.AsString(), key == "higher" ? MonotoneDirection::kHigherIsBetter
                                        : MonotoneDirection::kLowerIsBetter});
  }
  return Status::OK();
}

Status ApplyWhere(const json::JsonValue& where,
                  std::vector<SlaConstraint>* constraints) {
  if (!where.is_array()) {
    return Status::InvalidArgument(
        "'where' must be an array of {\"metric\", \"at_least\"|\"at_most\"}");
  }
  for (size_t i = 0; i < where.size(); ++i) {
    const json::JsonValue& entry = where.At(i);
    const json::JsonValue* metric =
        entry.is_object() ? entry.Find("metric") : nullptr;
    if (metric == nullptr || !metric->is_string()) {
      return Status::InvalidArgument(
          "where: each entry needs a string \"metric\" key");
    }
    WT_RETURN_IF_ERROR(CheckKeys(entry, {"metric", "at_least", "at_most"},
                                 "where: '" + metric->AsString() + "'"));
    const json::JsonValue* at_least = entry.Find("at_least");
    const json::JsonValue* at_most = entry.Find("at_most");
    if ((at_least == nullptr) == (at_most == nullptr)) {
      return Status::InvalidArgument("where: '" + metric->AsString() +
                                     "' needs exactly one of \"at_least\" or "
                                     "\"at_most\"");
    }
    const json::JsonValue* bound = at_least != nullptr ? at_least : at_most;
    if (!bound->is_number()) {
      return Status::InvalidArgument("where: '" + metric->AsString() +
                                     "' bound must be a number");
    }
    constraints->push_back(SlaConstraint{
        metric->AsString(),
        at_least != nullptr ? SlaOp::kAtLeast : SlaOp::kAtMost,
        bound->AsDouble()});
  }
  return Status::OK();
}

// Applies one ablation entry of kind `builder`. Each kind takes exactly
// one key besides "builder":
//   set_params        {"set": {dim: value, ...}} fixes dimensions,
//                     un-exploring any that were swept;
//   drop_dimensions   {"drop": [dim, ...]} removes swept dimensions (the
//                     runs fall back to engine defaults); dropping one that
//                     is not swept means the ablation no longer matches the
//                     scenario it was written against;
//   override_explore  {"explore": {dim: [...], ...}} replaces or adds
//                     swept candidate lists.
Status ApplyAblation(const json::JsonValue& entry, const std::string& builder,
                     const SimulationDims& dims, QuerySpec* q) {
  const bool one_key = entry.size() == (entry.Has("builder") ? 2u : 1u);
  if (builder == "set_params") {
    const json::JsonValue* set = entry.Find("set");
    if (!one_key || set == nullptr || !set->is_object() || set->size() == 0) {
      return Status::InvalidArgument(
          "ablation/set_params wants exactly {\"set\": {dim: value, ...}}");
    }
    for (const std::string& key : set->ObjectKeys()) {
      WT_RETURN_IF_ERROR(
          Fix(dims, "ablation/set_params", key, *set->Find(key), q));
    }
    return Status::OK();
  }
  if (builder == "drop_dimensions") {
    const json::JsonValue* drop = entry.Find("drop");
    if (!one_key || drop == nullptr || !drop->is_array() ||
        drop->size() == 0) {
      return Status::InvalidArgument(
          "ablation/drop_dimensions wants exactly {\"drop\": [dim, ...]}");
    }
    for (size_t i = 0; i < drop->size(); ++i) {
      if (!drop->At(i).is_string()) {
        return Status::InvalidArgument(
            "ablation/drop_dimensions: 'drop' entries must be dimension "
            "names");
      }
      const std::string& name = drop->At(i).AsString();
      auto it = Swept(q, name);
      if (it == q->dimensions.end()) {
        return Status::InvalidArgument(
            "ablation/drop_dimensions: '" + name +
            "' is not an explored dimension of this scenario");
      }
      q->dimensions.erase(it);
    }
    return Status::OK();
  }
  if (builder == "override_explore") {
    const json::JsonValue* explore = entry.Find("explore");
    if (!one_key || explore == nullptr || !explore->is_object() ||
        explore->size() == 0) {
      return Status::InvalidArgument(
          "ablation/override_explore wants exactly {\"explore\": {dim: "
          "[...]}}");
    }
    return ExploreEach(dims, "ablation/override_explore", *explore, q);
  }
  return Status::NotFound("no builder '" + builder +
                          "' in family 'ablation'; known: drop_dimensions, "
                          "override_explore, set_params");
}

// Validates every declared ablation (names, shapes) and applies the
// requested ones, in request order.
Status ApplyAblations(const json::JsonValue* ablations,
                      const std::vector<std::string>& requested,
                      const SimulationDims& dims, QuerySpec* q,
                      std::vector<std::string>* available) {
  if (ablations != nullptr) {
    if (!ablations->is_object()) {
      return Status::InvalidArgument("'ablations' must be an object");
    }
    for (const std::string& name : ablations->ObjectKeys()) {
      if (!IsSnakeCase(name)) {
        return Status::InvalidArgument("ablation name must be snake_case: '" +
                                       name + "'");
      }
      if (!ablations->Find(name)->is_object()) {
        return Status::InvalidArgument("ablation '" + name +
                                       "' must be an object");
      }
      available->push_back(name);
    }
  }
  for (const std::string& name : requested) {
    if (ablations == nullptr || !ablations->Has(name)) {
      const std::string known =
          available->empty() ? "scenario defines none"
                             : "known: " + StrJoin(*available, ", ");
      return Status::NotFound("scenario has no ablation '" + name + "' (" +
                              known + ")");
    }
    const json::JsonValue& entry = *ablations->Find(name);
    std::string builder = "set_params";
    if (const json::JsonValue* b = entry.Find("builder"); b != nullptr) {
      WT_ASSIGN_OR_RETURN(builder,
                          MemberString(*b, "ablation '" + name + "' builder"));
    }
    WT_RETURN_IF_ERROR(ApplyAblation(entry, builder, dims, q));
  }
  return Status::OK();
}

// The loader proper; errors come back without the source-name prefix,
// which LoadScenarioText adds uniformly.
Result<ScenarioSpec> LoadFromRoot(const json::JsonValue& root,
                                  const std::vector<std::string>& ablations) {
  if (!root.is_object()) {
    return Status::InvalidArgument("scenario file must be a JSON object");
  }
  static const std::set<std::string> kTopLevel = {
      "scenario", "description", "simulation", "topology",
      "failure_model", "placement", "workload_mix", "with",
      "explore", "assuming", "where", "order_by",
      "ascending", "limit", "seed", "replications",
      "ablations"};
  WT_RETURN_IF_ERROR(CheckKeys(root, kTopLevel, "scenario"));

  const json::JsonValue* name = root.Find("scenario");
  if (name == nullptr || !name->is_string() ||
      !IsSnakeCase(name->AsString())) {
    return Status::InvalidArgument(
        "'scenario' must be a snake_case string name");
  }
  const json::JsonValue* sim = root.Find("simulation");
  if (sim == nullptr || !sim->is_string()) {
    return Status::InvalidArgument(
        "'simulation' must name a built-in simulation");
  }
  const SimulationDims* dims = FindSimulationDims(sim->AsString());
  if (dims == nullptr) {
    std::vector<std::string> known;
    for (const SimulationDims& s : BuiltinDimensionSpecs()) {
      known.push_back(s.simulation);
    }
    return Status::NotFound("unknown simulation '" + sim->AsString() +
                            "'; known: " + StrJoin(known, ", "));
  }

  ScenarioSpec spec;
  QuerySpec& q = spec.query;
  q.simulation = sim->AsString();

  // Family sections in canonical order (file key order is irrelevant —
  // families touch disjoint dimensions by construction).
  for (DimFamily family : {DimFamily::kTopology, DimFamily::kFailureModel,
                           DimFamily::kPlacement, DimFamily::kWorkloadMix}) {
    if (const json::JsonValue* section = root.Find(DimFamilyToString(family));
        section != nullptr) {
      WT_RETURN_IF_ERROR(ApplyFamilySection(*section, family, *dims, &q));
    }
  }

  if (const json::JsonValue* with = root.Find("with"); with != nullptr) {
    if (!with->is_object()) {
      return Status::InvalidArgument("'with' must be an object");
    }
    for (const std::string& k : with->ObjectKeys()) {
      WT_RETURN_IF_ERROR(Fix(*dims, "with", k, *with->Find(k), &q));
    }
  }
  if (const json::JsonValue* explore = root.Find("explore");
      explore != nullptr) {
    if (!explore->is_object()) {
      return Status::InvalidArgument(
          "'explore' must be an object of dimension -> candidate array");
    }
    WT_RETURN_IF_ERROR(ExploreEach(*dims, "explore", *explore, &q));
  }

  spec.name = name->AsString();
  if (const json::JsonValue* desc = root.Find("description");
      desc != nullptr) {
    WT_ASSIGN_OR_RETURN(spec.description, MemberString(*desc, "description"));
  }
  if (const json::JsonValue* assuming = root.Find("assuming");
      assuming != nullptr) {
    WT_RETURN_IF_ERROR(ApplyAssuming(*assuming, *dims, &q.hints));
  }
  if (const json::JsonValue* where = root.Find("where"); where != nullptr) {
    WT_RETURN_IF_ERROR(ApplyWhere(*where, &q.constraints));
  }
  if (const json::JsonValue* order = root.Find("order_by");
      order != nullptr) {
    WT_ASSIGN_OR_RETURN(q.order_by, MemberString(*order, "order_by"));
    if (q.order_by.empty()) {
      return Status::InvalidArgument("'order_by' must not be empty");
    }
  }
  if (const json::JsonValue* asc = root.Find("ascending"); asc != nullptr) {
    if (!asc->is_bool()) {
      return Status::InvalidArgument("'ascending' must be a boolean");
    }
    if (root.Find("order_by") == nullptr) {
      return Status::InvalidArgument("'ascending' requires 'order_by'");
    }
    q.order_ascending = asc->AsBool();
  }
  if (const json::JsonValue* limit = root.Find("limit"); limit != nullptr) {
    WT_ASSIGN_OR_RETURN(q.limit, MemberInt(*limit, "limit", 0));
  }
  if (const json::JsonValue* seed = root.Find("seed"); seed != nullptr) {
    WT_ASSIGN_OR_RETURN(int64_t s, MemberInt(*seed, "seed", 0));
    spec.seed = static_cast<uint64_t>(s);
    spec.has_seed = true;
  }
  if (const json::JsonValue* reps = root.Find("replications");
      reps != nullptr) {
    WT_ASSIGN_OR_RETURN(int64_t r, MemberInt(*reps, "replications", 1));
    spec.replications = static_cast<int>(r);
  }

  // Ablations last: they transform the fully composed query.
  WT_RETURN_IF_ERROR(ApplyAblations(root.Find("ablations"), ablations, *dims,
                                    &q, &spec.available_ablations));

  q.scenario_name = spec.name;
  q.ablations = ablations;
  return spec;
}

}  // namespace

Result<ScenarioSpec> LoadScenarioText(
    const std::string& text, const std::string& source_name,
    const std::vector<std::string>& ablations) {
  Result<json::JsonValue> parsed = json::ParseJson(text);
  if (!parsed.ok()) {
    // ParseJson errors are "line:col: message"; file:line:col reads right.
    return Status(parsed.status().code(),
                  source_name + ":" + parsed.status().message());
  }
  Result<ScenarioSpec> spec = LoadFromRoot(parsed.value(), ablations);
  if (!spec.ok()) {
    return Status(spec.status().code(),
                  source_name + ": " + spec.status().message());
  }
  spec.value().query.scenario_hash = StrFormat(
      "%016llx", static_cast<unsigned long long>(Fnv1a64(text)));
  return spec;
}

Result<ScenarioSpec> LoadScenarioFile(
    const std::string& path, const std::vector<std::string>& ablations) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open scenario file: '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadScenarioText(buf.str(), path, ablations);
}

std::string ScenarioDir() {
  if (const char* env = std::getenv("WT_SCENARIO_DIR");
      env != nullptr && env[0] != '\0') {
    return env;
  }
#ifdef WT_SCENARIO_DIR
  return WT_SCENARIO_DIR;
#else
  return "scenarios";
#endif
}

Result<std::string> FindScenarioPath(const std::string& ref) {
  const bool is_path =
      ref.find('/') != std::string::npos ||
      (ref.size() > 5 && ref.compare(ref.size() - 5, 5, ".json") == 0);
  const std::string path = is_path ? ref : ScenarioDir() + "/" + ref + ".json";
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    std::string hint =
        is_path ? "" : " (scenario dir: " + ScenarioDir() + ")";
    return Status::NotFound("no scenario file at '" + path + "'" + hint);
  }
  return path;
}

std::vector<std::string> ListScenarioFiles() {
  std::vector<std::string> files;
  std::error_code ec;
  std::filesystem::directory_iterator it(ScenarioDir(), ec);
  if (ec) return files;
  for (const auto& entry : it) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

Result<QuerySpec> ResolveQuery(const QuerySpec& parsed) {
  if (parsed.scenario_name.empty()) return parsed;
  WT_ASSIGN_OR_RETURN(const std::string path,
                      FindScenarioPath(parsed.scenario_name));
  WT_ASSIGN_OR_RETURN(ScenarioSpec scen,
                      LoadScenarioFile(path, parsed.ablations));
  QuerySpec out = std::move(scen.query);
  // Query-level clauses win over the scenario's (per-name for EXPLORE
  // dimensions and ASSUMING hints; WHERE constraints accumulate).
  for (const Dimension& d : parsed.dimensions) Explore(d, &out);
  for (const MonotoneHint& h : parsed.hints) {
    bool replaced = false;
    for (MonotoneHint& existing : out.hints) {
      if (existing.dimension == h.dimension) {
        existing = h;
        replaced = true;
        break;
      }
    }
    if (!replaced) out.hints.push_back(h);
  }
  for (const SlaConstraint& c : parsed.constraints) {
    out.constraints.push_back(c);
  }
  if (!parsed.order_by.empty()) {
    out.order_by = parsed.order_by;
    out.order_ascending = parsed.order_ascending;
  }
  if (parsed.limit >= 0) out.limit = parsed.limit;
  return out;
}

}  // namespace scenario
}  // namespace wt
