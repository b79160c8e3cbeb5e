#include "wt/scenario/scenario.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "wt/common/macros.h"
#include "wt/common/string_util.h"
#include "wt/sim/random.h"

namespace wt {
namespace scenario {

namespace {

// The naming contract for builder, scenario and ablation names:
// [a-z][a-z0-9_]*, with no trailing or doubled '_'.
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

// Looks `name` up in the draft's dimension table with a uniform error.
Result<const DimensionSpec*> FindDim(const ScenarioDraft& draft,
                                     const std::string& origin,
                                     const std::string& name) {
  if (draft.dims == nullptr) {
    return Status::FailedPrecondition(origin +
                                      ": draft has no simulation bound");
  }
  const DimensionSpec* spec = draft.dims->Find(name);
  if (spec == nullptr) {
    return Status::InvalidArgument(origin + ": simulation '" +
                                   draft.simulation + "' has no dimension '" +
                                   name + "' (see \\dims)");
  }
  return spec;
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

// Runs the family section's named builder over the section's remaining
// keys. The registry lookup, not this function, decides what exists.
Status ApplyFamilySection(const json::JsonValue& section,
                          const std::string& family, ScenarioDraft* draft) {
  if (!section.is_object()) {
    return Status::InvalidArgument("'" + family + "' must be an object");
  }
  const json::JsonValue* builder = section.Find("builder");
  if (builder == nullptr || !builder->is_string()) {
    return Status::InvalidArgument("'" + family +
                                   "' needs a string \"builder\" key");
  }
  WT_ASSIGN_OR_RETURN(
      BuilderFn fn,
      ScenarioRegistry::Global()->Find(family, builder->AsString()));
  json::JsonValue config = json::JsonValue::Object();
  for (const std::string& k : section.ObjectKeys()) {
    if (k == "builder") continue;
    config.Insert(k, *section.Find(k));
  }
  return fn(config, draft);
}

Status ApplyExplore(const json::JsonValue& explore, ScenarioDraft* draft) {
  if (!explore.is_object()) {
    return Status::InvalidArgument(
        "'explore' must be an object of dimension -> candidate array");
  }
  for (const std::string& name : explore.ObjectKeys()) {
    WT_RETURN_IF_ERROR(
        draft->ExploreParam("explore", name, *explore.Find(name)));
  }
  return Status::OK();
}

Status ApplyAssuming(const json::JsonValue& assuming,
                     const ScenarioDraft& draft,
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
                        FindDim(draft, "assuming", dim.AsString()));
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

// Validates every declared ablation (names, shapes) and applies the
// requested ones through the registry's ablation family.
Status ApplyAblations(const json::JsonValue* ablations,
                      const std::vector<std::string>& requested,
                      ScenarioDraft* draft,
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
    WT_ASSIGN_OR_RETURN(BuilderFn fn,
                        ScenarioRegistry::Global()->Find("ablation", builder));
    json::JsonValue config = json::JsonValue::Object();
    for (const std::string& k : entry.ObjectKeys()) {
      if (k == "builder") continue;
      config.Insert(k, *entry.Find(k));
    }
    WT_RETURN_IF_ERROR(fn(config, draft));
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

  ScenarioDraft draft;
  draft.simulation = sim->AsString();
  draft.dims = dims;

  // Family sections in canonical order (file key order is irrelevant —
  // families touch disjoint dimensions by construction).
  for (const std::string& family : ScenarioRegistry::Families()) {
    if (family == "ablation") continue;
    if (const json::JsonValue* section = root.Find(family);
        section != nullptr) {
      WT_RETURN_IF_ERROR(ApplyFamilySection(*section, family, &draft));
    }
  }

  if (const json::JsonValue* with = root.Find("with"); with != nullptr) {
    if (!with->is_object()) {
      return Status::InvalidArgument("'with' must be an object");
    }
    for (const std::string& k : with->ObjectKeys()) {
      WT_RETURN_IF_ERROR(draft.SetParam("with", k, *with->Find(k)));
    }
  }
  if (const json::JsonValue* explore = root.Find("explore");
      explore != nullptr) {
    WT_RETURN_IF_ERROR(ApplyExplore(*explore, &draft));
  }

  ScenarioSpec spec;
  spec.name = name->AsString();
  if (const json::JsonValue* desc = root.Find("description");
      desc != nullptr) {
    WT_ASSIGN_OR_RETURN(spec.description, MemberString(*desc, "description"));
  }
  if (const json::JsonValue* assuming = root.Find("assuming");
      assuming != nullptr) {
    WT_RETURN_IF_ERROR(ApplyAssuming(*assuming, draft, &spec.query.hints));
  }
  if (const json::JsonValue* where = root.Find("where"); where != nullptr) {
    WT_RETURN_IF_ERROR(ApplyWhere(*where, &spec.query.constraints));
  }
  if (const json::JsonValue* order = root.Find("order_by");
      order != nullptr) {
    WT_ASSIGN_OR_RETURN(spec.query.order_by, MemberString(*order, "order_by"));
    if (spec.query.order_by.empty()) {
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
    spec.query.order_ascending = asc->AsBool();
  }
  if (const json::JsonValue* limit = root.Find("limit"); limit != nullptr) {
    WT_ASSIGN_OR_RETURN(spec.query.limit, MemberInt(*limit, "limit", 0));
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

  // Ablations last: they transform the fully composed draft.
  WT_RETURN_IF_ERROR(ApplyAblations(root.Find("ablations"), ablations, &draft,
                                    &spec.available_ablations));

  spec.query.simulation = draft.simulation;
  spec.query.dimensions = std::move(draft.explore);
  spec.query.params = std::move(draft.params);
  spec.query.scenario_name = spec.name;
  spec.query.ablations = ablations;
  return spec;
}

}  // namespace

Status ScenarioDraft::SetParam(const std::string& origin,
                               const std::string& name,
                               const json::JsonValue& value) {
  WT_ASSIGN_OR_RETURN(const DimensionSpec* spec, FindDim(*this, origin, name));
  WT_ASSIGN_OR_RETURN(
      Value v,
      CoerceScalar(value, spec->type, origin + ": dimension '" + name + "'"));
  params[name] = std::move(v);
  return Status::OK();
}

Status ScenarioDraft::SetFamilyParam(const std::string& origin,
                                     DimFamily family, const std::string& name,
                                     const json::JsonValue& value) {
  WT_ASSIGN_OR_RETURN(const DimensionSpec* spec, FindDim(*this, origin, name));
  if (spec->family != family) {
    return Status::InvalidArgument(
        origin + ": dimension '" + name + "' belongs to family '" +
        DimFamilyToString(spec->family) + "', not '" +
        DimFamilyToString(family) + "'");
  }
  return SetParam(origin, name, value);
}

Status ScenarioDraft::ExploreParam(const std::string& origin,
                                   const std::string& name,
                                   const json::JsonValue& candidates) {
  WT_ASSIGN_OR_RETURN(const DimensionSpec* spec, FindDim(*this, origin, name));
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
  params.erase(name);
  for (Dimension& existing : explore) {
    if (existing.name == name) {
      existing = std::move(dim);
      return Status::OK();
    }
  }
  explore.push_back(std::move(dim));
  return Status::OK();
}

const std::vector<std::string>& ScenarioRegistry::Families() {
  static const std::vector<std::string> kFamilies = {
      "topology", "failure_model", "placement", "workload_mix", "ablation"};
  return kFamilies;
}

ScenarioRegistry* ScenarioRegistry::Global() {
  static ScenarioRegistry* instance = [] {
    auto* r = new ScenarioRegistry();
    const Status s = RegisterBuiltinBuilders(r);
    WT_CHECK(s.ok()) << "built-in scenario builders failed to register: "
                     << s.message();
    return r;
  }();
  return instance;
}

Status ScenarioRegistry::Register(const std::string& family,
                                  const std::string& name, BuilderFn fn) {
  const std::vector<std::string>& families = Families();
  if (std::find(families.begin(), families.end(), family) == families.end()) {
    return Status::InvalidArgument("unknown builder family: '" + family +
                                   "' (want " + StrJoin(families, ", ") + ")");
  }
  if (!IsSnakeCase(name)) {
    return Status::InvalidArgument("builder name must be snake_case: '" +
                                   name + "'");
  }
  if (!fn) {
    return Status::InvalidArgument("null builder: '" + family + "/" + name +
                                   "'");
  }
  auto& members = builders_[family];
  if (members.count(name) > 0) {
    return Status::AlreadyExists("builder exists: '" + family + "/" + name +
                                 "'");
  }
  members.emplace(name, std::move(fn));
  return Status::OK();
}

Result<BuilderFn> ScenarioRegistry::Find(const std::string& family,
                                         const std::string& name) const {
  auto fit = builders_.find(family);
  if (fit == builders_.end() || fit->second.count(name) == 0) {
    std::string known;
    if (fit != builders_.end() && !fit->second.empty()) {
      known = "; known: " + StrJoin(Names(family), ", ");
    }
    return Status::NotFound("no builder '" + name + "' in family '" + family +
                            "'" + known);
  }
  return fit->second.at(name);
}

std::vector<std::string> ScenarioRegistry::Names(
    const std::string& family) const {
  std::vector<std::string> names;
  if (auto fit = builders_.find(family); fit != builders_.end()) {
    for (const auto& [name, fn] : fit->second) names.push_back(name);
  }
  return names;  // map order: already sorted
}

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
  for (const Dimension& d : parsed.dimensions) {
    out.params.erase(d.name);
    bool replaced = false;
    for (Dimension& existing : out.dimensions) {
      if (existing.name == d.name) {
        existing = d;
        replaced = true;
        break;
      }
    }
    if (!replaced) out.dimensions.push_back(d);
  }
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
