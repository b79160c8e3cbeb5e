// wtlint's own regression suite: seeded violation fixtures, one per rule
// family, plus suppression and allowlist mechanics. Fixtures live in
// tests/wtlint_fixtures/ and are fed to the analyzer under *virtual* paths
// (a fixture "is" a hot file because the test says so), which keeps the
// rule config under test identical to the one the CI gate uses. The full
// JSON report is diffed against a golden and re-parsed with
// wt::json::ParseJson.

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/wtlint/lexer.h"
#include "tools/wtlint/rules.h"
#include "wt/common/json.h"
#include "wt/core/thread_pool.h"

namespace wt {
namespace wtlint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(WTLINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Fixture file -> the virtual repo path it is scanned under.
const std::map<std::string, std::string>& FixtureMap() {
  static const std::map<std::string, std::string> kMap = {
      {"concurrency.cc", "src/wt/serve/fixture_concurrency.cc"},
      {"determinism.cc", "src/wt/core/fixture_determinism.cc"},
      {"flow.cc", "src/wt/query/fixture_flow.cc"},
      {"graph_backedge.h", "src/wt/sim/fixture_backedge.h"},
      {"graph_cycle_x.h", "src/wt/serve/fixture_cycle_x.h"},
      {"graph_cycle_y.h", "src/wt/serve/fixture_cycle_y.h"},
      {"graph_cycle_z.h", "src/wt/serve/fixture_cycle_z.h"},
      {"hotpath.cc", "src/wt/sim/fixture_hotpath.cc"},
      {"error.h", "src/wt/core/fixture_error.h"},
      {"error_drop.cc", "src/wt/core/fixture_error_drop.cc"},
      {"hygiene.h", "src/wt/obs/fixture_hygiene.h"},
      {"suppression.cc", "src/wt/sim/fixture_suppression.cc"},
      {"allowlist.cc", "src/wt/obs/wallclock.cc"},
      {"scenario_builders.cc", "src/wt/scenario/fixture_builders.cc"},
      {"scenario_parser.cc", "src/wt/query/fixture_parser.cc"},
  };
  return kMap;
}

std::vector<FileInput> LoadAllFixtures() {
  std::vector<FileInput> files;
  for (const auto& [fixture, virtual_path] : FixtureMap()) {
    files.push_back({virtual_path, ReadFixture(fixture)});
  }
  return files;  // std::map iteration == sorted by fixture name
}

AnalysisResult AnalyzeAll() { return Analyze(LoadAllFixtures(), Config{}); }

int CountRule(const AnalysisResult& r, const std::string& rule,
              bool suppressed = false) {
  int n = 0;
  for (const Finding& f : r.findings) {
    if (f.rule == rule && f.suppressed == suppressed) ++n;
  }
  return n;
}

TEST(WtlintLexer, StripsCommentsStringsAndFusesScopes) {
  LexedFile lexed = Lex(
      "int a; // rand() in a comment\n"
      "const char* s = \"srand(1)\";\n"
      "std::function<void()> f;\n");
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "srand");
  }
  bool saw_scope = false;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokKind::kPunct && t.text == "::") saw_scope = true;
  }
  EXPECT_TRUE(saw_scope);
}

TEST(WtlintLexer, ParsesSuppressionsWithTargets) {
  LexedFile lexed = Lex(
      "int a = rand();  // wtlint: allow(determinism/raw-random) -- tail\n"
      "// wtlint: allow(hotpath/throw) -- next line\n"
      "throw 1;\n"
      "// wtlint: allow(determinism)\n");
  ASSERT_EQ(lexed.suppressions.size(), 3u);
  EXPECT_EQ(lexed.suppressions[0].target_line, 1);
  EXPECT_EQ(lexed.suppressions[0].reason, "tail");
  EXPECT_EQ(lexed.suppressions[1].target_line, 3);
  EXPECT_TRUE(lexed.suppressions[2].malformed);  // reason missing
}

TEST(WtlintRules, DeterminismFamilyFires) {
  AnalysisResult r = AnalyzeAll();
  // 3 in determinism.cc plus the reason-less (hence unsuppressed) rand()
  // in suppression.cc.
  EXPECT_EQ(CountRule(r, "determinism/raw-random"), 4);
  EXPECT_EQ(CountRule(r, "determinism/wall-clock"), 2);
  EXPECT_EQ(CountRule(r, "determinism/sleep"), 1);
}

TEST(WtlintRules, HotPathFamilyFires) {
  AnalysisResult r = AnalyzeAll();
  EXPECT_EQ(CountRule(r, "hotpath/std-function"), 1);
  EXPECT_EQ(CountRule(r, "hotpath/throw"), 1);
  EXPECT_EQ(CountRule(r, "hotpath/dynamic-cast"), 1);
  EXPECT_EQ(CountRule(r, "hotpath/iostream"), 2);  // include + std::cerr
}

TEST(WtlintRules, ErrorFamilyFires) {
  AnalysisResult r = AnalyzeAll();
  EXPECT_EQ(CountRule(r, "error/nodiscard-status"), 4);
  EXPECT_EQ(CountRule(r, "error/dropped-status"), 2);
}

TEST(WtlintRules, HygieneFamilyFires) {
  AnalysisResult r = AnalyzeAll();
  EXPECT_EQ(CountRule(r, "hygiene/include-guard"), 1);
  EXPECT_EQ(CountRule(r, "hygiene/using-namespace-header"), 1);
  EXPECT_EQ(CountRule(r, "hygiene/unordered-serialization"), 1);
}

TEST(WtlintRules, ScenarioFamilyFires) {
  AnalysisResult r = AnalyzeAll();
  // ParseJson fires only outside wt/common + wt/scenario: the call in the
  // scenario fixture is exempt, the one in the query fixture is not.
  EXPECT_EQ(CountRule(r, "scenario/single-parser"), 1);
  for (const Finding& f : r.findings) {
    if (f.rule == "scenario/single-parser") {
      EXPECT_EQ(f.file, "src/wt/query/fixture_parser.cc");
    }
  }
}

TEST(WtlintRules, ConcurrencyFamilyFires) {
  AnalysisResult r = AnalyzeAll();
  // load() / store(1) / exchange(2) / fetch_add(1); every order-carrying
  // call in the fixture passes.
  EXPECT_EQ(CountRule(r, "concurrency/implicit-seq-cst"), 4);
  EXPECT_EQ(CountRule(r, "concurrency/manual-lock"), 2);
  EXPECT_EQ(CountRule(r, "concurrency/thread-detach"), 1);
  EXPECT_EQ(CountRule(r, "concurrency/raw-thread"), 1);
  EXPECT_EQ(CountRule(r, "concurrency/raw-thread", /*suppressed=*/true), 1);
}

TEST(WtlintRules, ImplicitSeqCstScopedToConfiguredPaths) {
  // The same atomic access outside sim/core/serve is legal: the rule
  // encodes a review policy for the concurrent layers, not a style ban.
  const char* src =
      "#include <atomic>\n"
      "int f(std::atomic<int>& a) { return a.load(); }\n";
  AnalysisResult r = Analyze({{"src/wt/stats/fixture.cc", src}}, Config{});
  EXPECT_EQ(CountRule(r, "concurrency/implicit-seq-cst"), 0);
  AnalysisResult scoped = Analyze({{"src/wt/sim/fixture.cc", src}}, Config{});
  EXPECT_EQ(CountRule(scoped, "concurrency/implicit-seq-cst"), 1);
}

TEST(WtlintRules, WeakPtrLockInMutexFreeTuIsClean) {
  // weak_ptr::lock() is a shared_ptr factory, not a lock acquisition;
  // manual-lock only arms in TUs that name a mutex type.
  const char* src =
      "#include <memory>\n"
      "std::shared_ptr<int> f(const std::weak_ptr<int>& w) {\n"
      "  return w.lock();\n"
      "}\n";
  AnalysisResult r = Analyze({{"src/wt/core/fixture.cc", src}}, Config{});
  EXPECT_EQ(CountRule(r, "concurrency/manual-lock"), 0);
}

TEST(WtlintRules, DeterminismFlowFamilyFires) {
  AnalysisResult r = AnalyzeAll();
  EXPECT_EQ(CountRule(r, "determinism-flow/unordered-sink"), 3);
  EXPECT_EQ(CountRule(r, "determinism-flow/unordered-sink",
                      /*suppressed=*/true),
            1);
  for (const Finding& f : r.findings) {
    if (f.rule == "determinism-flow/unordered-sink") {
      EXPECT_EQ(f.file, "src/wt/query/fixture_flow.cc");
      EXPECT_NE(f.message.find("ToJson"), std::string::npos);
    }
  }
}

TEST(WtlintRules, DeterminismFlowNeedsBothContainerAndSink) {
  const char* container_only =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> counts;\n";
  AnalysisResult r =
      Analyze({{"src/wt/query/fixture.cc", container_only}}, Config{});
  EXPECT_EQ(CountRule(r, "determinism-flow/unordered-sink"), 0);
}

// Value::AppendTo renders the same bytes as ToString into a caller's
// buffer, so a TU that renders only through it is still a sink.
TEST(WtlintRules, DeterminismFlowSeesAppendToSink) {
  const char* appends =
      "#include <unordered_map>\n"
      "void Render(const std::unordered_map<int, wt::Value>& cells,\n"
      "            std::string* out) {\n"
      "  for (const auto& [k, v] : cells) v.AppendTo(out);\n"
      "}\n";
  AnalysisResult r = Analyze({{"src/wt/query/fixture.cc", appends}}, Config{});
  ASSERT_EQ(CountRule(r, "determinism-flow/unordered-sink"), 1);
  for (const Finding& f : r.findings) {
    if (f.rule != "determinism-flow/unordered-sink") continue;
    EXPECT_NE(f.message.find("AppendTo() at line 4"), std::string::npos)
        << f.message;
  }
}

TEST(WtlintDeps, LayerBackEdgeFires) {
  AnalysisResult r = AnalyzeAll();
  ASSERT_EQ(CountRule(r, "deps/layer-back-edge"), 1);
  for (const Finding& f : r.findings) {
    if (f.rule != "deps/layer-back-edge") continue;
    EXPECT_EQ(f.file, "src/wt/sim/fixture_backedge.h");
    EXPECT_EQ(f.line, 7);  // the #include line, not the file head
    EXPECT_NE(f.message.find("sim"), std::string::npos);
    EXPECT_NE(f.message.find("serve"), std::string::npos);
  }
}

TEST(WtlintDeps, IncludeCycleReportedOnceWithFullPath) {
  AnalysisResult r = AnalyzeAll();
  ASSERT_EQ(CountRule(r, "deps/include-cycle"), 1);
  for (const Finding& f : r.findings) {
    if (f.rule != "deps/include-cycle") continue;
    // The closing edge lives in z — inside an #ifdef, which must count.
    EXPECT_EQ(f.file, "src/wt/serve/fixture_cycle_z.h");
    EXPECT_NE(f.message.find("fixture_cycle_x.h"), std::string::npos);
    EXPECT_NE(f.message.find("fixture_cycle_y.h"), std::string::npos);
    EXPECT_NE(f.message.find("fixture_cycle_z.h"), std::string::npos);
  }
}

TEST(WtlintDeps, UnknownModuleFires) {
  Config config;
  config.layer_config = LayerConfig{{{"common"}}};
  AnalysisResult r = Analyze(
      {{"src/wt/mystery/box.h",
        "#ifndef WT_MYSTERY_BOX_H_\n#define WT_MYSTERY_BOX_H_\n"
        "#endif  // WT_MYSTERY_BOX_H_\n"}},
      config);
  EXPECT_EQ(CountRule(r, "deps/unknown-module"), 1);
}

TEST(WtlintDeps, SameLayerCrossModuleIncludeIsBackEdge) {
  // stats and store share rank 1: peer modules stay independent.
  const char* src =
      "#ifndef WT_STATS_PEEK_H_\n#define WT_STATS_PEEK_H_\n"
      "#include \"wt/store/db.h\"\n"
      "#endif  // WT_STATS_PEEK_H_\n";
  const char* dep =
      "#ifndef WT_STORE_DB_H_\n#define WT_STORE_DB_H_\n"
      "#endif  // WT_STORE_DB_H_\n";
  AnalysisResult r = Analyze(
      {{"src/wt/stats/peek.h", src}, {"src/wt/store/db.h", dep}}, Config{});
  EXPECT_EQ(CountRule(r, "deps/layer-back-edge"), 1);
}

TEST(WtlintDeps, CommittedLayersJsonMatchesCompiledDefault) {
  std::ifstream in(WTLINT_REPO_LAYERS, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing " << WTLINT_REPO_LAYERS;
  std::ostringstream ss;
  ss << in.rdbuf();
  Result<LayerConfig> parsed = ParseLayersJson(ss.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->layers, DefaultLayerConfig().layers)
      << "tools/wtlint/layers.json and DefaultLayerConfig() drifted; "
         "edit them together (and the DESIGN.md section 7 diagram)";
}

TEST(WtlintDeps, ParseLayersJsonRejectsMalformedConfigs) {
  EXPECT_FALSE(ParseLayersJson("[]").ok());
  EXPECT_FALSE(ParseLayersJson("{}").ok());
  EXPECT_FALSE(ParseLayersJson("{\"layers\": []}").ok());
  EXPECT_FALSE(ParseLayersJson("{\"layers\": [[]]}").ok());
  EXPECT_FALSE(ParseLayersJson("{\"layers\": [[42]]}").ok());
  EXPECT_FALSE(
      ParseLayersJson("{\"layers\": [[\"a\"], [\"a\"]]}").ok());  // dup
  EXPECT_TRUE(ParseLayersJson("{\"layers\": [[\"a\"], [\"b\"]]}").ok());
}

TEST(WtlintRules, ParallelAnalysisMatchesSerialByteForByte) {
  const std::vector<FileInput> files = LoadAllFixtures();
  const AnalysisResult serial = Analyze(files, Config{});
  ThreadPool pool(3);
  const AnalysisResult parallel = Analyze(files, Config{}, &pool);
  EXPECT_EQ(ResultToJson(parallel), ResultToJson(serial));
  EXPECT_EQ(ResultToText(parallel), ResultToText(serial));
}

TEST(WtlintRules, SuppressionsWork) {
  AnalysisResult r = AnalyzeAll();
  // Trailing, whole-line, and family suppressions each hide a finding but
  // keep it in the report, tagged with its reason.
  EXPECT_EQ(CountRule(r, "determinism/raw-random", /*suppressed=*/true), 1);
  EXPECT_EQ(CountRule(r, "hotpath/throw", /*suppressed=*/true), 1);
  EXPECT_EQ(CountRule(r, "determinism/wall-clock", /*suppressed=*/true), 1);
  EXPECT_EQ(CountRule(r, "determinism/sleep", /*suppressed=*/true), 1);
  // A reason-less suppression is itself a finding and hides nothing.
  EXPECT_EQ(CountRule(r, "hygiene/bad-suppression"), 1);
  EXPECT_EQ(CountRule(r, "hygiene/unused-suppression"), 1);
  for (const Finding& f : r.findings) {
    if (f.suppressed) {
      EXPECT_FALSE(f.suppress_reason.empty());
    }
  }
}

TEST(WtlintRules, DeterminismAllowlistIsScopedToOneFile) {
  AnalysisResult r = AnalyzeAll();
  for (const Finding& f : r.findings) {
    EXPECT_NE(f.file, "src/wt/obs/wallclock.cc")
        << "allowlisted file produced: " << f.rule;
  }
  // The allowlist must not leak to sibling paths: the hygiene fixture in
  // src/wt/obs/ still produced findings.
  EXPECT_GT(CountRule(r, "hygiene/unordered-serialization"), 0);
}

TEST(WtlintRules, GoldenJsonReport) {
  AnalysisResult r = AnalyzeAll();
  const std::string actual = ResultToJson(r);
  const Status valid = json::ParseJson(actual).status();
  ASSERT_TRUE(valid.ok()) << valid.ToString() << "\n" << actual;
  if (std::getenv("WTLINT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(FixturePath("golden.json"), std::ios::binary);
    out << actual;
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string golden = ReadFixture("golden.json");
  EXPECT_EQ(actual, golden) << "golden mismatch; actual report:\n" << actual;
}

TEST(WtlintRules, JsonReportRoundTripsHostileStrings) {
  // Finding text comes from source files and suppression comments, so it
  // may hold anything; the report must stay strict JSON regardless.
  const std::string hostile = "say \"hi\" \\ then\nnext";
  AnalysisResult r;
  r.files_scanned = 1;
  Finding open;
  open.rule = "hygiene/include-guard";
  open.file = "src/wt/a.h";
  open.message = hostile;
  Finding waived;
  waived.rule = "hotpath/throw";
  waived.file = "src/wt/sim/b.cc";
  waived.suppressed = true;
  waived.suppress_reason = hostile;
  r.findings = {open, waived};

  auto doc = json::ParseJson(ResultToJson(r));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::JsonValue& findings = *doc->Find("findings");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.At(0).Find("message")->AsString(), hostile);
  const json::JsonValue& suppressions = *doc->Find("suppressions");
  ASSERT_EQ(suppressions.size(), 1u);
  EXPECT_EQ(suppressions.At(0).Find("reason")->AsString(), hostile);
}

TEST(WtlintRules, FixNodiscardRewritesDeclarations) {
  AnalysisResult r = AnalyzeAll();
  const std::string fixed = ApplyNodiscardFixes(
      "src/wt/core/fixture_error.h", ReadFixture("error.h"), r.findings);
  EXPECT_EQ(fixed, ReadFixture("error_fixed.h"))
      << "fix output drifted; actual:\n"
      << fixed;

  // The fixed header must scan clean for the nodiscard rule.
  AnalysisResult refixed =
      Analyze({{"src/wt/core/fixture_error.h", fixed}}, Config{});
  EXPECT_EQ(CountRule(refixed, "error/nodiscard-status"), 0);
}

TEST(WtlintRules, CleanFileProducesNoFindings) {
  const char* clean =
      "#ifndef WT_CORE_CLEAN_H_\n"
      "#define WT_CORE_CLEAN_H_\n"
      "namespace wt {\n"
      "[[nodiscard]] Status AllGood();\n"
      "}\n"
      "#endif  // WT_CORE_CLEAN_H_\n";
  AnalysisResult r = Analyze({{"src/wt/core/clean.h", clean}}, Config{});
  EXPECT_TRUE(r.findings.empty());
}

}  // namespace
}  // namespace wtlint
}  // namespace wt
