// BENCH_*.json must stay valid JSON whatever the host reports: every
// string field goes through json::Quote, so quotes, backslashes and
// control characters in a warning or commit id round-trip through
// json::ParseJson.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_json.h"
#include "wt/common/json.h"

namespace wt {
namespace {

TEST(BenchJsonTest, EscapesStringFieldsAndParsesBack) {
  // Read once by the first BenchCommit() call, so set it before writing.
  ASSERT_EQ(setenv("WT_BENCH_COMMIT", "abc\"1\\2", 1), 0);
  ASSERT_EQ(setenv("WT_BENCH_JSON_DIR", ::testing::TempDir().c_str(), 1), 0);
  const std::string warning =
      "quote \" backslash \\ tab \t newline \n unit-sep \x1f end";
  bench::BenchEntry entry;
  entry.name = "entry \"one\"";
  entry.wall_seconds = 1.5;
  const std::string path =
      bench::WriteBenchJson("escape_test", {entry}, {warning});
  ASSERT_FALSE(path.empty());

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = json::ParseJson(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << text.str();
  EXPECT_EQ(doc->Find("bench")->AsString(), "escape_test");
  EXPECT_EQ(doc->Find("commit")->AsString(), "abc\"1\\2");
  const json::JsonValue* warnings = doc->Find("warnings");
  ASSERT_NE(warnings, nullptr);
  ASSERT_EQ(warnings->size(), 1u);
  EXPECT_EQ(warnings->At(0).AsString(), warning);
  const json::JsonValue* entries = doc->Find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ(entries->At(0).Find("name")->AsString(), entry.name);
  EXPECT_DOUBLE_EQ(entries->At(0).Find("wall_seconds")->AsDouble(), 1.5);
  const json::JsonValue* host = doc->Find("host");
  ASSERT_NE(host, nullptr);
  EXPECT_TRUE(host->Find("hostname")->is_string());
  EXPECT_TRUE(host->Find("cpu_model")->is_string());
  EXPECT_TRUE(host->Find("compiler")->is_string());
}

}  // namespace
}  // namespace wt
