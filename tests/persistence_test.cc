// Tests for result-store persistence (typed CSV round-trips).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <vector>

#include "wt/store/persistence.h"

namespace wt {
namespace {

Table SampleTable() {
  Schema schema({{"name", ValueType::kString},
                 {"nodes", ValueType::kInt},
                 {"cost", ValueType::kDouble},
                 {"ok", ValueType::kBool}});
  Table t(schema);
  WT_CHECK(t.AppendRow({Value("alpha"), Value(10), Value(1.5), Value(true)})
               .ok());
  WT_CHECK(t.AppendRow({Value("with,comma"), Value(30), Value(), Value(false)})
               .ok());
  WT_CHECK(t.AppendRow({Value("q\"uote"), Value(), Value(-2.25), Value(true)})
               .ok());
  return t;
}

TEST(PersistenceTest, TypedCsvRoundTrip) {
  Table original = SampleTable();
  std::string csv = TableToTypedCsv(original);
  auto parsed = TableFromTypedCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), original.num_rows());
  ASSERT_EQ(parsed->schema().num_columns(), original.schema().num_columns());
  for (size_t r = 0; r < original.num_rows(); ++r) {
    for (size_t c = 0; c < original.schema().num_columns(); ++c) {
      EXPECT_TRUE(parsed->At(r, c) == original.At(r, c))
          << "cell (" << r << "," << c << "): " << parsed->At(r, c).ToString()
          << " vs " << original.At(r, c).ToString();
    }
  }
  // Types survive.
  EXPECT_EQ(parsed->schema().column(1).type, ValueType::kInt);
  EXPECT_EQ(parsed->schema().column(3).type, ValueType::kBool);
}

TEST(PersistenceTest, ParsesNullsAndEmptyLines) {
  auto t = TableFromTypedCsv("x:int,y:double\n1,\n\n,2.5\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_TRUE(t->At(0, 1).is_null());
  EXPECT_TRUE(t->At(1, 0).is_null());
  EXPECT_DOUBLE_EQ(t->At(1, 1).AsDouble(), 2.5);
}

TEST(PersistenceTest, RejectsMalformed) {
  EXPECT_FALSE(TableFromTypedCsv("").ok());
  EXPECT_FALSE(TableFromTypedCsv("x\n1\n").ok());          // no :type
  EXPECT_FALSE(TableFromTypedCsv("x:alien\n1\n").ok());    // bad type
  EXPECT_FALSE(TableFromTypedCsv("x:int\n1,2\n").ok());    // arity
  EXPECT_FALSE(TableFromTypedCsv("x:int\nnope\n").ok());   // bad int
  EXPECT_FALSE(TableFromTypedCsv("x:string\n\"a\n").ok()); // open quote
}

TEST(PersistenceTest, StoreSaveLoadRoundTrip) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wt_persist_test";
  std::filesystem::remove_all(dir);

  ResultStore store;
  ASSERT_TRUE(store.CreateTable("runs", SampleTable().schema()).ok());
  *store.GetTable("runs").value() = SampleTable();
  ASSERT_TRUE(
      store.CreateTable("other", Schema({{"v", ValueType::kDouble}})).ok());
  ASSERT_TRUE(
      store.GetTable("other").value()->AppendRow({Value(3.25)}).ok());

  ASSERT_TRUE(SaveResultStore(store, dir.string()).ok());

  ResultStore loaded;
  ASSERT_TRUE(LoadResultStore(&loaded, dir.string()).ok());
  EXPECT_EQ(loaded.TableNames(),
            (std::vector<std::string>{"other", "runs"}));
  const Table* runs = loaded.GetTableConst("runs").value();
  EXPECT_EQ(runs->num_rows(), 3u);
  EXPECT_EQ(runs->Get(0, "name").value().AsString(), "alpha");
  const Table* other = loaded.GetTableConst("other").value();
  EXPECT_DOUBLE_EQ(other->At(0, 0).AsDouble(), 3.25);

  std::filesystem::remove_all(dir);
}

// A stored metric must load back as the same double, not rounded to the
// 10 significant digits that Value::ToString prints.
TEST(PersistenceTest, DoublesRoundTripBitExact) {
  const std::vector<double> values = {
      0.1, 1.0 / 3, 0.12345678901234566, 1e-300, -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  Table table(Schema({{"v", ValueType::kDouble}}));
  for (double v : values) ASSERT_TRUE(table.AppendRow({Value(v)}).ok());
  ASSERT_TRUE(
      table.AppendRow({Value(std::numeric_limits<double>::quiet_NaN())}).ok());

  auto expect_same = [&values](const Table& loaded) {
    ASSERT_EQ(loaded.num_rows(), values.size() + 1);
    for (size_t r = 0; r < values.size(); ++r) {
      EXPECT_EQ(std::bit_cast<uint64_t>(loaded.At(r, 0).AsDouble()),
                std::bit_cast<uint64_t>(values[r]))
          << "row " << r << ": " << loaded.At(r, 0).ToString();
    }
    EXPECT_TRUE(std::isnan(loaded.At(values.size(), 0).AsDouble()));
  };

  auto parsed = TableFromTypedCsv(TableToTypedCsv(table));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  expect_same(*parsed);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wt_persist_doubles";
  std::filesystem::remove_all(dir);
  ResultStore store;
  ASSERT_TRUE(store.CreateTable("metrics", table.schema()).ok());
  *store.GetTable("metrics").value() = table;
  ASSERT_TRUE(SaveResultStore(store, dir.string()).ok());
  ResultStore loaded;
  ASSERT_TRUE(LoadResultStore(&loaded, dir.string()).ok());
  std::filesystem::remove_all(dir);
  expect_same(*loaded.GetTableConst("metrics").value());
}

TEST(PersistenceTest, LoadIntoNonEmptyStoreConflicts) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wt_persist_conflict";
  std::filesystem::remove_all(dir);
  ResultStore store;
  ASSERT_TRUE(store.CreateTable("runs", SampleTable().schema()).ok());
  ASSERT_TRUE(SaveResultStore(store, dir.string()).ok());
  // Loading over an existing "runs" table fails cleanly.
  EXPECT_FALSE(LoadResultStore(&store, dir.string()).ok());
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, LoadMissingDirectoryFails) {
  ResultStore store;
  EXPECT_FALSE(LoadResultStore(&store, "/nonexistent/wt/dir").ok());
}

}  // namespace
}  // namespace wt
