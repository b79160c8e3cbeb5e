// SweepConfigHash is provenance: the config_hash of every RunManifest and
// the inner hash of the serve cache key. Its input bytes are each design
// point's ToString text and each SLA constraint's, one per line. Stored
// manifests and cached sweeps are compared against freshly computed
// hashes, so those bytes must never change. These tests hold the hash to a
// copy of the original string-building implementation on random point
// lists, and to values pinned for the committed scenarios, sweep_fine and
// the serving query family. They also pin Table::ToCsv, which renders
// cells through the same Value::AppendTo.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "wt/common/string_util.h"
#include "wt/core/orchestrator.h"
#include "wt/obs/manifest.h"
#include "wt/query/executor.h"
#include "wt/query/parser.h"
#include "wt/scenario/scenario.h"
#include "wt/sim/random.h"
#include "wt/store/table.h"

namespace wt {
namespace {

// The original renderers, copied verbatim: Value::ToString through
// StrFormat, DesignPoint::ToString through StrJoin, and SweepConfigHash
// over their concatenation.
std::string ReferenceValueText(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return v.AsBool() ? "true" : "false";
    case ValueType::kInt:
      return StrFormat("%lld", static_cast<long long>(v.AsInt()));
    case ValueType::kDouble:
      return StrFormat("%.10g", v.AsDouble());
    case ValueType::kString:
      return v.AsString();
  }
  return "";
}

std::string ReferencePointText(const DesignPoint& p) {
  std::vector<std::string> parts;
  for (const auto& [k, v] : p.values()) {
    parts.push_back(k + "=" + ReferenceValueText(v));
  }
  return StrJoin(parts, ", ");
}

std::string ReferenceConfigHash(const std::vector<DesignPoint>& points,
                                const std::vector<SlaConstraint>& constraints) {
  std::string buf;
  for (const DesignPoint& p : points) {
    buf += ReferencePointText(p);
    buf += '\n';
  }
  for (const SlaConstraint& c : constraints) {
    buf += c.ToString();
    buf += '\n';
  }
  char out[20];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(buf)));
  return out;
}

// Strings built from the characters that matter to the rendering: the
// ", " and "=" separators, the newline between points, and CSV's quote.
std::string RandomText(RngStream& rng) {
  static constexpr char kChars[] = "ab, =\n\"_9";
  std::string s;
  const int64_t len = rng.UniformInt(0, 6);
  for (int64_t i = 0; i < len; ++i) {
    s += kChars[rng.UniformInt(0, static_cast<int64_t>(sizeof(kChars)) - 2)];
  }
  return s;
}

// Every type, its edge values, and random ints, doubles and strings.
Value RandomValue(RngStream& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> edges = {
      Value(),
      Value(true),
      Value(false),
      Value(int64_t{0}),
      Value(int64_t{-1}),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(std::nan("")),
      Value(-std::nan("")),
      Value(inf),
      Value(-inf),
      Value(0.0),
      Value(-0.0),
      Value(1e-300),
      Value(1e300),
      Value(0.1),
      Value(1.0 / 3.0),
      Value(std::numeric_limits<double>::denorm_min()),
      Value(-std::numeric_limits<double>::max()),
      Value(""),
      Value(", "),
      Value("a=b"),
      Value("\n"),
      Value("say \"hi\", twice"),
  };
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return Value(static_cast<int64_t>(rng.NextU64()));
    case 1: {
      // Any bit pattern: subnormals, NaN payloads, every exponent.
      const uint64_t bits = rng.NextU64();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case 2:
      return Value(rng.Uniform(-1e6, 1e6));
    case 3:
      return Value(RandomText(rng));
    default:
      return edges[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
  }
}

TEST(SweepConfigHashTest, MatchesOriginalOnRandomPointLists) {
  const std::vector<std::string> names = {
      "", "a", "nodes", "placement_samples", "x=y", "with, comma", "b\n"};
  RngStream root(20140901);
  for (uint64_t list = 0; list < 200; ++list) {
    RngStream rng = root.Substream(list);
    std::vector<DesignPoint> points(
        static_cast<size_t>(rng.UniformInt(0, 12)));
    for (DesignPoint& p : points) {
      for (int64_t d = rng.UniformInt(0, 5); d > 0; --d) {
        p.Set(names[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(names.size()) - 1))],
              RandomValue(rng));
      }
    }
    std::vector<SlaConstraint> constraints(
        static_cast<size_t>(rng.UniformInt(0, 3)));
    for (SlaConstraint& c : constraints) {
      c.metric = RandomText(rng);
      c.op = rng.UniformInt(0, 1) == 0 ? SlaOp::kAtLeast : SlaOp::kAtMost;
      c.threshold = rng.Uniform(-1.0, 1.0);
    }
    for (const DesignPoint& p : points) {
      ASSERT_EQ(p.ToString(), ReferencePointText(p)) << "list " << list;
      for (const auto& [name, value] : p.values()) {
        ASSERT_EQ(value.ToString(), ReferenceValueText(value))
            << "list " << list << " dimension '" << name << "'";
      }
    }
    ASSERT_EQ(SweepConfigHash(points, constraints),
              ReferenceConfigHash(points, constraints))
        << "list " << list;
  }
}

// Values captured from the string-building implementation (commit
// d10ac56). Grid order is what Server::CacheKeyFor hashes
// (space.AllPoints()); run order is the best-first order Sweep executes in
// and records in the manifest.
struct PinnedHash {
  const char* scenario;
  const char* grid_order;
  const char* run_order;
};

// The manifest hash of `space`'s sweep, read from the first record. The
// RunFn returns no metrics, so constrained points end in kError and prune
// nothing; the hash only depends on the run order, which is fixed before
// any point runs.
std::string ManifestConfigHash(const DesignSpace& space,
                               const QuerySpec& query) {
  const RunFn no_metrics = [](const DesignPoint&,
                              RngStream&) -> Result<MetricMap> {
    return MetricMap{};
  };
  RunOrchestrator orch(SweepOptions{});
  auto records = orch.Sweep(space, no_metrics, query.constraints, query.hints);
  EXPECT_TRUE(records.ok()) << records.status().ToString();
  if (!records.ok() || records->empty()) return "";
  return records->front().manifest->config_hash;
}

TEST(SweepConfigHashTest, PinnedForCommittedScenarios) {
  const PinnedHash pinned[] = {
      {"fig1_unavailability", "1f07fcff9057f5c5", "1f07fcff9057f5c5"},
      {"e2_replication_tradeoff", "4befea856390f1b3", "4befea856390f1b3"},
      {"whatif_repair_codesign", "c15b8daacb0f2be0", "52ee8c98cd13ad98"},
      {"e9_limpware", "b367f6661eafccf1", "b367f6661eafccf1"},
      {"e4_provisioning", "f1ef3a12fd1fd567", "f1ef3a12fd1fd567"},
  };
  for (const PinnedHash& p : pinned) {
    SCOPED_TRACE(p.scenario);
    auto path = scenario::FindScenarioPath(p.scenario);
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    auto spec = scenario::LoadScenarioFile(*path);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto space = BuildQuerySpace(spec->query);
    ASSERT_TRUE(space.ok()) << space.status().ToString();
    EXPECT_EQ(SweepConfigHash(space->AllPoints(), spec->query.constraints),
              p.grid_order);
    EXPECT_EQ(ManifestConfigHash(*space, spec->query), p.run_order);
  }
}

// benchsuite/sweep_fine.json's space, built the way BuildQuerySpace lays
// it out: its grid-order hash is that file's.
TEST(SweepConfigHashTest, PinnedForSweepFine) {
  std::vector<Value> nodes;
  for (int n = 10; n <= 40; n += 2) nodes.emplace_back(n);
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("nodes", nodes).ok());
  ASSERT_TRUE(space.AddDimension("replication", {1, 2, 3, 4, 5}).ok());
  ASSERT_TRUE(
      space.AddDimension("failures", {0, 1, 2, 3, 4, 5, 6, 7}).ok());
  ASSERT_TRUE(
      space.AddDimension("placement", {"random", "round_robin"}).ok());
  ASSERT_TRUE(space.AddDimension("placement_samples", {2}).ok());
  ASSERT_TRUE(space.AddDimension("trials", {20}).ok());
  ASSERT_TRUE(space.AddDimension("users", {200}).ok());
  QuerySpec query;
  query.constraints = {{"p_any_unavailable", SlaOp::kAtMost, 0.2}};
  query.hints = {{"replication", MonotoneDirection::kHigherIsBetter},
                 {"failures", MonotoneDirection::kLowerIsBetter}};
  EXPECT_EQ(SweepConfigHash(space.AllPoints(), query.constraints),
            "5fa688586184d904");
  EXPECT_EQ(ManifestConfigHash(space, query), "007f80551a67dcfc");
}

// The serving workload's query family (its first member), whose grid-order
// hash every served request computes for its cache key.
TEST(SweepConfigHashTest, PinnedForServeQueryFamily) {
  auto spec = ParseQuery(
      "EXPLORE replication IN [2, 3], placement IN ['random', "
      "'round_robin'] SIMULATE static_availability WITH nodes = 12, "
      "failures = 1, users = 2000, trials = 60, placement_samples = 6 "
      "ORDER BY availability DESC");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto space = BuildQuerySpace(*spec);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_EQ(SweepConfigHash(space->AllPoints(), spec->constraints),
            "3163bbacab72abeb");
}

TEST(SweepConfigHashTest, CsvOfEveryValueTypeIsUnchanged) {
  Table t(Schema({{"flag", ValueType::kBool},
                  {"count", ValueType::kInt},
                  {"ratio", ValueType::kDouble},
                  {"label", ValueType::kString}}));
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(t.AppendRow({true, std::numeric_limits<int64_t>::min(), 0.1,
                           "plain"})
                  .ok());
  ASSERT_TRUE(t.AppendRow({false, std::numeric_limits<int64_t>::max(), -0.0,
                           "a, b"})
                  .ok());
  ASSERT_TRUE(
      t.AppendRow({Value(), int64_t{0}, 1.0 / 3.0, "say \"hi\""}).ok());
  ASSERT_TRUE(t.AppendRow({true, Value(), -inf, ""}).ok());
  ASSERT_TRUE(t.AppendRow({false, int64_t{-42}, 1e300, "\"\""}).ok());
  ASSERT_TRUE(t.AppendRow({Value(), int64_t{7}, Value(), "k=v\nnext"}).ok());
  ASSERT_TRUE(t.AppendRow({true, int64_t{1}, 1e-300, "end,"}).ok());
  EXPECT_EQ(t.ToCsv(),
            "flag,count,ratio,label\n"
            "true,-9223372036854775808,0.1,plain\n"
            "false,9223372036854775807,-0,\"a, b\"\n"
            "null,0,0.3333333333,\"say \"\"hi\"\"\"\n"
            "true,null,-inf,\n"
            "false,-42,1e+300,\"\"\"\"\"\"\n"
            "null,7,null,k=v\nnext\n"
            "true,1,1e-300,\"end,\"\n");
}

}  // namespace
}  // namespace wt
