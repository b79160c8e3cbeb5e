// Differential test of DominanceIndex against a reference copy of the
// point-walking DominancePruner and the all-pairs wavefront build it
// replaced. Over seeded random design spaces the index must give the same
// best-first order, the same wavefront levels and the same IsDominated
// answer for every point, bit for bit. The spaces mix the cases where the
// two could part: goodness ties, candidates equal across types (1 and 1.0,
// and repeated candidates), strings and bools, NaN on hinted and
// non-hinted dimensions, strings on hinted dimensions, hints on absent
// dimensions, repeated hints and both directions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "wt/common/macros.h"
#include "wt/common/string_util.h"
#include "wt/core/design_space.h"
#include "wt/core/pruner.h"
#include "wt/sim/random.h"

namespace wt {
namespace {

// The pruner as it was: every question walks two DesignPoint maps.
class ReferencePruner {
 public:
  explicit ReferencePruner(std::vector<MonotoneHint> hints)
      : hints_(std::move(hints)) {
    for (const MonotoneHint& h : hints_) {
      hint_by_dim_[h.dimension] = h.direction;
    }
  }

  static double Goodness(const Value& v, MonotoneDirection dir) {
    auto num = v.ToNumeric();
    double x = num.ok() ? num.value() : 0.0;
    return dir == MonotoneDirection::kHigherIsBetter ? x : -x;
  }

  std::vector<DesignPoint> OrderBestFirst(
      std::vector<DesignPoint> points) const {
    std::stable_sort(
        points.begin(), points.end(),
        [this](const DesignPoint& a, const DesignPoint& b) {
          double ga = 0.0, gb = 0.0;
          for (const MonotoneHint& h : hints_) {
            auto va = a.Get(h.dimension);
            auto vb = b.Get(h.dimension);
            if (!va.ok() || !vb.ok()) continue;
            ga += Goodness(va.value(), h.direction);
            gb += Goodness(vb.value(), h.direction);
          }
          return ga > gb;  // best first
        });
    return points;
  }

  bool DominatesOrEqual(const DesignPoint& a, const DesignPoint& b) const {
    for (const auto& [dim, value_b] : b.values()) {
      auto value_a = a.Get(dim);
      if (!value_a.ok()) return false;
      auto hint = hint_by_dim_.find(dim);
      if (hint == hint_by_dim_.end()) {
        if (!(value_a.value() == value_b)) return false;
      } else {
        double ga = Goodness(value_a.value(), hint->second);
        double gb = Goodness(value_b, hint->second);
        if (ga < gb) return false;
      }
    }
    return true;
  }

  void RecordFailure(const DesignPoint& point) { failed_.push_back(point); }

  bool IsDominated(const DesignPoint& point) const {
    for (const DesignPoint& f : failed_) {
      if (DominatesOrEqual(f, point)) return true;
    }
    return false;
  }

 private:
  std::vector<MonotoneHint> hints_;
  std::map<std::string, MonotoneDirection> hint_by_dim_;
  std::vector<DesignPoint> failed_;
};

// The all-pairs wavefront build, as the orchestrator had it.
std::vector<std::vector<size_t>> ReferenceWavefronts(
    const ReferencePruner& pruner, const std::vector<DesignPoint>& points,
    bool enable_pruning, bool have_hints, bool can_fail) {
  const size_t n = points.size();
  std::vector<size_t> level(n, 0);
  size_t num_levels = 1;
  if (enable_pruning && have_hints && can_fail) {
    for (size_t j = 0; j < n; ++j) {
      for (size_t i = 0; i < j; ++i) {
        if (level[i] + 1 > level[j] &&
            pruner.DominatesOrEqual(points[i], points[j])) {
          level[j] = level[i] + 1;
        }
      }
      num_levels = std::max(num_levels, level[j] + 1);
    }
  }
  std::vector<std::vector<size_t>> waves(num_levels);
  for (size_t j = 0; j < n; ++j) waves[level[j]].push_back(j);
  return waves;
}

// Exact identity of a point: type and value (double bits) per dimension,
// so points equal under Value::operator== but of different types, such as
// 1 and 1.0, still tell apart.
std::string Identity(const DesignPoint& p) {
  std::string out;
  for (const auto& [dim, v] : p.values()) {
    out += dim + ':' + ValueTypeToString(v.type()) + '=';
    if (v.type() == ValueType::kDouble) {
      const double d = v.AsDouble();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      out += StrFormat("%016llx", static_cast<unsigned long long>(bits));
    } else {
      out += v.ToString();
    }
    out += ';';
  }
  return out;
}

// One candidate of a dimension of the given kind. Small ranges make
// repeated candidates and goodness ties common.
Value RandomCandidate(RngStream& rng, int kind) {
  switch (kind) {
    case 0:  // int
      return Value(rng.UniformInt(0, 4));
    case 1:  // double, halves
      return Value(0.5 * static_cast<double>(rng.UniformInt(0, 6)));
    case 2:  // the same numbers as int or double: 1 == 1.0
      return rng.Bernoulli(0.5)
                 ? Value(rng.UniformInt(0, 3))
                 : Value(static_cast<double>(rng.UniformInt(0, 3)));
    case 3:  // string
      return Value(StrFormat("s%d", static_cast<int>(rng.UniformInt(0, 3))));
    case 4:  // bool
      return Value(rng.Bernoulli(0.5));
    default:  // any of the above, or NaN
      if (rng.Bernoulli(0.2)) {
        return Value(std::numeric_limits<double>::quiet_NaN());
      }
      return RandomCandidate(rng, static_cast<int>(rng.UniformInt(0, 4)));
  }
}

struct RandomCase {
  DesignSpace space;
  std::vector<MonotoneHint> hints;
};

// 2-6 dimensions, up to 2,000 points, hinted or not at random, plus
// sometimes a hint on an absent dimension and a repeated hint.
RandomCase MakeCase(uint64_t seed) {
  RngStream rng(seed);
  RandomCase c;
  // Two spaces grow to about 2,000 points; the rest stay under 200, since
  // the reference's all-pairs build is most of this test's run time.
  const bool big = seed % 100 == 0;
  const size_t max_points = big ? 2000 : 200;
  const int num_dims = static_cast<int>(rng.UniformInt(big ? 4 : 2, 6));
  size_t points = 1;
  for (int d = 0; d < num_dims; ++d) {
    size_t count = static_cast<size_t>(rng.UniformInt(big ? 6 : 1, 12));
    count = std::max<size_t>(1, std::min(count, max_points / points));
    points *= count;
    const int kind = static_cast<int>(rng.UniformInt(0, 5));
    std::vector<Value> candidates;
    for (size_t k = 0; k < count; ++k) {
      candidates.push_back(RandomCandidate(rng, kind));
    }
    const std::string name = StrFormat("d%d", d);
    WT_CHECK(c.space.AddDimension(name, std::move(candidates)).ok());
    if (rng.Bernoulli(0.5)) {
      c.hints.push_back({name, rng.Bernoulli(0.5)
                                   ? MonotoneDirection::kHigherIsBetter
                                   : MonotoneDirection::kLowerIsBetter});
    }
  }
  if (rng.Bernoulli(0.3)) {
    c.hints.push_back({"absent", MonotoneDirection::kLowerIsBetter});
  }
  if (!c.hints.empty() && rng.Bernoulli(0.4)) {
    MonotoneHint again =
        c.hints[static_cast<size_t>(rng.UniformInt(0, c.hints.size() - 1))];
    if (rng.Bernoulli(0.5)) {
      again.direction = again.direction == MonotoneDirection::kHigherIsBetter
                            ? MonotoneDirection::kLowerIsBetter
                            : MonotoneDirection::kHigherIsBetter;
    }
    c.hints.push_back(again);
  }
  for (size_t i = c.hints.size(); i > 1; --i) {
    std::swap(c.hints[i - 1],
              c.hints[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
  }
  return c;
}

constexpr uint64_t kCases = 200;

TEST(DominanceIndexDifferentialTest, MatchesReferenceOnRandomSpaces) {
  size_t total_points = 0, largest = 0, multi_level = 0, dominated = 0;
  for (uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    const RandomCase c = MakeCase(seed);
    // As in a sweep with a WHERE clause and pruning on: the index buckets
    // exactly when there are hints.
    const bool can_prune = !c.hints.empty();
    ReferencePruner reference(c.hints);
    const std::vector<DesignPoint> ref_points =
        reference.OrderBestFirst(c.space.AllPoints());
    DominanceIndex index(c.space, c.hints, can_prune);
    const size_t n = ref_points.size();
    total_points += n;
    largest = std::max(largest, n);

    ASSERT_EQ(index.order().size(), n);
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(Identity(c.space.PointAt(index.order()[r])),
                Identity(ref_points[r]))
          << "order differs at run " << r;
    }
    const auto ref_waves =
        ReferenceWavefronts(reference, ref_points, /*enable_pruning=*/true,
                            !c.hints.empty(), /*can_fail=*/true);
    ASSERT_EQ(index.Wavefronts(), ref_waves) << "levels differ";
    if (ref_waves.size() > 1) ++multi_level;
    // With no hints the sweep is one wave and checks every point before
    // any failure is recorded, so there is nothing more to compare.
    if (!can_prune) continue;

    // Failures recorded in point order, each point checked before its own
    // record, then every point checked against the full set.
    RngStream fail_rng(seed * 7919 + 1);
    const double fail_p = std::vector<double>{0.05, 0.2, 0.5}[seed % 3];
    for (size_t r = 0; r < n; ++r) {
      const bool ref_dominated = reference.IsDominated(ref_points[r]);
      ASSERT_EQ(index.IsDominated(r), ref_dominated) << "before, run " << r;
      if (fail_rng.Bernoulli(fail_p)) {
        reference.RecordFailure(ref_points[r]);
        index.RecordFailure(r);
      }
    }
    for (size_t r = 0; r < n; ++r) {
      const bool ref_dominated = reference.IsDominated(ref_points[r]);
      ASSERT_EQ(index.IsDominated(r), ref_dominated) << "after, run " << r;
      if (ref_dominated) ++dominated;
    }
  }
  // The cases must reach the code that could differ.
  EXPECT_GT(total_points, 20000u);
  EXPECT_GT(largest, 1500u);
  EXPECT_GT(multi_level, kCases / 2);
  EXPECT_GT(dominated, total_points / 10);
}

// The two traps of non-hinted equality, pinned on one small space: Int 1
// and Double 1.0 share a bucket, and a point holding NaN is in none, so
// not even its own recorded failure dominates it.
TEST(DominanceIndexDifferentialTest, EqualAcrossTypesAndNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  DesignSpace space;
  ASSERT_TRUE(space.AddDimension("speed", {1, 2}).ok());
  ASSERT_TRUE(space.AddDimension("tier", {Value(1), Value(1.0), Value(nan)})
                  .ok());
  const std::vector<MonotoneHint> hints = {
      {"speed", MonotoneDirection::kHigherIsBetter}};
  DominanceIndex index(space, hints, /*can_prune=*/true);
  auto run = [&](int speed, size_t tier) {
    for (size_t r = 0; r < index.order().size(); ++r) {
      if (index.order()[r] == static_cast<size_t>(speed - 1) * 3 + tier) {
        return r;
      }
    }
    return index.order().size();
  };
  index.RecordFailure(run(2, 0));    // speed 2, tier Int 1
  index.RecordFailure(run(2, 2));    // speed 2, tier NaN
  EXPECT_TRUE(index.IsDominated(run(1, 1)));   // tier Double 1.0
  EXPECT_FALSE(index.IsDominated(run(1, 2)));  // NaN equals nothing
  EXPECT_FALSE(index.IsDominated(run(2, 2)));  // not even itself
  // Run ids: speed 2 first (grid 3, 4, 5), then speed 1 (grid 0, 1, 2).
  // The four points of tier 1 or 1.0 each dominate-or-equal the ones after
  // them, so they chain over four waves; the two NaN points stay in wave 0.
  const std::vector<std::vector<size_t>> waves = {{0, 2, 5}, {1}, {3}, {4}};
  EXPECT_EQ(index.Wavefronts(), waves);
}

}  // namespace
}  // namespace wt
