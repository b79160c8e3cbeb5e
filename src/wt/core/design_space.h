// Design spaces: the domain of a what-if query (§1, §4.2).
//
// A DesignSpace is a set of named dimensions, each with an explicit list of
// candidate values; a DesignPoint is one assignment. "Queries to the wind
// tunnel are design questions that iterate over a vast design space of DC
// configurations" — the orchestrator iterates this grid, pruning and
// parallelizing as it goes.

#ifndef WT_CORE_DESIGN_SPACE_H_
#define WT_CORE_DESIGN_SPACE_H_

#include <map>
#include <string>
#include <vector>

#include "wt/common/result.h"
#include "wt/store/value.h"

namespace wt {

/// One configuration: dimension name -> value.
class DesignPoint {
 public:
  DesignPoint() = default;
  explicit DesignPoint(std::map<std::string, Value> values)
      : values_(std::move(values)) {}

  /// Value of a dimension; error if absent.
  [[nodiscard]] Result<Value> Get(const std::string& dim) const;
  /// Typed conveniences with defaults.
  double GetDouble(const std::string& dim, double fallback) const;
  int64_t GetInt(const std::string& dim, int64_t fallback) const;
  std::string GetString(const std::string& dim,
                        const std::string& fallback) const;

  bool Has(const std::string& dim) const { return values_.count(dim) > 0; }
  void Set(const std::string& dim, Value v) { values_[dim] = std::move(v); }

  const std::map<std::string, Value>& values() const { return values_; }

  /// "a=1, b=ssd" — deterministic (map-ordered).
  std::string ToString() const;
  /// Appends ToString()'s text to `*out` without a temporary string.
  void AppendTo(std::string* out) const;

 private:
  std::map<std::string, Value> values_;
};

/// One axis of the design space.
struct Dimension {
  std::string name;
  std::vector<Value> candidates;
};

/// Cartesian product of dimensions.
class DesignSpace {
 public:
  /// Adds a dimension; fails on duplicates or empty candidate lists.
  [[nodiscard]] Status AddDimension(std::string name, std::vector<Value> candidates);

  size_t num_dimensions() const { return dims_.size(); }
  const std::vector<Dimension>& dimensions() const { return dims_; }
  [[nodiscard]] Result<const Dimension*> dimension(const std::string& name) const;

  /// Total number of design points (product of candidate counts).
  size_t size() const;

  /// The i-th point in lexicographic order of the grid, i in [0, size()).
  DesignPoint PointAt(size_t index) const;

  /// All points, grid order.
  std::vector<DesignPoint> AllPoints() const;

 private:
  std::vector<Dimension> dims_;
};

}  // namespace wt

#endif  // WT_CORE_DESIGN_SPACE_H_
