#include "wt/core/design_space.h"

#include "wt/common/macros.h"

namespace wt {

Result<Value> DesignPoint::Get(const std::string& dim) const {
  auto it = values_.find(dim);
  if (it == values_.end()) {
    return Status::NotFound("design point has no dimension '" + dim + "'");
  }
  return it->second;
}

double DesignPoint::GetDouble(const std::string& dim, double fallback) const {
  auto it = values_.find(dim);
  if (it == values_.end()) return fallback;
  auto v = it->second.ToNumeric();
  return v.ok() ? v.value() : fallback;
}

int64_t DesignPoint::GetInt(const std::string& dim, int64_t fallback) const {
  auto it = values_.find(dim);
  if (it == values_.end()) return fallback;
  auto v = it->second.ToNumeric();
  return v.ok() ? static_cast<int64_t>(v.value()) : fallback;
}

std::string DesignPoint::GetString(const std::string& dim,
                                   const std::string& fallback) const {
  auto it = values_.find(dim);
  if (it == values_.end() || it->second.type() != ValueType::kString) {
    return fallback;
  }
  return it->second.AsString();
}

std::string DesignPoint::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void DesignPoint::AppendTo(std::string* out) const {
  const char* sep = "";
  for (const auto& [name, value] : values_) {
    out->append(sep).append(name).push_back('=');
    value.AppendTo(out);
    sep = ", ";
  }
}

Status DesignSpace::AddDimension(std::string name,
                                 std::vector<Value> candidates) {
  if (candidates.empty()) {
    return Status::InvalidArgument("dimension '" + name +
                                   "' has no candidates");
  }
  for (const Dimension& d : dims_) {
    if (d.name == name) {
      return Status::AlreadyExists("dimension exists: '" + name + "'");
    }
  }
  dims_.push_back(Dimension{std::move(name), std::move(candidates)});
  return Status::OK();
}

Result<const Dimension*> DesignSpace::dimension(
    const std::string& name) const {
  for (const Dimension& d : dims_) {
    if (d.name == name) return &d;
  }
  return Status::NotFound("no such dimension: '" + name + "'");
}

size_t DesignSpace::size() const {
  if (dims_.empty()) return 0;
  size_t total = 1;
  for (const Dimension& d : dims_) total *= d.candidates.size();
  return total;
}

DesignPoint DesignSpace::PointAt(size_t index) const {
  WT_CHECK(index < size()) << "design point index out of range";
  std::map<std::string, Value> values;
  // Last dimension varies fastest (row-major over the grid).
  size_t rem = index;
  for (size_t d = dims_.size(); d-- > 0;) {
    const Dimension& dim = dims_[d];
    size_t n = dim.candidates.size();
    values[dim.name] = dim.candidates[rem % n];
    rem /= n;
  }
  return DesignPoint(std::move(values));
}

std::vector<DesignPoint> DesignSpace::AllPoints() const {
  std::vector<DesignPoint> out;
  size_t n = size();
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(PointAt(i));
  return out;
}

}  // namespace wt
