#include "wt/core/pruner.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>

namespace wt {

namespace {

constexpr size_t kNoBucket = SIZE_MAX;

// Numeric "goodness": higher is always better after direction folding.
double Goodness(const Value& v, MonotoneDirection dir) {
  auto num = v.ToNumeric();
  double x = num.ok() ? num.value() : 0.0;
  return dir == MonotoneDirection::kHigherIsBetter ? x : -x;
}

// Each candidate's class under Value::operator==: the index of the first
// candidate equal to it, or kNoBucket for one unequal to itself (NaN). On
// all other values Value::operator< is a strict weak order whose
// equivalence is operator==, so the map finds that first candidate.
std::vector<size_t> MergeEqualCandidates(const std::vector<Value>& cands) {
  std::map<Value, size_t> first;
  std::vector<size_t> merged(cands.size(), kNoBucket);
  for (size_t c = 0; c < cands.size(); ++c) {
    if (cands[c] == cands[c]) {
      merged[c] = first.emplace(cands[c], c).first->second;
    }
  }
  return merged;
}

}  // namespace

DominanceIndex::DominanceIndex(const DesignSpace& space,
                               const std::vector<MonotoneHint>& hints,
                               bool can_prune) {
  const std::vector<Dimension>& dims = space.dimensions();
  const size_t n = space.size();
  // Grid index -> candidate index of dimension d (the last varies fastest).
  std::vector<size_t> stride(dims.size(), 1);
  for (size_t d = dims.size(); d-- > 1;) {
    stride[d - 1] = stride[d] * dims[d].candidates.size();
  }
  auto candidate = [&](size_t grid, size_t d) {
    return grid / stride[d] % dims[d].candidates.size();
  };

  // Best-first order. Each sum adds the hints' goodness in list order, the
  // same doubles a comparator summing per comparison would produce.
  std::vector<double> sum(n, 0.0);
  std::vector<std::optional<MonotoneDirection>> direction(dims.size());
  for (const MonotoneHint& h : hints) {
    auto dim = space.dimension(h.dimension);
    if (!dim.ok()) continue;
    const size_t d = static_cast<size_t>(*dim - dims.data());
    direction[d] = h.direction;
    for (size_t g = 0; g < n; ++g) {
      sum[g] += Goodness(dims[d].candidates[candidate(g, d)], h.direction);
    }
  }
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), size_t{0});
  std::stable_sort(order_.begin(), order_.end(),
                   [&sum](size_t a, size_t b) { return sum[a] > sum[b]; });
  if (!can_prune) return;

  // A bucket's key is the mixed-radix number of its merged non-hinted
  // candidates, so num_keys <= n; buckets are numbered as first seen.
  std::vector<std::vector<size_t>> merged(dims.size());
  size_t num_keys = 1;
  for (size_t d = 0; d < dims.size(); ++d) {
    if (direction[d]) {
      ++num_hinted_;
    } else {
      merged[d] = MergeEqualCandidates(dims[d].candidates);
      num_keys *= dims[d].candidates.size();
    }
  }
  std::vector<size_t> bucket_of_key(num_keys, kNoBucket);
  bucket_.assign(n, kNoBucket);
  goodness_.reserve(n * num_hinted_);
  for (size_t r = 0; r < n; ++r) {
    size_t key = 0;
    bool keyed = true;
    for (size_t d = 0; d < dims.size(); ++d) {
      const size_t c = candidate(order_[r], d);
      if (direction[d]) {
        goodness_.push_back(Goodness(dims[d].candidates[c], *direction[d]));
      } else {
        keyed = keyed && merged[d][c] != kNoBucket;
        key = key * dims[d].candidates.size() + (keyed ? merged[d][c] : 0);
      }
    }
    if (!keyed) continue;
    size_t& b = bucket_of_key[key];
    if (b == kNoBucket) {
      b = members_.size();
      members_.emplace_back();
    }
    members_[b].push_back(r);
    bucket_[r] = b;
  }
  failures_.resize(members_.size());
}

bool DominanceIndex::HintedDominates(size_t a, size_t b) const {
  for (size_t k = 0; k < num_hinted_; ++k) {
    if (goodness_[a * num_hinted_ + k] < goodness_[b * num_hinted_ + k]) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<size_t>> DominanceIndex::Wavefronts() const {
  std::vector<size_t> level(order_.size(), 0);
  size_t num_levels = 1;
  for (const std::vector<size_t>& runs : members_) {
    for (size_t j = 1; j < runs.size(); ++j) {
      size_t& lj = level[runs[j]];
      for (size_t i = 0; i < j; ++i) {
        // Cheap level test first; only a deeper dominator can raise j.
        const size_t li = level[runs[i]];
        if (li + 1 > lj && HintedDominates(runs[i], runs[j])) lj = li + 1;
      }
      num_levels = std::max(num_levels, lj + 1);
    }
  }
  std::vector<std::vector<size_t>> waves(num_levels);
  for (size_t r = 0; r < order_.size(); ++r) waves[level[r]].push_back(r);
  return waves;
}

void DominanceIndex::RecordFailure(size_t run_id) {
  if (bucket_.empty() || bucket_[run_id] == kNoBucket) return;
  failures_[bucket_[run_id]].push_back(run_id);
}

bool DominanceIndex::IsDominated(size_t run_id) const {
  if (bucket_.empty() || bucket_[run_id] == kNoBucket) return false;
  for (size_t f : failures_[bucket_[run_id]]) {
    if (HintedDominates(f, run_id)) return true;
  }
  return false;
}

}  // namespace wt
