#include "wt/soft/placement.h"

#include <algorithm>
#include <numeric>

#include "wt/common/macros.h"
#include "wt/common/string_util.h"

namespace wt {

void RandomPlacement::Place(ObjectId /*object*/, int num_fragments,
                            int num_nodes, RngStream& rng,
                            std::vector<NodeIndex>& out) const {
  WT_CHECK(num_fragments <= num_nodes)
      << "more fragments than nodes: " << num_fragments << " > " << num_nodes;
  // Partial Fisher–Yates over an identity permutation held in `out`; slot i
  // is final once step i has run, so the first num_fragments are the sample.
  out.resize(static_cast<size_t>(num_nodes));
  std::iota(out.begin(), out.end(), 0);
  for (int i = 0; i < num_fragments; ++i) {
    int64_t j = rng.UniformInt(i, num_nodes - 1);
    std::swap(out[static_cast<size_t>(i)], out[static_cast<size_t>(j)]);
  }
  out.resize(static_cast<size_t>(num_fragments));
}

void RoundRobinPlacement::Place(ObjectId object, int num_fragments,
                                int num_nodes, RngStream& /*rng*/,
                                std::vector<NodeIndex>& out) const {
  WT_CHECK(num_fragments <= num_nodes);
  out.resize(static_cast<size_t>(num_fragments));
  NodeIndex start = static_cast<NodeIndex>(object % num_nodes);
  for (int i = 0; i < num_fragments; ++i) {
    out[static_cast<size_t>(i)] =
        static_cast<NodeIndex>((start + i) % num_nodes);
  }
}

CopysetPlacement::CopysetPlacement(int scatter_width, uint64_t seed)
    : scatter_width_(scatter_width), seed_(seed) {
  WT_CHECK(scatter_width >= 1);
}

const std::vector<std::vector<NodeIndex>>& CopysetPlacement::CopysetsFor(
    int num_nodes, int n) const {
  for (size_t i = 0; i < cache_keys_.size(); ++i) {
    if (cache_keys_[i] == std::make_pair(num_nodes, n)) return cache_[i];
  }
  // Build permutation-based copysets (Cidon et al.): p permutations, each
  // chopped into consecutive groups of n.
  int p = (scatter_width_ + n - 2) / (n - 1 > 0 ? n - 1 : 1);
  p = std::max(p, 1);
  std::vector<std::vector<NodeIndex>> sets;
  RngStream rng(seed_ ^ (static_cast<uint64_t>(num_nodes) << 16) ^
                static_cast<uint64_t>(n));
  for (int perm = 0; perm < p; ++perm) {
    std::vector<NodeIndex> order(static_cast<size_t>(num_nodes));
    std::iota(order.begin(), order.end(), 0);
    for (int i = num_nodes - 1; i > 0; --i) {
      int64_t j = rng.UniformInt(0, i);
      std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
    }
    for (int start = 0; start + n <= num_nodes; start += n) {
      sets.emplace_back(order.begin() + start, order.begin() + start + n);
    }
  }
  WT_CHECK(!sets.empty()) << "cluster too small for copysets";
  cache_keys_.emplace_back(num_nodes, n);
  cache_.push_back(std::move(sets));
  return cache_.back();
}

void CopysetPlacement::Place(ObjectId object, int num_fragments,
                             int num_nodes, RngStream& rng,
                             std::vector<NodeIndex>& out) const {
  WT_CHECK(num_fragments <= num_nodes);
  const auto& sets = CopysetsFor(num_nodes, num_fragments);
  // Objects land on copysets uniformly; use the rng so Random-placement
  // comparisons share the per-object sampling structure.
  size_t pick = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(sets.size()) - 1));
  (void)object;
  out.assign(sets[pick].begin(), sets[pick].end());
}

Result<std::unique_ptr<PlacementPolicy>> PlacementPolicy::Create(
    const std::string& name) {
  std::string n = StrToLower(StrTrim(name));
  if (n == "random" || n == "r") {
    return std::unique_ptr<PlacementPolicy>(
        std::make_unique<RandomPlacement>());
  }
  if (n == "round_robin" || n == "roundrobin" || n == "rr") {
    return std::unique_ptr<PlacementPolicy>(
        std::make_unique<RoundRobinPlacement>());
  }
  if (n == "copyset") {
    return std::unique_ptr<PlacementPolicy>(
        std::make_unique<CopysetPlacement>());
  }
  return Status::InvalidArgument("unknown placement policy: '" + name + "'");
}

}  // namespace wt
