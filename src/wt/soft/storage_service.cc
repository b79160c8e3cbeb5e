#include "wt/soft/storage_service.h"

#include <algorithm>
#include <utility>

namespace wt {

StorageService::StorageService(const StorageServiceConfig& config,
                               std::unique_ptr<RedundancyScheme> scheme,
                               std::unique_ptr<PlacementPolicy> placement,
                               RngStream rng)
    : config_(config),
      scheme_(std::move(scheme)),
      placement_(std::move(placement)) {
  WT_CHECK(scheme_ != nullptr && placement_ != nullptr);
  WT_CHECK(scheme_->num_fragments() <= config.num_nodes)
      << "scheme needs " << scheme_->num_fragments() << " nodes, cluster has "
      << config.num_nodes;
  int nf = scheme_->num_fragments();
  fragments_.resize(static_cast<size_t>(config.num_users));
  by_node_.resize(static_cast<size_t>(config.num_nodes));
  std::vector<NodeIndex> nodes;
  for (int64_t o = 0; o < config.num_users; ++o) {
    placement_->Place(o, nf, config.num_nodes, rng, nodes);
    WT_DCHECK(static_cast<int>(nodes.size()) == nf);
    auto& frags = fragments_[static_cast<size_t>(o)];
    frags.reserve(static_cast<size_t>(nf));
    for (NodeIndex n : nodes) {
      frags.push_back(FragmentLoc{n, true});
      by_node_[static_cast<size_t>(n)].push_back(o);
    }
  }
}

int StorageService::UpFragments(ObjectId o,
                                const std::vector<bool>& node_up) const {
  int up = 0;
  for (const FragmentLoc& f : fragments(o)) {
    if (f.alive && node_up[static_cast<size_t>(f.node)]) ++up;
  }
  return up;
}

int64_t StorageService::CountUnavailable(
    const std::vector<bool>& node_up) const {
  int64_t count = 0;
  for (int64_t o = 0; o < num_objects(); ++o) {
    if (!Available(o, node_up)) ++count;
  }
  return count;
}

std::vector<ObjectId> StorageService::FailNode(NodeIndex node) {
  std::vector<ObjectId> affected;
  for (ObjectId o : by_node_[static_cast<size_t>(node)]) {
    bool changed = false;
    for (FragmentLoc& f : fragments_[static_cast<size_t>(o)]) {
      if (f.node == node && f.alive) {
        f.alive = false;
        changed = true;
      }
    }
    if (changed) affected.push_back(o);
  }
  return affected;
}

void StorageService::RestoreFragment(ObjectId o, int idx, NodeIndex dst) {
  auto& frags = fragments_[static_cast<size_t>(o)];
  WT_CHECK(idx >= 0 && idx < static_cast<int>(frags.size()));
  FragmentLoc& f = frags[static_cast<size_t>(idx)];
  WT_CHECK(!f.alive) << "restoring a live fragment";
  RemoveFromNodeIndex(f.node, o);
  f.node = dst;
  f.alive = true;
  auto& list = by_node_[static_cast<size_t>(dst)];
  if (std::find(list.begin(), list.end(), o) == list.end()) list.push_back(o);
}

std::vector<NodeIndex> StorageService::LiveFragmentNodes(ObjectId o) const {
  std::vector<NodeIndex> out;
  for (const FragmentLoc& f : fragments(o)) {
    if (f.alive) out.push_back(f.node);
  }
  return out;
}

void StorageService::RemoveFromNodeIndex(NodeIndex node, ObjectId o) {
  auto& list = by_node_[static_cast<size_t>(node)];
  // Only remove if the object no longer has any other fragment on `node`.
  int remaining = 0;
  for (const FragmentLoc& f : fragments_[static_cast<size_t>(o)]) {
    if (f.node == node) ++remaining;
  }
  if (remaining > 1) return;  // another fragment still references this node
  auto it = std::find(list.begin(), list.end(), o);
  if (it != list.end()) {
    *it = list.back();
    list.pop_back();
  }
}

}  // namespace wt
