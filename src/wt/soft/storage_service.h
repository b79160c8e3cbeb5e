// StorageService: the replicated storage layer the paper's Figure 1 and the
// availability experiments simulate. It combines a redundancy scheme and a
// placement policy into a concrete fragment map (object -> nodes), and
// answers availability queries against a node-liveness vector.
//
// The fragment map is mutable: the RepairManager moves fragments when nodes
// fail (re-replication), which is exactly the software design axis the
// paper's introduction explores (repair speed vs replication factor).

#ifndef WT_SOFT_STORAGE_SERVICE_H_
#define WT_SOFT_STORAGE_SERVICE_H_

#include <memory>
#include <vector>

#include "wt/common/macros.h"
#include "wt/soft/placement.h"
#include "wt/soft/redundancy.h"

namespace wt {

/// Configuration of a storage service deployment.
struct StorageServiceConfig {
  /// Number of customers; each has one logical object (Figure 1: 10,000).
  int64_t num_users = 10000;
  /// Logical object size (per user), in GB.
  double object_size_gb = 10.0;
  /// Cluster size in nodes.
  int num_nodes = 10;
};

/// A fragment's current location and liveness.
struct FragmentLoc {
  NodeIndex node = -1;
  /// False once the fragment's bits are lost (its node failed) until a
  /// repair re-creates it somewhere.
  bool alive = true;
};

/// The deployed storage layer: fragment placement plus availability math.
class StorageService {
 public:
  StorageService(const StorageServiceConfig& config,
                 std::unique_ptr<RedundancyScheme> scheme,
                 std::unique_ptr<PlacementPolicy> placement, RngStream rng);

  const StorageServiceConfig& config() const { return config_; }
  const RedundancyScheme& scheme() const { return *scheme_; }
  const PlacementPolicy& placement() const { return *placement_; }
  int64_t num_objects() const {
    return static_cast<int64_t>(fragments_.size());
  }

  /// Fragment locations of an object.
  const std::vector<FragmentLoc>& fragments(ObjectId o) const {
    WT_DCHECK(o >= 0 && o < num_objects());
    return fragments_[static_cast<size_t>(o)];
  }

  /// Objects with at least one fragment on `node` (for repair fan-out).
  const std::vector<ObjectId>& objects_on_node(NodeIndex node) const {
    WT_DCHECK(node >= 0 && node < config_.num_nodes);
    return by_node_[static_cast<size_t>(node)];
  }

  /// Live fragments of object `o` given node liveness.
  int UpFragments(ObjectId o, const std::vector<bool>& node_up) const;

  /// Whether object `o` can be operated on (scheme availability rule).
  bool Available(ObjectId o, const std::vector<bool>& node_up) const {
    return scheme_->Available(UpFragments(o, node_up));
  }

  /// Number of unavailable objects under the given liveness vector.
  int64_t CountUnavailable(const std::vector<bool>& node_up) const;

  /// --- mutation API for the repair manager ---

  /// Marks every fragment on `node` dead. Returns the affected objects.
  std::vector<ObjectId> FailNode(NodeIndex node);

  /// Re-creates fragment `idx` of object `o` on `dst` (after a repair
  /// transfer finishes). Updates the per-node index.
  void RestoreFragment(ObjectId o, int idx, NodeIndex dst);

  /// Nodes currently holding a live fragment of `o`.
  std::vector<NodeIndex> LiveFragmentNodes(ObjectId o) const;

  /// Fragment bytes for this service's objects.
  double FragmentBytes() const {
    return config_.object_size_gb * 1e9 * scheme_->fragment_size_factor();
  }

  /// Raw bytes stored across the cluster.
  double TotalRawBytes() const {
    return static_cast<double>(num_objects()) * config_.object_size_gb * 1e9 *
           scheme_->storage_overhead();
  }

 private:
  void RemoveFromNodeIndex(NodeIndex node, ObjectId o);

  StorageServiceConfig config_;
  std::unique_ptr<RedundancyScheme> scheme_;
  std::unique_ptr<PlacementPolicy> placement_;
  // fragments_[object][fragment] -> location
  std::vector<std::vector<FragmentLoc>> fragments_;
  // by_node_[node] -> objects with >= 1 fragment there (live or dead)
  std::vector<std::vector<ObjectId>> by_node_;
};

}  // namespace wt

#endif  // WT_SOFT_STORAGE_SERVICE_H_
