// Data placement policies: which nodes hold an object's fragments.
//
// Figure 1 of the paper compares Random (R) and Round-Robin (RR) placement;
// Copyset placement [Cidon et al., ATC'13] is included as the natural third
// point in the design space (it trades per-failure blast radius against the
// probability that some failure hits a copyset).

#ifndef WT_SOFT_PLACEMENT_H_
#define WT_SOFT_PLACEMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "wt/common/result.h"
#include "wt/hw/topology.h"
#include "wt/sim/random.h"

namespace wt {

/// Object identifier (one object per user in the Figure 1 setup).
using ObjectId = int64_t;

/// Strategy for choosing the distinct nodes that hold one object's
/// fragments. Implementations must be deterministic given (object, cluster
/// size, rng state) so runs are reproducible.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Replaces the contents of `out` with `num_fragments` distinct node
  /// indices in [0, num_nodes) for `object`. Requires num_fragments <=
  /// num_nodes. The buffer is the caller's, so placing many objects
  /// allocates nothing once it has grown.
  virtual void Place(ObjectId object, int num_fragments, int num_nodes,
                     RngStream& rng, std::vector<NodeIndex>& out) const = 0;

  /// Stable identifier used by configs and the DSL ("random",
  /// "round_robin", "copyset").
  virtual std::string name() const = 0;

  /// False if Place never draws from its RngStream, so every layout it
  /// builds for one cluster is the same.
  virtual bool randomized() const { return true; }

  virtual std::unique_ptr<PlacementPolicy> Clone() const = 0;

  /// Factory by name.
  [[nodiscard]] static Result<std::unique_ptr<PlacementPolicy>> Create(
      const std::string& name);
};

/// Uniform random choice of `num_fragments` distinct nodes per object.
class RandomPlacement final : public PlacementPolicy {
 public:
  void Place(ObjectId object, int num_fragments, int num_nodes,
             RngStream& rng, std::vector<NodeIndex>& out) const override;
  std::string name() const override { return "random"; }
  std::unique_ptr<PlacementPolicy> Clone() const override {
    return std::make_unique<RandomPlacement>(*this);
  }
};

/// Contiguous window: object o gets nodes (o mod N), (o mod N)+1, ...
/// wrapping around — the classic primary + successors layout.
class RoundRobinPlacement final : public PlacementPolicy {
 public:
  void Place(ObjectId object, int num_fragments, int num_nodes,
             RngStream& rng, std::vector<NodeIndex>& out) const override;
  std::string name() const override { return "round_robin"; }
  bool randomized() const override { return false; }
  std::unique_ptr<PlacementPolicy> Clone() const override {
    return std::make_unique<RoundRobinPlacement>(*this);
  }
};

/// Copyset placement: nodes are pre-partitioned into overlapping copysets
/// built from `scatter_width / (n-1)` random permutations; each object is
/// stored entirely within one copyset. Fewer distinct replica sets ⇒ a
/// random simultaneous failure of n nodes is unlikely to wipe any object.
class CopysetPlacement final : public PlacementPolicy {
 public:
  explicit CopysetPlacement(int scatter_width = 2, uint64_t seed = 42);
  void Place(ObjectId object, int num_fragments, int num_nodes,
             RngStream& rng, std::vector<NodeIndex>& out) const override;
  std::string name() const override { return "copyset"; }
  std::unique_ptr<PlacementPolicy> Clone() const override {
    return std::make_unique<CopysetPlacement>(*this);
  }

 private:
  // Copysets for a given (num_nodes, n), built lazily and cached.
  const std::vector<std::vector<NodeIndex>>& CopysetsFor(int num_nodes,
                                                         int n) const;

  int scatter_width_;
  uint64_t seed_;
  mutable std::vector<std::vector<std::vector<NodeIndex>>> cache_;
  mutable std::vector<std::pair<int, int>> cache_keys_;
};

}  // namespace wt

#endif  // WT_SOFT_PLACEMENT_H_
