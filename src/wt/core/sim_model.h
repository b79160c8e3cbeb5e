// Declarative model interactions (§4.1).
//
// "When a new model is added to the simulator, its interactions with the
// existing models should be declaratively specified." Each model declares
// the simulated resources it reads and writes; the InteractionGraph derives
// which models are independent ("the failure model of the hard disk is
// independent of the failure model of the network switch") and which must
// be co-scheduled. No sweep reads the graph yet: runs execute in parallel
// because each owns a private Simulator. A future intra-run parallel engine
// would partition by the connected components.

#ifndef WT_CORE_SIM_MODEL_H_
#define WT_CORE_SIM_MODEL_H_

#include <string>
#include <vector>

#include "wt/common/result.h"

namespace wt {

/// Declaration of one simulation model and the resources it touches.
/// Resources are opaque ids, e.g. "node0.disk", "network", "placement_map".
struct ModelDecl {
  std::string name;
  std::vector<std::string> reads;
  std::vector<std::string> writes;
};

/// Conflict/independence analysis over model declarations.
class InteractionGraph {
 public:
  /// Registers a model; fails on duplicate names.
  [[nodiscard]] Status AddModel(ModelDecl decl);

  size_t num_models() const { return models_.size(); }
  const std::vector<ModelDecl>& models() const { return models_; }

  /// Two models conflict when one writes a resource the other reads or
  /// writes. Names must exist.
  [[nodiscard]] Result<bool> Conflicts(const std::string& a, const std::string& b) const;

  /// True when the models can run without coordination.
  [[nodiscard]] Result<bool> Independent(const std::string& a, const std::string& b) const {
    auto c = Conflicts(a, b);
    if (!c.ok()) return c.status();
    return !c.value();
  }

  /// Partition of models into maximal groups connected by conflicts. Models
  /// in different groups can be simulated in parallel.
  std::vector<std::vector<std::string>> ConnectedComponents() const;

  /// All models that conflict with `name`.
  [[nodiscard]] Result<std::vector<std::string>> ConflictSet(const std::string& name) const;

 private:
  [[nodiscard]] Result<size_t> IndexOf(const std::string& name) const;
  static bool DeclsConflict(const ModelDecl& a, const ModelDecl& b);

  std::vector<ModelDecl> models_;
};

}  // namespace wt

#endif  // WT_CORE_SIM_MODEL_H_
