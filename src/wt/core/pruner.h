// Dominance-based run ordering and pruning (§4.2, "optimization").
//
// "If a performance SLA cannot be met with a 10Gb network, then it won't be
// met with a 1Gb network, while all other design parameters remain the
// same. Thus, the simulation run with the 10Gb configuration should precede
// the run with the 1Gb configuration." A MonotoneHint declares such a
// dimension; the index orders the grid best-first along hinted dimensions
// and skips any point dominated by an already-failed point. This
// generalizes the paper's one-dimensional example to arbitrarily many
// hinted dimensions.

#ifndef WT_CORE_PRUNER_H_
#define WT_CORE_PRUNER_H_

#include <string>
#include <vector>

#include "wt/core/design_space.h"

namespace wt {

/// How a dimension's value relates to SLA attainment.
enum class MonotoneDirection {
  /// Larger values never hurt (network bandwidth, memory size).
  kHigherIsBetter,
  /// Smaller values never hurt (e.g. background load).
  kLowerIsBetter,
};

/// Declares that moving `dimension` in the better direction can only help
/// every SLA in the query.
struct MonotoneHint {
  std::string dimension;
  MonotoneDirection direction = MonotoneDirection::kHigherIsBetter;
};

/// The static dominance relation of one sweep, built once from its
/// DesignSpace and answered on run ids (positions in order()).
///
/// Point a dominates-or-equals point b when a is equal-or-better on every
/// hinted dimension and equal (`Value::operator==`) on every other one: if
/// a fails its SLA, b must fail too. The hinted test compares goodness
/// doubles (`ToNumeric`, 0.0 for non-numeric values, negated for
/// lower-is-better; the last hint on a dimension sets its direction).
///
/// Equality on the non-hinted dimensions is a bucket. Each dimension's
/// equal candidates (Int 1 and Double 1.0) are merged, and a point's bucket
/// is keyed by its merged non-hinted candidates, so one point can dominate
/// another only inside one bucket. A candidate unequal to itself (NaN)
/// equals nothing, so a point holding one on a non-hinted dimension is in
/// no bucket: it neither dominates nor is dominated. The wavefront build
/// therefore costs the sum over buckets of bucket size squared, not n²,
/// and IsDominated scans only the failures of one bucket.
class DominanceIndex {
 public:
  /// Orders `space` best-first along `hints`. `can_prune` is false when the
  /// sweep cannot prune (no hints, no constraints, or pruning off); then no
  /// buckets are built, the schedule is one wavefront and nothing is
  /// dominated.
  DominanceIndex(const DesignSpace& space,
                 const std::vector<MonotoneHint>& hints, bool can_prune);

  /// Grid indices in run order: run id r is `space.PointAt(order()[r])`.
  /// A stable sort by each point's goodness summed over the hints in list
  /// order (a hint on an absent dimension adds nothing; a repeated hint
  /// adds twice), best first, so dominators precede what they dominate.
  const std::vector<size_t>& order() const { return order_; }

  /// The wavefront (epoch) schedule: waves of ascending run ids, where run
  /// j sits one level above the deepest earlier run that dominates-or-
  /// equals it, or at level 0.
  std::vector<std::vector<size_t>> Wavefronts() const;

  /// Records that run `run_id` failed its SLA.
  void RecordFailure(size_t run_id);

  /// True if some recorded failure dominates-or-equals run `run_id` (so
  /// it, being equal-or-worse everywhere, must fail too).
  bool IsDominated(size_t run_id) const;

 private:
  /// Runs `a` and `b` share a bucket; true if `a` is equal-or-better on
  /// every hinted dimension.
  bool HintedDominates(size_t a, size_t b) const;

  std::vector<size_t> order_;
  size_t num_hinted_ = 0;
  /// Per run id: its bucket, or kNoBucket for a NaN point. Empty when no
  /// buckets are built.
  std::vector<size_t> bucket_;
  /// Per run id, num_hinted_ goodness doubles in dimension order.
  std::vector<double> goodness_;
  /// Per bucket: its run ids ascending, and its recorded failures.
  std::vector<std::vector<size_t>> members_;
  std::vector<std::vector<size_t>> failures_;
};

}  // namespace wt

#endif  // WT_CORE_PRUNER_H_
