#include "wt/soft/availability_static.h"

#include <algorithm>
#include <numeric>

#include "wt/common/macros.h"
#include "wt/common/string_util.h"

namespace wt {

namespace {

// The users of one placement layout, collapsed into distinct replica sets
// with their multiplicities, plus for every node the sets with a fragment on
// it, so a trial visits only the sets on its failed nodes. A find-or-insert
// hash table keyed on the set's node mask (⌈N/64⌉ words, node i at bit
// i % 64 of word i / 64; open addressing, linear probing, at most half
// full) dedups as the users are placed.
class ReplicaSets {
 public:
  ReplicaSets(int num_nodes, int64_t max_sets)
      : words_((num_nodes + 63) / 64),
        sets_on_node_(static_cast<size_t>(num_nodes)) {
    while ((int64_t{1} << log2_slots_) < 2 * max_sets) ++log2_slots_;
    slots_.assign(size_t{1} << log2_slots_, kEmpty);
  }

  int words() const { return words_; }

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    masks_.clear();
    users_.clear();
    for (std::vector<uint32_t>& sets : sets_on_node_) sets.clear();
  }

  // Counts one more user placed on `nodes`, whose node mask is `mask`.
  void Add(const uint64_t* mask, const std::vector<NodeIndex>& nodes) {
    uint64_t h = 0;
    for (int w = 0; w < words_; ++w) h = (h + mask[w]) * 0x9E3779B97F4A7C15ULL;
    size_t i = static_cast<size_t>(h >> (64 - log2_slots_));
    for (; slots_[i] != kEmpty; i = (i + 1) & (slots_.size() - 1)) {
      const uint32_t s = slots_[i];
      if (std::equal(mask, mask + words_,
                     &masks_[s * static_cast<size_t>(words_)])) {
        ++users_[s];
        return;
      }
    }
    const auto s = static_cast<uint32_t>(users_.size());
    slots_[i] = s;
    masks_.insert(masks_.end(), mask, mask + words_);
    users_.push_back(1);
    for (NodeIndex n : nodes) {
      sets_on_node_[static_cast<size_t>(n)].push_back(s);
    }
  }

  size_t size() const { return users_.size(); }
  int64_t users(size_t s) const { return users_[s]; }
  const std::vector<uint32_t>& sets_on(NodeIndex node) const {
    return sets_on_node_[static_cast<size_t>(node)];
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  int words_;
  int log2_slots_ = 1;
  std::vector<uint32_t> slots_;   // set index, or kEmpty
  std::vector<uint64_t> masks_;   // words_ per set, set-major
  std::vector<int64_t> users_;    // multiplicity per set
  std::vector<std::vector<uint32_t>> sets_on_node_;
};

}  // namespace

StaticAvailabilityPoint EstimateStaticUnavailability(
    const RedundancyScheme& scheme, const PlacementPolicy& placement,
    const StaticAvailabilityConfig& config, int failures) {
  WT_CHECK(failures >= 0 && failures <= config.num_nodes);
  const int nf = scheme.num_fragments();
  WT_CHECK(nf <= config.num_nodes)
      << "scheme needs " << nf << " nodes, cluster has " << config.num_nodes;
  StaticAvailabilityPoint point;
  point.failures = failures;

  // Whether an object with k of its nf fragments on down nodes is
  // unavailable / lost; `fewest_failed` is the smallest k that is either.
  std::vector<int> unavailable(static_cast<size_t>(nf) + 1);
  std::vector<int> lost(static_cast<size_t>(nf) + 1);
  int fewest_failed = nf + 1;
  for (int k = nf; k >= 0; --k) {
    const auto i = static_cast<size_t>(k);
    unavailable[i] = scheme.Available(nf - k) ? 0 : 1;
    lost[i] = scheme.Durable(nf - k) ? 0 : 1;
    if (unavailable[i] + lost[i] > 0) fewest_failed = k;
  }
  // What one more failed fragment changes for an object with k of them.
  std::vector<int> unavailable_step(static_cast<size_t>(nf));
  std::vector<int> lost_step(static_cast<size_t>(nf));
  for (size_t k = 0; k < static_cast<size_t>(nf); ++k) {
    unavailable_step[k] = unavailable[k + 1] - unavailable[k];
    lost_step[k] = lost[k + 1] - lost[k];
  }

  // No object has more failed fragments than there are failed nodes, so
  // below `fewest_failed` no trial can hit and no draw can matter.
  if (failures < fewest_failed) {
    if (config.placement_samples > 0 && config.trials_per_placement > 0) {
      point.trials = int64_t{config.placement_samples} *
                     config.trials_per_placement;
    }
    return point;
  }

  RngStream root(config.seed);
  int64_t hits = 0;
  int64_t loss_hits = 0;
  double unavailable_fraction_sum = 0.0;
  int64_t trials = 0;

  ReplicaSets sets(config.num_nodes, config.num_users);
  std::vector<NodeIndex> nodes;
  std::vector<NodeIndex> scratch;
  std::vector<uint64_t> mask(static_cast<size_t>(sets.words()));
  std::vector<int> set_failed;  // per set: fragments on this trial's down nodes

  for (int ps = 0; ps < config.placement_samples; ++ps) {
    // One placement layout, drawn object by object exactly as a
    // StorageService would. Randomized policies are resampled; a policy
    // that never draws builds the same layout every sample, so it is built
    // once.
    if (ps == 0 || placement.randomized()) {
      RngStream place_rng = root.Substream(StrFormat("placement-%d", ps));
      sets.Clear();
      for (ObjectId o = 0; o < config.num_users; ++o) {
        placement.Place(o, nf, config.num_nodes, place_rng, nodes);
        WT_CHECK(static_cast<int>(nodes.size()) == nf)
            << placement.name() << " must place " << nf
            << " fragments on distinct nodes";
        std::fill(mask.begin(), mask.end(), 0);
        for (NodeIndex n : nodes) {
          WT_CHECK(n >= 0 && n < config.num_nodes)
              << placement.name() << " placed a fragment on node " << n;
          uint64_t& word = mask[static_cast<size_t>(n >> 6)];
          const uint64_t bit = uint64_t{1} << (n & 63);
          WT_CHECK((word & bit) == 0)
              << placement.name() << " must place " << nf
              << " fragments on distinct nodes";
          word |= bit;
        }
        sets.Add(mask.data(), nodes);
      }
      set_failed.assign(sets.size(), 0);
    }

    RngStream fail_rng = root.Substream(StrFormat("failures-%d", ps));
    for (int t = 0; t < config.trials_per_placement; ++t) {
      // Partial Fisher–Yates over the identity permutation: slot i holds
      // the i-th failed node once step i has run. Only the sets on a failed
      // node are visited; each visit moves one set from k to k + 1 failed
      // fragments and updates the unavailable users and lost sets.
      int64_t unavailable_users = unavailable[0] * config.num_users;
      int64_t lost_sets = lost[0] * static_cast<int64_t>(sets.size());
      scratch.resize(static_cast<size_t>(config.num_nodes));
      std::iota(scratch.begin(), scratch.end(), 0);
      for (int i = 0; i < failures; ++i) {
        int64_t j = fail_rng.UniformInt(i, config.num_nodes - 1);
        std::swap(scratch[static_cast<size_t>(i)],
                  scratch[static_cast<size_t>(j)]);
        for (uint32_t s : sets.sets_on(scratch[static_cast<size_t>(i)])) {
          const auto k = static_cast<size_t>(set_failed[s]++);
          unavailable_users += unavailable_step[k] * sets.users(s);
          lost_sets += lost_step[k];
        }
      }
      for (int i = 0; i < failures; ++i) {
        for (uint32_t s : sets.sets_on(scratch[static_cast<size_t>(i)])) {
          set_failed[s] = 0;
        }
      }
      if (unavailable_users > 0) {
        ++hits;
        unavailable_fraction_sum +=
            static_cast<double>(unavailable_users) /
            static_cast<double>(config.num_users);
        // Loss implies unavailability, so only hit trials count it.
        if (lost_sets > 0) ++loss_hits;
      }
      ++trials;
    }
  }

  point.trials = trials;
  point.p_any_unavailable =
      trials > 0 ? static_cast<double>(hits) / static_cast<double>(trials)
                 : 0.0;
  point.mean_unavailable_fraction =
      trials > 0 ? unavailable_fraction_sum / static_cast<double>(trials)
                 : 0.0;
  point.p_any_lost =
      trials > 0 ? static_cast<double>(loss_hits) / static_cast<double>(trials)
                 : 0.0;
  return point;
}

std::vector<StaticAvailabilityPoint> StaticUnavailabilityCurve(
    const RedundancyScheme& scheme, const PlacementPolicy& placement,
    const StaticAvailabilityConfig& config, int max_failures) {
  std::vector<StaticAvailabilityPoint> curve;
  curve.reserve(static_cast<size_t>(max_failures + 1));
  for (int f = 0; f <= max_failures; ++f) {
    StaticAvailabilityConfig cfg = config;
    cfg.seed = config.seed + static_cast<uint64_t>(f) * 7919;
    curve.push_back(
        EstimateStaticUnavailability(scheme, placement, cfg, f));
  }
  return curve;
}

}  // namespace wt
