// SweepCache: memoizes completed sweeps by their configuration identity so
// repeated what-if queries are answered from the result store in
// microseconds instead of re-simulating (DESIGN.md §8).
//
// The key is the serve-layer cache key — a hex digest over SweepConfigHash
// of the space's points in grid order plus the SLA constraints, the seed,
// the simulation name, the monotone hints, the replication count, and the
// pruning flag (Server::CacheKeyFor). Everything that can change one byte
// of the stored sweep table is in the key; anything applied after the
// sweep (ORDER BY, LIMIT) is not, so queries differing only in
// post-processing share one entry.
//
// Entries are immutable after insertion and the map's nodes give them
// stable addresses, so Lookup hands out raw pointers that stay valid for
// the cache's lifetime — the same discipline ResultStore uses for tables.

#ifndef WT_SERVE_SWEEP_CACHE_H_
#define WT_SERVE_SWEEP_CACHE_H_

#include <cstddef>
#include <map>
#include <shared_mutex>
#include <string>

#include "wt/core/orchestrator.h"

namespace wt {
namespace serve {

/// What one completed sweep left behind: the name of its (immutable) table
/// in the ResultStore, the grid-order config hash of its key (not the
/// manifest's run-order one when the query has hints), and the sweep
/// statistics.
struct CachedSweep {
  std::string table;
  std::string config_hash;
  SweepStats stats;
};

/// Thread-safe map from serve cache key to completed sweep. Insert-only:
/// sweeps are deterministic in their key, so an entry never needs
/// invalidation.
class SweepCache {
 public:
  /// The entry for `key`, or nullptr. The pointer stays valid for the
  /// cache's lifetime; the entry is immutable.
  const CachedSweep* Lookup(const std::string& key) const;

  /// Inserts `value` under `key`; first writer wins (under single-flight
  /// admission there is exactly one). Returns the stored entry.
  const CachedSweep* Insert(const std::string& key, CachedSweep value);

  size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, CachedSweep> entries_;
};

}  // namespace serve
}  // namespace wt

#endif  // WT_SERVE_SWEEP_CACHE_H_
