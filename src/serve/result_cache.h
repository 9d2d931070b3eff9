#ifndef NAI_SERVE_RESULT_CACHE_H_
#define NAI_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/core/inference.h"

namespace nai::serve {

/// Tuning of a ServingEngine's prediction cache.
struct ResultCacheOptions {
  bool enabled = true;
  /// Entries retained per engine before LRU eviction kicks in: the one
  /// cache of a ServingEngine holds capacity * engines entries. Must be
  /// positive when `enabled` (ServingEngine validates at construction).
  std::size_t capacity = 4096;
};

/// What a cache hit replays: the two per-node outputs of Algorithm 1. Both
/// are pure functions of (node, config, graph/model epoch), which is what
/// makes replaying them bit-identical to a cold Infer at the same epoch.
struct CachedResult {
  std::int32_t prediction = -1;
  std::int32_t exit_depth = -1;
  /// The graph epoch (snapshot version) the entry was computed under —
  /// replayed into Response::epoch so a hit is attributable to the graph
  /// version that produced it.
  std::uint64_t graph_epoch = 0;
};

/// Point-in-time counters of a cache.
struct ResultCacheStats {
  std::int64_t hits = 0;      ///< lookups answered from the cache
  std::int64_t misses = 0;    ///< lookups that fell through (incl. stale)
  std::int64_t fills = 0;     ///< entries written at batch completion
  std::int64_t evictions = 0; ///< LRU evictions at capacity
  /// Fill attempts whose result was computed under an older epoch and
  /// dropped — the churn guard: an in-flight miss must never resurrect a
  /// logically invalidated answer.
  std::int64_t stale_fills_dropped = 0;
  std::uint64_t epoch = 0;    ///< current epoch
  std::size_t size = 0;       ///< resident entries (stale ones included)
  double hit_ratio = 0.0;     ///< hits / (hits + misses), 0 when no lookups
};

/// An epoch-versioned LRU cache of per-node prediction results, keyed by
/// (node id, config identity). One instance per ServingEngine: any engine's
/// fill makes a later lookup for the same key a hit.
///
/// Config identity is the InferenceConfig *pointer*: the serving front-end
/// resolves every request through its QosPolicyTable, so all requests of a
/// class share one stable config object (the same identity InferMixed
/// groups by). Two configs with equal fields but different addresses are
/// distinct keys — exactly as conservative as the engine's own grouping.
///
/// Invalidation is exact and O(1): every entry is stamped with the epoch it
/// was computed under, and BumpEpoch() logically empties the cache without
/// touching entries — a lookup that lands on an older-epoch entry misses
/// (and lazily erases it); a fill whose result was computed under an older
/// epoch is dropped (see Insert). Bump the epoch whenever the graph,
/// features, classifier bank, or gates change.
///
/// The hit path is allocation-free: a hit only reads the entry and splices
/// its node to the LRU front (std::list::splice moves pointers, never
/// allocates). Thread-safety: every method is safe to call concurrently
/// (client threads look up while pump threads fill); one mutex per cache,
/// held for O(1) work.
class ResultCache {
 public:
  /// Throws std::invalid_argument when capacity is zero.
  explicit ResultCache(std::size_t capacity);

  /// Returns the cached result for (node, config) when present *and*
  /// current-epoch; nullopt otherwise. A stale entry found here is erased
  /// (lazy invalidation) and counted as a miss.
  std::optional<CachedResult> Lookup(std::int32_t node,
                                     const core::InferenceConfig* config);

  /// Inserts (or refreshes) an entry computed under `fill_epoch`. Dropped —
  /// counted in stale_fills_dropped — when the epoch has moved on since the
  /// computation started: an in-flight miss must never fill a stale epoch.
  /// Capture the epoch with epoch() *before* the engine call that computes
  /// the result. Evicts the LRU entry at capacity.
  void Insert(std::int32_t node, const core::InferenceConfig* config,
              CachedResult result, std::uint64_t fill_epoch);

  /// The current epoch — capture before computing a result to fill with.
  std::uint64_t epoch() const;

  /// Advances the epoch, logically emptying the cache in O(1): existing
  /// entries stop matching and in-flight fills for the old epoch are
  /// dropped. Entries are reclaimed lazily (stale lookups) or by LRU
  /// eviction.
  void BumpEpoch();

  ResultCacheStats Stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Key {
    std::int32_t node;
    const core::InferenceConfig* config;
    bool operator==(const Key& other) const {
      return node == other.node && config == other.config;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // Pointer identity spread with a Fibonacci multiplier; the node id
      // lands in the low bits. Good enough for one table.
      const std::uint64_t p =
          reinterpret_cast<std::uintptr_t>(k.config) * 0x9e3779b97f4a7c15ull;
      return static_cast<std::size_t>(
          p ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.node)));
    }
  };
  struct Entry {
    Key key;
    CachedResult result;
    std::uint64_t epoch;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::uint64_t epoch_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t fills_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t stale_fills_dropped_ = 0;
};

}  // namespace nai::serve

#endif  // NAI_SERVE_RESULT_CACHE_H_
