#ifndef NAI_CORE_SHARDED_INFERENCE_H_
#define NAI_CORE_SHARDED_INFERENCE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/inference.h"
#include "src/graph/delta.h"
#include "src/graph/shard.h"
#include "src/runtime/thread_pool.h"
#include "src/storage/store.h"

namespace nai::core {

/// Serves Algorithm-1 inference with N identical NaiEngine replicas over
/// one snapshot, each on its own thread pool (an equal slice of the
/// total). InferMixed forms exactly the batches the unsharded engine would
/// and hands batch i to engine i mod N, so the engines run concurrently.
/// This is the one place batches run concurrently: a NaiEngine runs its
/// batches one after another, so N engines are N concurrent batch streams.
///
/// Every engine is built with NaiEngine::FromSnapshot over the one
/// snapshot: it reads adjacency and features through the snapshot's
/// (possibly memory-mapped) stores and can serve any node. No engine holds
/// a private copy of the graph, the features or the normalized adjacency.
/// The "shards" of the constructor's ShardedGraph set only the engine
/// count; nothing routes by owner.
///
/// Determinism contract (bit-exact, any shard count, any thread count, any
/// batch size or query order): predictions, exit depths and every integer
/// stat — the exit histogram and all MAC counters, propagation_macs
/// included — equal NaiEngine::InferMixed's on the same query list, because
/// the batches are the same batches. Per-batch stats are merged in batch
/// order via InferenceStats::Accumulate; num_nodes and wall_time_ms are set
/// exactly once by this class.
///
/// Evolving graphs: everything derived from one graph version — the
/// sharding and the engines — lives in one immutable ShardState behind a
/// shared_ptr. SwapSnapshot(new_snapshot) builds the replacement state off
/// the serving path and publishes it atomically, so readers that pinned
/// the old state finish their batch on the graph version they started with
/// while new batches see the new one. Serving never pauses; the old state
/// is reclaimed when its last pinned reader drops it. Thread pools persist
/// across swaps (they carry no graph state).
class ShardedNaiEngine {
 public:
  /// Everything derived from one graph version. Immutable after
  /// construction and shared by pin; the engine's own entry points pin it
  /// once per call, and the serving front-end pins one state per batch so
  /// a whole batch runs on one graph version.
  struct ShardState {
    /// The snapshot this state was built from.
    std::shared_ptr<const graph::GraphSnapshot> snapshot;
    /// Graph version served by this state (snapshot->version).
    std::uint64_t version = 0;
    /// A partition of the snapshot's nodes into num_shards() ranges.
    /// Nothing routes by it; kept because perfbench/nai_perfbench.cc reads
    /// it.
    graph::ShardedGraph sharded;
    /// The snapshot's feature store. Kept because
    /// perfbench/nai_perfbench.cc reads it.
    std::shared_ptr<const storage::FeatureStore> base_features;
    /// One null entry per engine (engines read base_features). Kept
    /// because perfbench/nai_perfbench.cc reads it.
    std::vector<std::shared_ptr<const storage::FeatureStore>> shard_features;
    /// num_shards() FromSnapshot engines over `snapshot`, engine i on pool
    /// i. The serving front-end runs one pump per engine.
    std::vector<std::unique_ptr<NaiEngine>> engines;
  };

  /// Serves `snapshot` (any storage backend), which provides — and keeps
  /// alive — the graph, features, normalized adjacency and pooled
  /// stationary vector, with one engine per shard of `sharded`, which must
  /// partition the snapshot's graph. `classifiers`, `gates` and
  /// `use_stationary` are passed to every engine as for
  /// NaiEngine::FromSnapshot (use_stationary = false: NapKind::kNone-only
  /// serving). `total_threads` is divided evenly across the engines' pools
  /// (minimum one thread each); <= 0 uses the default pool's size. Throws
  /// nai::ValidationError on a null snapshot, when `sharded` does not match
  /// the snapshot's graph or has no shards, or when `use_stationary` is set
  /// but the snapshot's store carries no pooled stationary vector.
  ShardedNaiEngine(std::shared_ptr<const graph::GraphSnapshot> snapshot,
                   graph::ShardedGraph sharded, ClassifierStack& classifiers,
                   const GateStack* gates, bool use_stationary = true,
                   int total_threads = 0);

  /// Atomically retargets the engine at `snapshot`, which must extend the
  /// current graph (node count can only grow). The engines are rebuilt
  /// over the new snapshot off the serving path, and the new state
  /// (sharded = MakeShards of the new graph) is published in one pointer
  /// swap. In-flight readers keep the state they pinned; there is no
  /// pause. Safe to call concurrently with Infer/InferMixed; concurrent
  /// SwapSnapshot calls serialize. Throws nai::ValidationError on a null or
  /// shrinking snapshot.
  void SwapSnapshot(std::shared_ptr<const graph::GraphSnapshot> snapshot);

  /// Pins the current state: the returned handle stays valid (and its
  /// graph version fixed) for as long as the caller holds it, regardless
  /// of concurrent swaps. The serving front-end pins one state per batch.
  std::shared_ptr<const ShardState> PinState() const;

  /// The graph version currently being served.
  std::uint64_t version() const { return PinState()->version; }

  /// Classifies `nodes` (global ids): InferMixed with `config` on every
  /// query, except that the exit histogram has t_max slots even for an
  /// empty list (as NaiEngine::Infer's). Thread-compatible but not
  /// thread-safe, like NaiEngine::Infer. Pins one state for the whole call.
  /// Throws nai::ValidationError when ValidateConfig rejects `config` and
  /// std::out_of_range for query ids outside the graph.
  InferenceResult Infer(const std::vector<std::int32_t>& nodes,
                        const InferenceConfig& config);

  /// Per-query-config counterpart of Infer: groups the queries with
  /// GroupByConfig, cuts each group into config.batch_size batches and runs
  /// batch i on engine i mod N (see the class comment). Every distinct
  /// config and every query id is checked before any engine starts; same
  /// thread-compatibility and throws as Infer, plus nai::ValidationError on
  /// a null config pointer.
  InferenceResult InferMixed(const std::vector<ConfiguredQuery>& queries);

  /// Attaches (nullptr: detaches) the INT8 classifier bank configs with
  /// `int8_classifier` resolve to, on every current engine and — because
  /// the attachment is carried through BuildState — every engine a later
  /// SwapSnapshot builds. The stack is full-graph-scoped and borrowed; it
  /// must outlive the engine. Call during setup, before serving traffic
  /// arrives (the per-engine attach is not synchronized against in-flight
  /// Infer calls).
  void AttachQuantizedClassifiers(QuantizedClassifierStack* quantized);

  /// NaiEngine::ValidateConfig of the engines (they are identical). Infer
  /// and InferMixed call this on every config; the serving front-end calls
  /// it once per QoS policy at construction, because it bypasses those
  /// entry points and pumps the engines directly.
  void ValidateConfig(const InferenceConfig& config) const;

  /// The classifier bank's depth k — the deepest T_max any config can
  /// resolve to (InferenceConfig::effective_t_max).
  int depth() const { return classifiers_->depth(); }

  std::size_t num_shards() const { return pools_.size(); }
  int threads_per_shard() const { return threads_per_shard_; }

 private:
  /// Builds a complete state for `sharded` over `snapshot`: one engine per
  /// pool.
  std::shared_ptr<const ShardState> BuildState(
      std::shared_ptr<const graph::GraphSnapshot> snapshot,
      graph::ShardedGraph sharded) const;

  ClassifierStack* classifiers_;
  /// What every engine is built with; ctx.pool is set per engine.
  EngineOptions options_;
  int threads_per_shard_;
  /// One pool per engine, persistent across swaps: engine i of every state
  /// runs on pools_[i], so a swap never tears down worker threads.
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools_;
  /// Serializes SwapSnapshot callers (state builds happen outside
  /// state_mu_ so readers never wait on a rebuild).
  std::mutex swap_mu_;
  mutable std::mutex state_mu_;
  std::shared_ptr<const ShardState> state_;
};

}  // namespace nai::core

#endif  // NAI_CORE_SHARDED_INFERENCE_H_
