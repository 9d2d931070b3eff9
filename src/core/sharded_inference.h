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

/// Serves Algorithm-1 inference from a partitioned graph: one NaiEngine per
/// shard, each with a dedicated thread pool (an equal slice of the total),
/// queries routed to their owning shard and all shards running concurrently.
/// This is the one place batches run concurrently: a NaiEngine runs its
/// batches one after another, so k shards are k concurrent batch streams.
///
/// A shard is an ownership set, not a subgraph. Every shard engine is built
/// with NaiEngine::FromSnapshot over the one snapshot, so it is the
/// unsharded engine: it reads adjacency and features through the
/// snapshot's (possibly memory-mapped) stores, local ids are global ids,
/// and any shard engine can serve any node. No shard holds a private copy
/// of the graph, the features or the normalized adjacency.
///
/// Determinism contract (bit-exact, any shard count, any thread count):
/// predictions, exit depths, the exit histogram and the nap/stationary/
/// classification MAC counters all equal the unsharded engine's on the same
/// query list — they are per-node quantities. propagation_macs counts the
/// *shared* supporting-set work of each batch and is therefore a function
/// of the batch decomposition: each shard batches its routed sub-list with
/// config.batch_size, so it equals the unsharded engine run on those same
/// batches — exactly equal to the unsharded run of the original list
/// whenever batch boundaries align with shard boundaries (one shard,
/// batch_size 1, or a partition-aligned query order).
///
/// Per-shard stats are merged in shard order via InferenceStats::Accumulate;
/// num_nodes and wall_time_ms are set exactly once by this class (the
/// per-shard values describe sub-runs and are never summed).
///
/// Evolving graphs: everything derived from one graph version — the
/// sharding and the shard engines — lives in one immutable ShardState
/// behind a shared_ptr. SwapSnapshot(new_snapshot) builds the replacement
/// state off the serving path and publishes it atomically, so readers that
/// pinned the old state finish their batch on the graph version they
/// started with while new batches see the new one. Serving never pauses;
/// the old state is reclaimed when its last pinned reader drops it. Thread
/// pools persist across swaps (they carry no graph state).
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
    /// The owner map queries route by; perfbench/nai_perfbench.cc reads it.
    graph::ShardedGraph sharded;
    /// The snapshot's feature store. Kept because
    /// perfbench/nai_perfbench.cc reads it.
    std::shared_ptr<const storage::FeatureStore> base_features;
    /// One null entry per shard (shard engines read base_features). Kept
    /// because perfbench/nai_perfbench.cc reads it.
    std::vector<std::shared_ptr<const storage::FeatureStore>> shard_features;
    /// One FromSnapshot engine per owning shard (null for empty shards);
    /// perfbench/nai_perfbench.cc reads it.
    std::vector<std::unique_ptr<NaiEngine>> engines;
  };

  /// Serves `snapshot` (any storage backend), which provides — and keeps
  /// alive — the graph, features, normalized adjacency and pooled
  /// stationary vector. `sharded` must partition the snapshot's graph;
  /// `classifiers` and `gates` are full-graph-scoped, exactly as for
  /// NaiEngine (this class derives per-shard views internally).
  /// `use_stationary` = false skips the stationary views (NapKind::kNone-
  /// only serving). `total_threads` is divided evenly across shard pools
  /// (minimum one thread each); <= 0 uses the default pool's size. Throws
  /// nai::ValidationError on a null snapshot, or when `sharded` does not
  /// match the snapshot's graph or has no shards.
  ShardedNaiEngine(std::shared_ptr<const graph::GraphSnapshot> snapshot,
                   graph::ShardedGraph sharded, ClassifierStack& classifiers,
                   const GateStack* gates, bool use_stationary = true,
                   int total_threads = 0);

  /// Atomically retargets the engine at `snapshot` (which must extend the
  /// current graph: node count can only grow, and existing owners never
  /// move). New nodes are assigned to the shard owning the
  /// majority of their already-assigned neighbors (ties to the lowest
  /// shard id; isolated nodes round-robin by id), the shard engines are
  /// rebuilt over the new snapshot off the serving path, and the new
  /// state is published in one pointer swap. In-flight readers keep the
  /// state they pinned; there is no pause. Safe to call concurrently with
  /// Infer/InferMixed; concurrent SwapSnapshot calls serialize. Throws
  /// nai::ValidationError on a null or shrinking snapshot.
  void SwapSnapshot(std::shared_ptr<const graph::GraphSnapshot> snapshot);

  /// Pins the current state: the returned handle stays valid (and its
  /// graph version fixed) for as long as the caller holds it, regardless
  /// of concurrent swaps. The serving front-end pins one state per batch.
  std::shared_ptr<const ShardState> PinState() const;

  /// The graph version currently being served.
  std::uint64_t version() const { return PinState()->version; }

  /// Classifies `nodes` (global ids): InferMixed with `config` on every
  /// query, except that the exit histogram has t_max slots even for an
  /// empty list. Thread-compatible but not thread-safe, like
  /// NaiEngine::Infer. Pins one state for the whole call. Throws
  /// nai::ValidationError when ValidateConfig rejects `config` and
  /// std::out_of_range for query ids outside the graph.
  InferenceResult Infer(const std::vector<std::int32_t>& nodes,
                        const InferenceConfig& config);

  /// Per-query-config counterpart of Infer (see NaiEngine::InferMixed):
  /// routes each query to its owning shard, where queries sharing a config
  /// are co-batched. Same determinism contract as Infer per config group;
  /// same thread-compatibility and throws, applied to every distinct
  /// config.
  InferenceResult InferMixed(const std::vector<ConfiguredQuery>& queries);

  /// Attaches (nullptr: detaches) the INT8 classifier bank configs with
  /// `int8_classifier` resolve to, on every current shard engine and —
  /// because the attachment is carried through BuildState — every engine a
  /// later SwapSnapshot builds. The stack is full-graph-scoped and
  /// borrowed; it must outlive the engine. Call during setup, before
  /// serving traffic arrives (the per-engine attach is not synchronized
  /// against in-flight Infer calls on the same shard).
  void AttachQuantizedClassifiers(QuantizedClassifierStack* quantized);
  const QuantizedClassifierStack* quantized_classifiers() const {
    return quantized_;
  }

  /// Checks that this engine can serve `config`: a config that requests
  /// the int8 classifier needs an attached quantized stack, a NAPd/NAPg
  /// config needs the stationary views (use_stationary) and a NAPg config
  /// needs gates. Throws nai::ValidationError otherwise. Infer/InferMixed call this on every
  /// config; the serving front-end calls it once per QoS policy at
  /// construction, because it bypasses the routed entry points and pumps
  /// the shard engines directly.
  void ValidateConfig(const InferenceConfig& config) const;

  /// The classifier bank's depth k — the deepest T_max any config can
  /// resolve to (InferenceConfig::effective_t_max).
  int depth() const { return classifiers_->depth(); }

  std::size_t num_shards() const { return num_shards_; }
  int threads_per_shard() const { return threads_per_shard_; }
  /// The current state's sharding. The reference stays valid until the
  /// next SwapSnapshot; callers that must stay consistent across swaps pin
  /// the state instead.
  const graph::ShardedGraph& sharded_graph() const {
    return CurrentState().sharded;
  }
  /// `s` must own at least one node: shards a custom owner vector left
  /// empty can never be queried and get no engine (or pool, or thread
  /// slice). Same lifetime caveat as sharded_graph() — pin the state for
  /// churn-safe access.
  NaiEngine& shard_engine(std::size_t s) { return *CurrentState().engines[s]; }

 private:
  /// The current state by reference; kept alive by the engine's own handle
  /// until the next swap (callers needing longer pin it).
  const ShardState& CurrentState() const;
  /// The one route/scatter/merge path behind Infer and InferMixed, for
  /// already-validated configs: routes each query to its owning shard and
  /// runs the non-empty shards concurrently, each through its engine's
  /// InferMixed.
  InferenceResult InferRouted(const std::vector<ConfiguredQuery>& queries);
  /// Builds a complete state for `sharded` over `snapshot`. Creates any
  /// missing shard pools as a side effect.
  std::shared_ptr<const ShardState> BuildState(
      std::shared_ptr<const graph::GraphSnapshot> snapshot,
      graph::ShardedGraph sharded);

  ClassifierStack* classifiers_;
  QuantizedClassifierStack* quantized_ = nullptr;
  const GateStack* gates_;
  bool use_stationary_;
  std::size_t num_shards_;
  int threads_per_shard_;
  /// One pool per owning shard, created on first need and persistent
  /// across swaps: engines of successive states share their shard's pool,
  /// so a swap never tears down worker threads. Only mutated under
  /// swap_mu_ (or in the constructor); never shrunk.
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools_;
  /// Serializes SwapSnapshot callers (state builds happen outside
  /// state_mu_ so readers never wait on a rebuild).
  std::mutex swap_mu_;
  mutable std::mutex state_mu_;
  std::shared_ptr<const ShardState> state_;
};

}  // namespace nai::core

#endif  // NAI_CORE_SHARDED_INFERENCE_H_
