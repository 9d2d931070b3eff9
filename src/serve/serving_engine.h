#ifndef NAI_SERVE_SERVING_ENGINE_H_
#define NAI_SERVE_SERVING_ENGINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sharded_inference.h"
#include "src/graph/delta.h"
#include "src/serve/batcher.h"
#include "src/serve/qos.h"
#include "src/serve/request_queue.h"
#include "src/serve/result_cache.h"
#include "src/serve/scheduler.h"

namespace nai::serve {

/// Front-end tuning knobs.
struct ServingOptions {
  /// Admission-queue capacity per engine: the one queue holds
  /// queue_capacity * engines requests; TrySubmit sheds above it.
  std::size_t queue_capacity = 1024;
  /// Every pump's batcher runs with this configuration.
  BatcherConfig batcher;
  /// When true, requests whose deadline already passed at batch formation
  /// are completed unserved (prediction -1) instead of burning engine time
  /// on an answer nobody is waiting for.
  bool drop_expired = false;
  /// The adaptive scheduler: per-class priority with aging and the
  /// admission controller (see SchedulerOptions — each mechanism can be
  /// disabled independently).
  SchedulerOptions scheduler;
  /// The epoch-versioned prediction cache (see ResultCache).
  /// Hits bypass the queue, the batcher and the admission controller
  /// entirely; misses fill at batch completion. Disable for A/Bs or when
  /// queries never repeat.
  ResultCacheOptions cache;
};

/// Latency distribution of one request population (milliseconds,
/// admission -> completion). Percentiles are nearest-rank, computed over a
/// sliding window of the most recent kLatencyWindow samples per class so a
/// long-running deployment's stats stay O(1) in memory. `count` is the
/// exact all-time served total of the population; `window` is how many
/// samples the percentile ring currently holds (equal to `count` until the
/// population outgrows kLatencyWindow — after that the percentiles describe
/// recent traffic while `count` keeps the true total).
struct LatencySummary {
  std::int64_t count = 0;   ///< all-time completions of this population
  std::int64_t window = 0;  ///< samples behind the percentiles below
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// A point-in-time copy of the serving counters. Consistent within one
/// snapshot (taken under the stats lock); queue_depth is sampled at
/// snapshot time.
struct ServingStatsSnapshot {
  std::int64_t submitted = 0;        ///< admitted into the queue
  std::int64_t rejected = 0;         ///< shed at admission (full / controller / shut down)
  std::int64_t completed = 0;        ///< served through the engine
  std::int64_t dropped = 0;          ///< expired in queue (drop_expired)
  std::int64_t deadline_misses = 0;  ///< completed or dropped past deadline
  std::size_t queue_depth = 0;       ///< waiting requests in the queue

  LatencySummary latency;  ///< all served requests
  std::array<LatencySummary, kNumQosClasses> per_class;
  std::array<std::int64_t, kNumQosClasses> per_class_misses{};

  /// Result-cache view: completions split by how they were served — a hit
  /// replays a cached result inline at submit time (its latency is the
  /// lookup, microseconds), a miss goes the full queue/batch/engine path.
  /// `per_class_hit[c].count + per_class_miss[c].count == per_class[c].count`.
  std::array<LatencySummary, kNumQosClasses> per_class_hit;
  std::array<LatencySummary, kNumQosClasses> per_class_miss;
  std::int64_t cache_hits = 0;    ///< lookups answered inline
  std::int64_t cache_misses = 0;  ///< lookups that fell through
  double cache_hit_ratio = 0.0;   ///< hits / (hits + misses), 0 when none
  /// The cache's own counters (default-initialized when it is disabled).
  ResultCacheStats cache;

  /// batch_size_hist[s-1] = engine calls that served exactly s requests.
  std::vector<std::int64_t> batch_size_hist;
  std::int64_t num_batches = 0;
  double mean_batch_size = 0.0;

  /// The subset of `rejected` the admission controller turned away with
  /// the queue below capacity (predicted queue delay already past the
  /// request's budget).
  std::int64_t shed_adaptive = 0;
  /// Always 0: nothing is stolen, because every pump drains the one queue.
  /// Kept because perfbench/nai_perfbench.cc reads them.
  std::int64_t stolen_requests = 0;
  std::int64_t steal_fallback_requests = 0;
  /// Requests completed unserved because the engine call serving their
  /// batch threw; the pump keeps serving after it.
  std::int64_t engine_errors = 0;
  /// The controller's adaptation state and the bounded adaptation trace —
  /// how it moved the window/admission limit as the arrival process
  /// changed, and which engine served each batch.
  SchedulerSnapshot scheduler;
  std::vector<SchedulerTraceEvent> adaptation_trace;

  /// Graph-churn counters. `epoch` is the graph version (snapshot version)
  /// the engine was serving when the snapshot was taken; `snapshot_swaps`
  /// counts completed ApplyDeltas swaps; `stale_served` counts completions
  /// answered under an older graph version than the engine had already
  /// moved to at completion time (batches that pinned a pre-swap state,
  /// plus cache hits replayed in the swap-to-bump window) — the staleness
  /// measure of the update-churn bench. Compare a Response::epoch against
  /// `epoch` for the per-request view.
  std::uint64_t epoch = 0;
  std::int64_t snapshot_swaps = 0;
  std::int64_t stale_served = 0;

  /// Storage-backend view of the snapshot being served. Mapped/resident
  /// bytes sum the snapshot stores' adjacency and feature sections; for
  /// the mmap backend resident_bytes is the mincore(2)-measured working
  /// set of the mapped store file (`store_residency_exact` = true), for
  /// the mem backend it equals mapped_bytes (everything is heap-resident,
  /// exact = false).
  std::string store_backend;
  std::int64_t store_mapped_bytes = 0;
  std::int64_t store_resident_bytes = 0;
  bool store_residency_exact = false;

  /// The engine counters of every served batch, merged via
  /// InferenceStats::Accumulate (num_nodes = served requests; wall_time_ms
  /// is the summed per-batch engine time, not elapsed time).
  core::InferenceStats engine_stats;
};

/// What one completed ApplyDeltas resolves to (through its future).
struct DeltaApplyReport {
  std::uint64_t version = 0;        ///< snapshot version now serving
  graph::SnapshotBuildStats build;  ///< incremental-merge accounting
  double apply_ms = 0.0;            ///< build + swap + epoch bump wall time
};

/// The streaming serving front-end: admission queue, dynamic batching,
/// QoS-class resolution and adaptive scheduling over a sharded NAI engine.
///
/// One RequestQueue and one ResultCache, drained by one pump thread per
/// shard engine (every shard engine serves the whole snapshot, so any
/// engine answers any node). Each pump coalesces queued requests into
/// batches with its own DynamicBatcher (in the queue's priority order when
/// SchedulerOptions::priority is on) and serves each batch on its engine
/// with one per-query-config call (NaiEngine::InferMixed), so traffic
/// classes co-exist in a batch yet are each served with their own
/// InferenceConfig. An idle pump takes the oldest work at once, so the
/// engines share the load however it falls on the graph. Completion
/// fulfils the request's future and invokes its callback on the serving
/// pump thread.
///
/// Scheduling (see SchedulerOptions):
///   * priority — speed-first bypasses queued accuracy-first work,
///     aging-bounded so the bypassed class cannot starve;
///   * admission control — arrival/service EWMAs retune every batcher's
///     coalescing window and shed TrySubmits whose predicted queue delay
///     already exceeds their deadline budget.
///
/// Determinism: a request's prediction and exit depth are per-node
/// quantities of its resolved config — bit-identical to a direct
/// (Sharded)NaiEngine::Infer of the same node under that config, no matter
/// how requests were batched, interleaved with other traffic, bypassed by
/// a higher class, or which engine served them.
///
/// Shutdown is graceful: the queue closes (new submissions are rejected),
/// every admitted request is still served, pumps drain and join. The
/// destructor calls Shutdown(). The wrapped engine must outlive this
/// object, and direct Infer calls on it must not overlap in-flight requests
/// (the shard engines' samplers are not thread-safe).
class ServingEngine {
 public:
  /// Latency samples retained per QoS class for the percentile window.
  static constexpr std::size_t kLatencyWindow = 16384;

  /// Throws std::invalid_argument when a policy's config cannot be served
  /// by the engine's shards (ShardedNaiEngine::ValidateConfig — the pumps
  /// bypass its entry points, so the check happens here, once)
  /// or when `options` is degenerate (zero queue capacity or batch size,
  /// negative wait, out-of-range scheduler knobs) — everything is
  /// validated on the caller's thread before any pump spawns.
  ServingEngine(core::ShardedNaiEngine& engine, QosPolicyTable policies,
                ServingOptions options = {});
  ~ServingEngine();
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Blocking admission (backpressure): waits for queue space, returns the
  /// response future. A current-epoch cache hit short-circuits all of that
  /// and returns an already-ready future from the submitting thread. After
  /// Shutdown the future is immediately ready with served = false.
  /// `deadline_ms` <= 0 uses the class policy's default. Throws
  /// std::out_of_range for nodes outside the graph.
  std::future<Response> Submit(std::int32_t node, QosClass qos,
                               double deadline_ms = 0.0);

  /// Non-blocking admission: nullopt when the queue is full, the
  /// admission controller predicts the request would miss its deadline in
  /// the queue (shed load upstream), or the engine is shut down. A cache
  /// hit is consulted *before* admission, so a warm node can never be shed.
  std::optional<std::future<Response>> TrySubmit(std::int32_t node,
                                                 QosClass qos,
                                                 double deadline_ms = 0.0);

  /// Blocking admission with a completion callback (invoked on the pump
  /// thread after the future is fulfilled — or inline on the submitting
  /// thread for a cache hit). False when rejected; the callback still
  /// fires with the unserved response.
  bool SubmitWithCallback(std::int32_t node, QosClass qos,
                          std::function<void(const Response&)> callback,
                          double deadline_ms = 0.0);

  /// Applies one delta batch to the live graph without pausing serving:
  /// builds the next snapshot incrementally (SnapshotBuilder) on a
  /// background ingest thread, swaps it into every shard engine
  /// (ShardedNaiEngine::SwapSnapshot — batches already in flight finish on
  /// the version they pinned), then bumps the cache epoch so no pre-swap
  /// result is ever replayed. The returned future resolves once the swap
  /// and bump are visible; it carries the new version and the builder's
  /// incremental accounting (or the builder's exception on an invalid
  /// delta, in which case the serving state is unchanged). Calls
  /// serialize: a new call first waits out the previous apply. After
  /// Shutdown the future carries a std::runtime_error and the engine is
  /// left untouched.
  std::future<DeltaApplyReport> ApplyDeltas(graph::GraphDelta delta);

  /// Closes admission, serves everything already queued, joins the pump
  /// threads (and any in-flight ApplyDeltas ingest thread). Idempotent.
  void Shutdown();

  /// Advances the cache's epoch, logically emptying it in O(1).
  /// Call after mutating the wrapped engine's graph/model state (features,
  /// classifier bank, gates) so no stale result is ever replayed; in-flight
  /// batches computed under the old epoch will not fill (see
  /// ResultCache::Insert). No-op when the cache is disabled.
  void BumpEpoch();

  ServingStatsSnapshot Stats() const;

  const QosPolicyTable& policies() const { return policies_; }
  const ServingOptions& options() const { return options_; }
  core::ShardedNaiEngine& engine() { return *engine_; }

 private:
  struct Counters;

  Request MakeRequest(std::int32_t node, QosClass qos, double deadline_ms);
  double BudgetMs(QosClass qos, double deadline_ms) const;
  /// Throws std::out_of_range for a node outside the served graph.
  void CheckNode(std::int32_t node) const;
  /// The pre-admission cache probe shared by every submit entry point:
  /// returns the inline Response for a current-epoch hit, nullopt on miss
  /// / cache disabled / shut down. A hit is counted as submitted +
  /// completed (never as an arrival — it carries no information about the
  /// queue/batch process the controller models).
  std::optional<Response> TryServeFromCache(std::int32_t node, QosClass qos,
                                            double deadline_ms);
  void Complete(Request& request, Response response);
  void Reject(Request& request);
  /// The loop of the pump that owns shard engine `engine`: batches from
  /// the queue through `batcher` and serves them until the queue is closed
  /// and drained. Each pump is the only serving caller of its engine.
  void Pump(DynamicBatcher& batcher, std::size_t engine);
  /// Serves `batch` on shard engine `engine`. Handles drop_expired, stats,
  /// cache fills, engine errors and completion. `state` is the pinned
  /// engine state the whole batch runs against — the caller pins it once
  /// per batch, which is what makes a snapshot swap land atomically
  /// between batches. `applied_wait_us` is the coalescing window the batch
  /// actually formed under, forwarded into the adaptation trace.
  void ServeBatch(
      const std::shared_ptr<const core::ShardedNaiEngine::ShardState>& state,
      std::size_t engine, std::vector<Request> batch,
      std::int64_t applied_wait_us);

  core::ShardedNaiEngine* engine_;
  QosPolicyTable policies_;
  ServingOptions options_;

  std::unique_ptr<RequestQueue> queue_;
  /// nullptr when ServingOptions::cache.enabled is false. Client threads
  /// probe it in the submit path; pump threads fill it at batch completion.
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<AdmissionController> controller_;
  /// One per pump. Built in the constructor so a degenerate BatcherConfig
  /// throws to the caller, not on a pump thread.
  std::vector<std::unique_ptr<DynamicBatcher>> batchers_;
  std::vector<std::thread> pumps_;

  /// Guards shut_down_ and the ApplyDeltas ingest thread. At most one
  /// ingest thread is alive: ApplyDeltas joins the previous one before
  /// spawning the next, which both bounds resources and serializes applies
  /// without a long-held lock; Shutdown joins whatever is left, and no
  /// ApplyDeltas spawns one after it.
  std::mutex ingest_mu_;
  bool shut_down_ = false;
  std::thread ingest_;

  std::unique_ptr<Counters> stats_;
};

}  // namespace nai::serve

#endif  // NAI_SERVE_SERVING_ENGINE_H_
