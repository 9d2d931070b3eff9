#include "src/serve/serving_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/storage/store.h"

namespace nai::serve {

namespace {

double MsBetween(ServeClock::time_point from, ServeClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// The response of a request that was never served: refused at admission
/// (no times), dropped expired in the queue, or failed by its batch's
/// engine call.
Response Unserved(QosClass qos, double queue_ms = 0.0,
                  double latency_ms = 0.0) {
  Response response;
  response.qos = qos;
  response.queue_ms = queue_ms;
  response.latency_ms = latency_ms;
  return response;
}

std::future<Response> ReadyFuture(Response response) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  promise.set_value(std::move(response));
  return future;
}

LatencySummary Summarize(std::vector<double> latencies) {
  LatencySummary out;
  // `count` defaults to the sample count; callers with an all-time counter
  // overwrite it (the ring forgets, the counter does not). `window` always
  // says how many samples back the percentiles.
  out.count = static_cast<std::int64_t>(latencies.size());
  out.window = static_cast<std::int64_t>(latencies.size());
  if (latencies.empty()) return out;
  std::sort(latencies.begin(), latencies.end());
  double sum = 0.0;
  for (const double v : latencies) sum += v;
  out.mean_ms = sum / static_cast<double>(latencies.size());
  // Nearest-rank percentile: the smallest value with at least q*n values
  // at or below it.
  auto rank = [&](double q) {
    const std::size_t r = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(latencies.size()))));
    return latencies[r - 1];
  };
  out.p50_ms = rank(0.50);
  out.p95_ms = rank(0.95);
  out.p99_ms = rank(0.99);
  out.max_ms = latencies.back();
  return out;
}

}  // namespace

/// Shared counters, written by client threads (admission) and pump threads
/// (completion). One mutex is plenty: per-event work is O(1) and the
/// engine call dominates by orders of magnitude. Latency samples live in a
/// bounded per-class ring (the kLatencyWindow most recent), so memory is
/// O(1) no matter how long the deployment runs; exact totals are plain
/// counters.
struct ServingEngine::Counters {
  std::mutex mu;
  std::int64_t submitted = 0;
  std::int64_t rejected = 0;
  std::int64_t dropped = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t shed_adaptive = 0;
  std::int64_t engine_errors = 0;
  std::array<std::vector<double>, kNumQosClasses> latency_window;
  std::array<std::size_t, kNumQosClasses> latency_next{};  // ring cursor
  /// Hit/miss split of the same completions: a hit was replayed from the
  /// result cache at submit time, a miss went the queue/batch/engine path.
  std::array<std::vector<double>, kNumQosClasses> hit_window;
  std::array<std::size_t, kNumQosClasses> hit_next{};
  std::array<std::vector<double>, kNumQosClasses> miss_window;
  std::array<std::size_t, kNumQosClasses> miss_next{};
  std::array<std::int64_t, kNumQosClasses> completed{};
  std::array<std::int64_t, kNumQosClasses> completed_hits{};
  std::array<std::int64_t, kNumQosClasses> misses{};
  std::vector<std::int64_t> batch_size_hist;
  std::int64_t num_batches = 0;
  std::int64_t batched_requests = 0;
  std::int64_t snapshot_swaps = 0;
  std::int64_t stale_served = 0;
  core::InferenceStats engine_stats;
  std::atomic<std::int64_t> next_id{0};

  static void PushSample(std::vector<double>& window, std::size_t& next,
                         double latency_ms) {
    if (window.size() < ServingEngine::kLatencyWindow) {
      window.push_back(latency_ms);
    } else {
      window[next] = latency_ms;
      next = (next + 1) % window.size();
    }
  }

  void RecordLatency(std::size_t qos, double latency_ms, bool cache_hit) {
    ++completed[qos];
    PushSample(latency_window[qos], latency_next[qos], latency_ms);
    if (cache_hit) {
      ++completed_hits[qos];
      PushSample(hit_window[qos], hit_next[qos], latency_ms);
    } else {
      PushSample(miss_window[qos], miss_next[qos], latency_ms);
    }
  }
};

ServingEngine::ServingEngine(core::ShardedNaiEngine& engine,
                             QosPolicyTable policies, ServingOptions options)
    : engine_(&engine),
      policies_(std::move(policies)),
      options_(options),
      stats_(std::make_unique<Counters>()) {
  for (std::size_t c = 0; c < kNumQosClasses; ++c) {
    // The pumps call the engines directly, bypassing ShardedNaiEngine's
    // entry points and their config check — so every policy is validated
    // here, before any request can be admitted.
    engine_->ValidateConfig(policies_.policies[c].config);
  }
  // One pump per engine; every state has num_shards() engines.
  const std::size_t engines = engine_->num_shards();
  stats_->batch_size_hist.assign(options_.batcher.max_batch, 0);

  // Queue, batcher and cache construction validate queue_capacity, the
  // BatcherConfig and the cache capacity. All of it happens here, on the
  // caller's thread — a degenerate option must throw from this
  // constructor, not abort a pump thread. Capacities are per engine, so
  // the one queue and the one cache hold what the engines' shares add up
  // to.
  controller_ = std::make_unique<AdmissionController>(
      engines, options_.scheduler, options_.batcher.max_batch,
      options_.batcher.max_wait_us);
  queue_ = std::make_unique<RequestQueue>(
      options_.queue_capacity * engines,
      QueuePolicy{options_.scheduler.priority});
  batcher_ = std::make_unique<DynamicBatcher>(*queue_, options_.batcher);
  if (options_.cache.enabled) {
    cache_ = std::make_unique<ResultCache>(options_.cache.capacity * engines);
  }
  for (std::size_t w = 0; w < engines; ++w) {
    pumps_.emplace_back([this, w] { Pump(w); });
  }
}

ServingEngine::~ServingEngine() { Shutdown(); }

double ServingEngine::BudgetMs(QosClass qos, double deadline_ms) const {
  return deadline_ms > 0.0 ? deadline_ms
                           : policies_.For(qos).default_deadline_ms;
}

void ServingEngine::CheckNode(std::int32_t node) const {
  // Pin the current state: after an ApplyDeltas swap, newly inserted nodes
  // become servable without any front-end reconfiguration.
  const std::int64_t num_nodes = engine_->PinState()->snapshot->num_nodes();
  if (node < 0 || node >= num_nodes) {
    throw std::out_of_range("ServingEngine: query node " +
                            std::to_string(node) + " outside [0, " +
                            std::to_string(num_nodes) + ")");
  }
}

void ServingEngine::Complete(Request& request, Response response) {
  request.promise.set_value(response);
  if (request.callback) request.callback(response);
}

std::optional<Response> ServingEngine::TryServeFromCache(std::int32_t node,
                                                         QosClass qos,
                                                         double deadline_ms) {
  if (cache_ == nullptr) return std::nullopt;
  // The shutdown contract beats the cache: once the queue is closed every
  // submission is rejected, warm or not.
  if (queue_->closed()) return std::nullopt;
  const ServeClock::time_point admitted = ServeClock::now();
  const std::optional<CachedResult> cached =
      cache_->Lookup(node, &policies_.For(qos).config);
  if (!cached.has_value()) return std::nullopt;
  const ServeClock::time_point done = ServeClock::now();

  Response response;
  response.prediction = cached->prediction;
  response.exit_depth = cached->exit_depth;
  response.qos = qos;
  response.served = true;
  response.queue_ms = 0.0;  // never queued — that is the point
  response.latency_ms = MsBetween(admitted, done);
  response.deadline_missed = response.latency_ms > BudgetMs(qos, deadline_ms);
  // A hit replays the epoch the entry was filled at. It can lag the engine
  // only in the swap-to-bump window of ApplyDeltas (the bump logically
  // empties the cache); such replays are the cache's share of
  // stale_served. Version is read before the stats lock (never nest the
  // engine's state mutex under it).
  response.epoch = cached->graph_epoch;
  const std::uint64_t current_version = engine_->version();
  {
    std::lock_guard<std::mutex> lock(stats_->mu);
    ++stats_->submitted;
    stats_->RecordLatency(static_cast<std::size_t>(qos), response.latency_ms,
                          /*cache_hit=*/true);
    if (response.deadline_missed) {
      ++stats_->deadline_misses;
      ++stats_->misses[static_cast<std::size_t>(qos)];
    }
    if (cached->graph_epoch < current_version) ++stats_->stale_served;
  }
  return response;
}

ServingEngine::Admission ServingEngine::Admit(
    std::int32_t node, QosClass qos, double deadline_ms, bool blocking,
    std::function<void(const Response&)>&& callback) {
  CheckNode(node);
  Admission out;
  // A warm node never touches the queue, the batcher or the admission
  // controller: the hit completes inline on the submitting thread, so it
  // can never be shed. Hits are deliberately not RecordArrival'd — they
  // carry no information about the queueing process the controller's
  // EWMAs model.
  out.hit = TryServeFromCache(node, qos, deadline_ms);
  if (out.hit.has_value()) {
    if (callback) callback(*out.hit);
    return out;
  }
  const double budget_ms = BudgetMs(qos, deadline_ms);
  Request request;
  request.id = stats_->next_id.fetch_add(1, std::memory_order_relaxed);
  request.node = node;
  request.qos = qos;
  request.admitted = ServeClock::now();
  request.deadline =
      request.admitted + std::chrono::duration_cast<ServeClock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 budget_ms));
  controller_->RecordArrival(request.admitted);
  request.callback = std::move(callback);
  out.future = request.promise.get_future();
  // Adaptive shedding: if the queue ahead of this request already implies
  // a wait past its deadline budget, admitting it only manufactures a
  // deadline miss and delays everyone behind it. The controller owns the
  // decision entirely (a no-op yes when it is not adaptive).
  const bool shed =
      !blocking && !controller_->Admit(queue_->size(), budget_ms);
  if (!shed) {
    // `submitted` is counted before the push so a concurrent Stats()
    // snapshot can never observe completed > submitted; a failed push
    // (full or closed) takes the count back. Push and TryPush only move
    // the request on success, so the caller-side object — and its
    // promise — is still ours to reject.
    {
      std::lock_guard<std::mutex> lock(stats_->mu);
      ++stats_->submitted;
    }
    out.queued = blocking ? queue_->Push(std::move(request))
                          : queue_->TryPush(std::move(request));
    if (out.queued) return out;
  }
  {
    std::lock_guard<std::mutex> lock(stats_->mu);
    if (shed) {
      ++stats_->shed_adaptive;
    } else {
      --stats_->submitted;
    }
    ++stats_->rejected;
  }
  Complete(request, Unserved(qos));
  return out;
}

std::future<Response> ServingEngine::Submit(std::int32_t node, QosClass qos,
                                            double deadline_ms) {
  Admission admission = Admit(node, qos, deadline_ms, /*blocking=*/true, {});
  if (admission.hit.has_value()) return ReadyFuture(std::move(*admission.hit));
  return std::move(admission.future);
}

std::optional<std::future<Response>> ServingEngine::TrySubmit(
    std::int32_t node, QosClass qos, double deadline_ms) {
  Admission admission = Admit(node, qos, deadline_ms, /*blocking=*/false, {});
  if (admission.hit.has_value()) return ReadyFuture(std::move(*admission.hit));
  if (!admission.queued) return std::nullopt;
  return std::move(admission.future);
}

bool ServingEngine::SubmitWithCallback(
    std::int32_t node, QosClass qos,
    std::function<void(const Response&)> callback, double deadline_ms) {
  const Admission admission =
      Admit(node, qos, deadline_ms, /*blocking=*/true, std::move(callback));
  return admission.hit.has_value() || admission.queued;
}

void ServingEngine::ServeBatch(
    const std::shared_ptr<const core::ShardedNaiEngine::ShardState>& state,
    std::size_t engine, std::vector<Request> batch,
    std::int64_t applied_wait_us) {
  // Everything version-dependent — the shard engine, the epoch stamped
  // into responses — comes from the one state the caller pinned, so a
  // concurrent SwapSnapshot cannot split this batch across graph versions.
  const ServeClock::time_point formed = ServeClock::now();
  std::vector<Request> serve;
  serve.reserve(batch.size());
  for (Request& request : batch) {
    if (options_.drop_expired && formed >= request.deadline) {
      const double queue_ms = MsBetween(request.admitted, formed);
      Response response = Unserved(request.qos, queue_ms, queue_ms);
      response.deadline_missed = true;
      {
        std::lock_guard<std::mutex> lock(stats_->mu);
        ++stats_->dropped;
        ++stats_->deadline_misses;
        ++stats_->misses[static_cast<std::size_t>(request.qos)];
      }
      Complete(request, response);
    } else {
      serve.push_back(std::move(request));
    }
  }
  if (serve.empty()) return;

  // One engine call for the whole (possibly QoS-mixed) batch: queries
  // sharing a policy config group together inside InferMixed, and the
  // shard engine's ExecContext pins the work to its shard's pool.
  std::vector<core::ConfiguredQuery> queries;
  queries.reserve(serve.size());
  for (const Request& request : serve) {
    queries.push_back({request.node, &policies_.For(request.qos).config});
  }
  // The fill epoch is captured before the engine call: if a BumpEpoch
  // lands while the batch computes, Insert drops the fills.
  const std::uint64_t fill_epoch = cache_ != nullptr ? cache_->epoch() : 0;
  core::InferenceResult result;
  try {
    result = state->engines[engine]->InferMixed(queries);
  } catch (...) {
    // An engine exception fails this batch, not the server: every request
    // in it completes unserved, is counted, and the pump keeps serving.
    const ServeClock::time_point failed = ServeClock::now();
    {
      std::lock_guard<std::mutex> lock(stats_->mu);
      stats_->engine_errors += static_cast<std::int64_t>(serve.size());
    }
    for (Request& request : serve) {
      Complete(request, Unserved(request.qos,
                                 MsBetween(request.admitted, formed),
                                 MsBetween(request.admitted, failed)));
    }
    return;
  }
  const ServeClock::time_point done = ServeClock::now();
  if (cache_ != nullptr) {
    for (std::size_t i = 0; i < serve.size(); ++i) {
      cache_->Insert(serve[i].node, &policies_.For(serve[i].qos).config,
                     {result.predictions[i], result.exit_depths[i],
                      state->version},
                     fill_epoch);
    }
  }
  controller_->RecordBatch(engine, serve.size(), result.stats.wall_time_ms,
                           applied_wait_us, done);

  // Staleness accounting: if a swap landed while this batch was in flight,
  // every answer in it was computed on the pre-swap graph. Version is read
  // before the stats lock (never nest the engine's state mutex under it).
  const std::uint64_t current_version = engine_->version();
  {
    std::lock_guard<std::mutex> lock(stats_->mu);
    ++stats_->num_batches;
    stats_->batched_requests += static_cast<std::int64_t>(serve.size());
    ++stats_->batch_size_hist[serve.size() - 1];
    stats_->engine_stats.Accumulate(result.stats);
    stats_->engine_stats.num_nodes += result.stats.num_nodes;
    stats_->engine_stats.wall_time_ms += result.stats.wall_time_ms;
    if (state->version < current_version) {
      stats_->stale_served += static_cast<std::int64_t>(serve.size());
    }
  }

  for (std::size_t i = 0; i < serve.size(); ++i) {
    Request& request = serve[i];
    Response response;
    response.prediction = result.predictions[i];
    response.exit_depth = result.exit_depths[i];
    response.qos = request.qos;
    response.served = true;
    response.epoch = state->version;
    response.deadline_missed = done > request.deadline;
    response.queue_ms = MsBetween(request.admitted, formed);
    response.latency_ms = MsBetween(request.admitted, done);
    {
      std::lock_guard<std::mutex> lock(stats_->mu);
      const std::size_t c = static_cast<std::size_t>(request.qos);
      stats_->RecordLatency(c, response.latency_ms, /*cache_hit=*/false);
      if (response.deadline_missed) {
        ++stats_->deadline_misses;
        ++stats_->misses[c];
      }
    }
    Complete(request, response);
  }
}

void ServingEngine::Pump(std::size_t engine) {
  const bool adaptive = options_.scheduler.adaptive;
  while (true) {
    // The window is read once per batch, before it opens: a retune by
    // another pump's batch lands at this pump's next batch, and the trace
    // records the window this batch really coalesced under.
    const std::int64_t window_us =
        adaptive ? controller_->WaitUs() : options_.batcher.max_wait_us;
    std::vector<Request> batch = batcher_->NextBatch(window_us);
    if (batch.empty()) return;  // closed and drained
    // Pin one engine state per batch — this is the swap point: an
    // ApplyDeltas that lands mid-batch takes effect at the next pin, so
    // each pump applies the snapshot atomically between batches.
    ServeBatch(engine_->PinState(), engine, std::move(batch), window_us);
  }
}

void ServingEngine::BumpEpoch() {
  if (cache_ != nullptr) cache_->BumpEpoch();
}

std::future<DeltaApplyReport> ServingEngine::ApplyDeltas(
    graph::GraphDelta delta) {
  auto promise = std::make_shared<std::promise<DeltaApplyReport>>();
  std::future<DeltaApplyReport> future = promise->get_future();
  std::lock_guard<std::mutex> lock(ingest_mu_);
  // Checked under the lock Shutdown joins under, so every ingest thread
  // is one that Shutdown joins.
  if (shut_down_) {
    promise->set_exception(std::make_exception_ptr(std::runtime_error(
        "ServingEngine::ApplyDeltas: the server is shut down")));
    return future;
  }
  // Joining the previous ingest thread here (not inside the new one) both
  // bounds us to one live thread and serializes applies: the builder below
  // always starts from the snapshot the previous apply published.
  if (ingest_.joinable()) ingest_.join();
  ingest_ = std::thread([this, promise, delta = std::move(delta)]() mutable {
    try {
      const ServeClock::time_point start = ServeClock::now();
      // Stale horizon = classifier depth: any node whose k-hop supporting
      // set touches the delta may change its answer, which is what the
      // builder's stale_nodes counter reports.
      graph::SnapshotBuilder builder(engine_->PinState()->snapshot,
                                     engine_->depth());
      const std::shared_ptr<const graph::GraphSnapshot> next =
          builder.Apply(delta);
      engine_->SwapSnapshot(next);
      // The bump lands *after* the swap. In between, cache hits may replay
      // pre-swap results (counted in stale_served); after it, no pre-swap
      // result — resident entry or in-flight fill — survives, so post-bump
      // hits are bit-exact against the merged graph.
      BumpEpoch();
      DeltaApplyReport report;
      report.version = next->version;
      report.build = builder.last_stats();
      report.apply_ms = MsBetween(start, ServeClock::now());
      {
        std::lock_guard<std::mutex> stats_lock(stats_->mu);
        ++stats_->snapshot_swaps;
      }
      promise->set_value(report);
    } catch (...) {
      // An invalid delta throws out of Apply before any state changed; the
      // caller sees it through the future, serving continues on the old
      // snapshot.
      promise->set_exception(std::current_exception());
    }
  });
  return future;
}

void ServingEngine::Shutdown() {
  {
    // Once shut_down_ is set under ingest_mu_ no ApplyDeltas spawns an
    // ingest thread; an in-flight one finishes its swap before the drain,
    // so every admitted request still completes, possibly on the new
    // version.
    std::lock_guard<std::mutex> lock(ingest_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    if (ingest_.joinable()) ingest_.join();
  }
  queue_->Close();
  for (std::thread& pump : pumps_) pump.join();
  pumps_.clear();
}

ServingStatsSnapshot ServingEngine::Stats() const {
  ServingStatsSnapshot snap;
  // Read before the stats lock — version() takes the engine's state mutex
  // and must never nest under stats_->mu.
  snap.epoch = engine_->version();
  {
    // Storage residency of the snapshot being served (same lock discipline:
    // PinState takes the engine's state mutex). The graph and feature
    // stores are usually one object reporting disjoint byte ranges, so the
    // two residency calls sum without double counting.
    const auto state = engine_->PinState();
    const graph::GraphSnapshot& served = *state->snapshot;
    snap.store_backend = storage::BackendName(served.backend());
    storage::ResidencyInfo residency =
        served.graph_store->AdjacencyResidency();
    residency += served.feature_store->FeatureResidency();
    snap.store_mapped_bytes = residency.mapped_bytes;
    snap.store_resident_bytes = residency.resident_bytes;
    snap.store_residency_exact = residency.exact;
  }
  std::array<std::vector<double>, kNumQosClasses> windows;
  std::array<std::vector<double>, kNumQosClasses> hit_windows;
  std::array<std::vector<double>, kNumQosClasses> miss_windows;
  std::array<std::int64_t, kNumQosClasses> completed{};
  std::array<std::int64_t, kNumQosClasses> completed_hits{};
  {
    std::lock_guard<std::mutex> lock(stats_->mu);
    snap.submitted = stats_->submitted;
    snap.rejected = stats_->rejected;
    snap.dropped = stats_->dropped;
    snap.deadline_misses = stats_->deadline_misses;
    snap.per_class_misses = stats_->misses;
    snap.batch_size_hist = stats_->batch_size_hist;
    snap.num_batches = stats_->num_batches;
    snap.mean_batch_size =
        stats_->num_batches == 0
            ? 0.0
            : static_cast<double>(stats_->batched_requests) /
                  static_cast<double>(stats_->num_batches);
    snap.engine_stats = stats_->engine_stats;
    snap.snapshot_swaps = stats_->snapshot_swaps;
    snap.stale_served = stats_->stale_served;
    snap.shed_adaptive = stats_->shed_adaptive;
    snap.engine_errors = stats_->engine_errors;
    windows = stats_->latency_window;
    hit_windows = stats_->hit_window;
    miss_windows = stats_->miss_window;
    completed = stats_->completed;
    completed_hits = stats_->completed_hits;
  }
  snap.scheduler = controller_->Snapshot();
  snap.adaptation_trace = controller_->Trace();
  // Percentiles come from the bounded recent window, whose size each
  // summary reports as `window`; the `count` fields are then overwritten
  // with the exact all-time totals from the plain counters, so they keep
  // matching `completed` even after a class outgrows kLatencyWindow and
  // the ring starts forgetting.
  std::vector<double> all;
  for (std::size_t c = 0; c < kNumQosClasses; ++c) {
    snap.per_class[c] = Summarize(windows[c]);
    snap.per_class[c].count = completed[c];
    snap.per_class_hit[c] = Summarize(hit_windows[c]);
    snap.per_class_hit[c].count = completed_hits[c];
    snap.per_class_miss[c] = Summarize(miss_windows[c]);
    snap.per_class_miss[c].count = completed[c] - completed_hits[c];
    snap.completed += completed[c];
    all.insert(all.end(), windows[c].begin(), windows[c].end());
  }
  snap.latency = Summarize(std::move(all));
  snap.latency.count = snap.completed;
  snap.queue_depth = queue_->size();
  if (cache_ != nullptr) snap.cache = cache_->Stats();
  snap.cache_hits = snap.cache.hits;
  snap.cache_misses = snap.cache.misses;
  snap.cache_hit_ratio = snap.cache.hit_ratio;
  return snap;
}

}  // namespace nai::serve
