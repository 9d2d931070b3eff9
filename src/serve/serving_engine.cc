#include "src/serve/serving_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/storage/store.h"

namespace nai::serve {

namespace {

double MsBetween(ServeClock::time_point from, ServeClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
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
  std::int64_t stolen_batches = 0;
  std::int64_t stolen_requests = 0;
  std::int64_t engine_errors = 0;
  std::vector<std::int64_t> shed_adaptive_per_shard;
  std::vector<std::int64_t> stolen_from;  ///< batches taken out of shard s
  std::vector<std::int64_t> stolen_by;    ///< batches shard s's pump stole
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
    // The pumps call shard engines directly, bypassing the routed entry
    // points and their config check — so every policy is validated here,
    // before any request can be admitted.
    engine_->ValidateConfig(policies_.policies[c].config);
  }
  // Pin the construction-time state once. A snapshot swap never changes the
  // shard *count* or moves existing owners, so the per-shard structures
  // sized here stay correct across every later SwapSnapshot.
  const std::shared_ptr<const core::ShardedNaiEngine::ShardState> state =
      engine_->PinState();
  const graph::ShardedGraph& sharded = state->sharded;
  stats_->batch_size_hist.assign(options_.batcher.max_batch, 0);
  stats_->shed_adaptive_per_shard.assign(sharded.num_shards(), 0);
  stats_->stolen_from.assign(sharded.num_shards(), 0);
  stats_->stolen_by.assign(sharded.num_shards(), 0);

  // The controller constructor validates every scheduler knob; queue and
  // batcher construction validates queue_capacity and the BatcherConfig.
  // All of it happens here, on the caller's thread — a degenerate option
  // must throw from this constructor, not abort a pump thread.
  controller_ = std::make_unique<AdmissionController>(
      sharded.num_shards(), options_.scheduler, options_.batcher.max_batch,
      options_.batcher.max_wait_us);
  const QueuePolicy queue_policy{options_.scheduler.priority,
                                 options_.scheduler.priority_aging_us};
  queues_.resize(sharded.num_shards());
  batchers_.resize(sharded.num_shards());
  engine_mu_.resize(sharded.num_shards());
  caches_.resize(sharded.num_shards());
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    if (sharded.shards[s].num_owned() == 0) continue;
    queues_[s] =
        std::make_unique<RequestQueue>(options_.queue_capacity, queue_policy);
    batchers_[s] =
        std::make_unique<DynamicBatcher>(*queues_[s], options_.batcher);
    engine_mu_[s] = std::make_unique<std::mutex>();
    if (options_.cache.enabled) {
      // The ResultCache constructor rejects a zero capacity, so a
      // degenerate cache option throws here like every other knob.
      caches_[s] = std::make_unique<ResultCache>(options_.cache.capacity);
    }
  }
  for (std::size_t s = 0; s < queues_.size(); ++s) {
    if (queues_[s] == nullptr) continue;
    pumps_.emplace_back([this, s] { PumpShard(s); });
  }
}

ServingEngine::~ServingEngine() { Shutdown(); }

double ServingEngine::BudgetMs(QosClass qos, double deadline_ms) const {
  return deadline_ms > 0.0 ? deadline_ms
                           : policies_.For(qos).default_deadline_ms;
}

Request ServingEngine::MakeRequest(std::int32_t node, QosClass qos,
                                   double deadline_ms) {
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
  return request;
}

std::size_t ServingEngine::ShardFor(std::int32_t node) const {
  // Pin the current state: after an ApplyDeltas swap, newly inserted nodes
  // become routable here without any front-end reconfiguration (their owner
  // was assigned by SwapSnapshot; existing owners never move).
  const std::shared_ptr<const core::ShardedNaiEngine::ShardState> state =
      engine_->PinState();
  const std::vector<std::int32_t>& owner = state->sharded.owner;
  if (node < 0 || static_cast<std::size_t>(node) >= owner.size()) {
    throw std::out_of_range("ServingEngine: query node " +
                            std::to_string(node) + " outside [0, " +
                            std::to_string(owner.size()) + ")");
  }
  return static_cast<std::size_t>(owner[node]);
}

void ServingEngine::Complete(Request& request, Response response) {
  request.promise.set_value(response);
  if (request.callback) request.callback(response);
}

void ServingEngine::Reject(Request& request) {
  {
    std::lock_guard<std::mutex> lock(stats_->mu);
    ++stats_->rejected;
  }
  Response response;
  response.qos = request.qos;
  response.served = false;
  Complete(request, response);
}

std::optional<Response> ServingEngine::TryServeFromCache(std::size_t shard,
                                                         std::int32_t node,
                                                         QosClass qos,
                                                         double deadline_ms) {
  ResultCache* cache = caches_[shard].get();
  if (cache == nullptr) return std::nullopt;
  // The shutdown contract beats the cache: once the shard queue is closed
  // every submission is rejected, warm or not.
  if (queues_[shard]->closed()) return std::nullopt;
  const ServeClock::time_point admitted = ServeClock::now();
  const std::optional<CachedResult> cached =
      cache->Lookup(node, &policies_.For(qos).config);
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
  // empties the caches); such replays are the cache's share of
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

namespace {

std::future<Response> ReadyFuture(Response response) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  promise.set_value(std::move(response));
  return future;
}

}  // namespace

std::future<Response> ServingEngine::Submit(std::int32_t node, QosClass qos,
                                            double deadline_ms) {
  const std::size_t s = ShardFor(node);
  // A warm node never touches the queue, the batcher or the admission
  // controller: the hit completes inline on the submitting thread. Hits
  // are deliberately not RecordArrival'd — they carry no information about
  // the queueing process the controller's EWMAs model.
  if (std::optional<Response> hit =
          TryServeFromCache(s, node, qos, deadline_ms)) {
    return ReadyFuture(std::move(*hit));
  }
  Request request = MakeRequest(node, qos, deadline_ms);
  controller_->RecordArrival(s, request.admitted);
  std::future<Response> future = request.promise.get_future();
  // `submitted` is counted before the push so a concurrent Stats()
  // snapshot can never observe completed > submitted; a failed push
  // (queue closed) takes the count back and becomes a rejection. Push
  // only moves the request on success, so the caller-side object — and
  // its promise — is still ours to reject.
  {
    std::lock_guard<std::mutex> lock(stats_->mu);
    ++stats_->submitted;
  }
  if (!queues_[s]->Push(std::move(request))) {
    {
      std::lock_guard<std::mutex> lock(stats_->mu);
      --stats_->submitted;
    }
    Reject(request);
  }
  return future;
}

std::optional<std::future<Response>> ServingEngine::TrySubmit(
    std::int32_t node, QosClass qos, double deadline_ms) {
  const std::size_t s = ShardFor(node);
  // Hits bypass admission entirely — in particular they cannot be shed:
  // replaying a cached result is cheaper than the shed bookkeeping.
  if (std::optional<Response> hit =
          TryServeFromCache(s, node, qos, deadline_ms)) {
    return ReadyFuture(std::move(*hit));
  }
  Request request = MakeRequest(node, qos, deadline_ms);
  controller_->RecordArrival(s, request.admitted);
  // Adaptive shedding: if the queue ahead of this request already implies
  // a wait past its deadline budget, admitting it only manufactures a
  // deadline miss and delays everyone behind it. Admit owns the decision
  // entirely (it is a no-op yes when the controller is not adaptive).
  if (!controller_->Admit(s, queues_[s]->size(),
                          BudgetMs(qos, deadline_ms))) {
    std::lock_guard<std::mutex> lock(stats_->mu);
    ++stats_->rejected;
    ++stats_->shed_adaptive;
    ++stats_->shed_adaptive_per_shard[s];
    return std::nullopt;
  }
  std::future<Response> future = request.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(stats_->mu);
    ++stats_->submitted;
  }
  if (!queues_[s]->TryPush(std::move(request))) {
    std::lock_guard<std::mutex> lock(stats_->mu);
    --stats_->submitted;
    ++stats_->rejected;
    return std::nullopt;
  }
  return future;
}

bool ServingEngine::SubmitWithCallback(
    std::int32_t node, QosClass qos,
    std::function<void(const Response&)> callback, double deadline_ms) {
  const std::size_t s = ShardFor(node);
  if (std::optional<Response> hit =
          TryServeFromCache(s, node, qos, deadline_ms)) {
    // On a hit the callback runs inline on the submitting thread (there is
    // no pump involved), mirroring the inline-ready future of Submit.
    if (callback) callback(*hit);
    return true;
  }
  Request request = MakeRequest(node, qos, deadline_ms);
  controller_->RecordArrival(s, request.admitted);
  request.callback = std::move(callback);
  {
    std::lock_guard<std::mutex> lock(stats_->mu);
    ++stats_->submitted;
  }
  if (queues_[s]->Push(std::move(request))) return true;
  {
    std::lock_guard<std::mutex> lock(stats_->mu);
    --stats_->submitted;
  }
  Reject(request);
  return false;
}

void ServingEngine::ServeBatch(
    const std::shared_ptr<const core::ShardedNaiEngine::ShardState>& state,
    std::size_t engine_shard, std::vector<Request> batch,
    std::int64_t applied_wait_us) {
  // Everything version-dependent — the shard engine, the epoch stamped
  // into responses — comes from the one state the caller pinned, so a
  // concurrent SwapSnapshot cannot split this batch across graph versions.
  const ServeClock::time_point formed = ServeClock::now();
  std::vector<Request> serve;
  serve.reserve(batch.size());
  for (Request& request : batch) {
    if (options_.drop_expired && formed >= request.deadline) {
      Response response;
      response.qos = request.qos;
      response.served = false;
      response.deadline_missed = true;
      response.queue_ms = MsBetween(request.admitted, formed);
      response.latency_ms = response.queue_ms;
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
  // shard engine's ExecContext pins the work to this shard's pool. Only
  // this shard's pump drives its engine, so the per-shard mutex is
  // uncontended; it stays as a guard against that invariant breaking.
  std::vector<core::ConfiguredQuery> queries;
  queries.reserve(serve.size());
  for (const Request& request : serve) {
    queries.push_back({request.node, &policies_.For(request.qos).config});
  }
  // Every batch is single-owner (it was drained from one shard's queue —
  // by its own pump or a thief), so a stolen batch's fills land in the
  // *owner* shard's cache, where future lookups for these nodes route
  // (owners never move across swaps, so the pinned state's owner map is
  // authoritative). The fill epoch is captured before the engine call: if
  // a BumpEpoch lands while the batch computes, Insert drops the fills.
  ResultCache* cache =
      caches_[static_cast<std::size_t>(
                  state->sharded.owner[serve.front().node])]
          .get();
  const std::uint64_t fill_epoch = cache != nullptr ? cache->epoch() : 0;
  core::InferenceResult result;
  try {
    std::lock_guard<std::mutex> lock(*engine_mu_[engine_shard]);
    result = state->engines[engine_shard]->InferMixed(queries);
  } catch (...) {
    // An engine exception fails this batch, not the server: every request
    // in it completes unserved, is counted, and the pump keeps serving.
    const ServeClock::time_point failed = ServeClock::now();
    {
      std::lock_guard<std::mutex> lock(stats_->mu);
      stats_->engine_errors += static_cast<std::int64_t>(serve.size());
    }
    for (Request& request : serve) {
      Response response;
      response.qos = request.qos;
      response.served = false;
      response.queue_ms = MsBetween(request.admitted, formed);
      response.latency_ms = MsBetween(request.admitted, failed);
      Complete(request, response);
    }
    return;
  }
  const ServeClock::time_point done = ServeClock::now();
  if (cache != nullptr) {
    for (std::size_t i = 0; i < serve.size(); ++i) {
      cache->Insert(serve[i].node, &policies_.For(serve[i].qos).config,
                    {result.predictions[i], result.exit_depths[i],
                     state->version},
                    fill_epoch);
    }
  }
  controller_->RecordBatch(engine_shard, serve.size(),
                           result.stats.wall_time_ms, applied_wait_us, done);

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

bool ServingEngine::TrySteal(std::size_t thief) {
  // Victim: the most backlogged sibling queue, if any qualifies.
  std::size_t victim = queues_.size();
  std::size_t best = options_.scheduler.steal_min_backlog;
  for (std::size_t s = 0; s < queues_.size(); ++s) {
    if (s == thief || queues_[s] == nullptr) continue;
    const std::size_t depth = queues_[s]->size();
    if (depth >= best && depth > 0) {
      best = depth;
      victim = s;
    }
  }
  if (victim == queues_.size()) return false;

  std::vector<Request> batch =
      queues_[victim]->TryPopBatch(options_.batcher.max_batch);
  if (batch.empty()) return false;

  // Every shard engine serves the whole snapshot, so the thief serves the
  // whole stolen batch on its own engine, bit-identical to the owner's.
  {
    std::lock_guard<std::mutex> lock(stats_->mu);
    ++stats_->stolen_batches;
    stats_->stolen_requests += static_cast<std::int64_t>(batch.size());
    ++stats_->stolen_by[thief];
    ++stats_->stolen_from[victim];
  }
  // Stolen batches are drained directly (TryPopBatch), never coalesced —
  // no window applied, so the trace records -1.
  ServeBatch(engine_->PinState(), thief, std::move(batch), -1);
  return true;
}

void ServingEngine::PumpShard(std::size_t shard) {
  DynamicBatcher& batcher = *batchers_[shard];
  const bool stealing = options_.scheduler.stealing;
  const bool adaptive = options_.scheduler.adaptive;
  const std::int64_t poll_us = options_.scheduler.steal_poll_us;
  // Idle pumps back off exponentially (up to 16x the base poll) so a quiet
  // deployment is not a spin loop; any work — own or stolen — resets it.
  std::int64_t idle_backoff = 1;

  while (true) {
    if (adaptive) batcher.set_max_wait_us(controller_->WaitUs(shard));
    std::vector<Request> batch =
        stealing ? batcher.NextBatch(ServeClock::now() +
                                     std::chrono::microseconds(
                                         poll_us * idle_backoff))
                 : batcher.NextBatch();
    if (!batch.empty()) {
      idle_backoff = 1;
      // Pin one engine state per batch — this is the swap point: an
      // ApplyDeltas that lands mid-batch takes effect at the next pin, so
      // each shard applies the snapshot atomically between batches.
      // The batcher remembers the window this batch actually opened with;
      // only this pump drives the batcher, so the read cannot race.
      ServeBatch(engine_->PinState(), shard, std::move(batch),
                 batcher.last_window_us());
      continue;
    }
    if (queues_[shard]->drained()) return;
    if (stealing) {
      if (TrySteal(shard)) {
        idle_backoff = 1;
      } else {
        idle_backoff = std::min<std::int64_t>(idle_backoff * 2, 16);
      }
    }
  }
}

void ServingEngine::BumpEpoch() {
  for (const std::unique_ptr<ResultCache>& cache : caches_) {
    if (cache != nullptr) cache->BumpEpoch();
  }
}

std::future<DeltaApplyReport> ServingEngine::ApplyDeltas(
    graph::GraphDelta delta) {
  auto promise = std::make_shared<std::promise<DeltaApplyReport>>();
  std::future<DeltaApplyReport> future = promise->get_future();
  std::lock_guard<std::mutex> lock(ingest_mu_);
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
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  {
    // Let an in-flight ApplyDeltas finish its swap before the drain: every
    // admitted request still completes, just possibly on the new version.
    std::lock_guard<std::mutex> lock(ingest_mu_);
    if (ingest_.joinable()) ingest_.join();
  }
  for (const std::unique_ptr<RequestQueue>& queue : queues_) {
    if (queue != nullptr) queue->Close();
  }
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
    snap.stolen_batches = stats_->stolen_batches;
    snap.stolen_requests = stats_->stolen_requests;
    snap.engine_errors = stats_->engine_errors;
    snap.scheduler.resize(queues_.size());
    for (std::size_t s = 0; s < queues_.size(); ++s) {
      if (queues_[s] == nullptr) {
        snap.scheduler[s].shard = s;
        continue;
      }
      snap.scheduler[s] = controller_->Snapshot(s);
      snap.scheduler[s].adaptive_sheds = stats_->shed_adaptive_per_shard[s];
      snap.scheduler[s].batches_stolen_from = stats_->stolen_from[s];
      snap.scheduler[s].batches_stolen_by = stats_->stolen_by[s];
    }
    windows = stats_->latency_window;
    hit_windows = stats_->hit_window;
    miss_windows = stats_->miss_window;
    completed = stats_->completed;
    completed_hits = stats_->completed_hits;
  }
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
  for (const std::unique_ptr<RequestQueue>& queue : queues_) {
    if (queue != nullptr) snap.queue_depth += queue->size();
  }
  snap.caches.resize(caches_.size());
  for (std::size_t s = 0; s < caches_.size(); ++s) {
    if (caches_[s] == nullptr) continue;
    snap.caches[s] = caches_[s]->Stats();
    snap.cache_hits += snap.caches[s].hits;
    snap.cache_misses += snap.caches[s].misses;
  }
  const std::int64_t lookups = snap.cache_hits + snap.cache_misses;
  snap.cache_hit_ratio = lookups == 0
                             ? 0.0
                             : static_cast<double>(snap.cache_hits) /
                                   static_cast<double>(lookups);
  return snap;
}

}  // namespace nai::serve
