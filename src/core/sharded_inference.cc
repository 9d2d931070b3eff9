#include "src/core/sharded_inference.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/runtime/error.h"

namespace nai::core {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

std::shared_ptr<const ShardedNaiEngine::ShardState>
ShardedNaiEngine::BuildState(
    std::shared_ptr<const graph::GraphSnapshot> snapshot,
    graph::ShardedGraph sharded) {
  auto state = std::make_shared<ShardState>();
  state->snapshot = std::move(snapshot);
  state->version = state->snapshot->version;
  state->sharded = std::move(sharded);
  state->base_features = state->snapshot->feature_store;
  const std::size_t num_shards = state->sharded.num_shards();
  state->shard_features.assign(num_shards, nullptr);

  // Every shard engine is the unsharded engine over the one snapshot: a
  // shard only decides which queries its engine serves. The stationary
  // view is built only when requested and the store carries a pooled
  // vector.
  EngineOptions options;
  options.gates = gates_;
  options.use_stationary =
      use_stationary_ && state->base_features->stationary_pooled() != nullptr;
  options.quantized = quantized_;
  state->engines.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (state->sharded.shards[s].num_owned() == 0) {
      state->engines.push_back(nullptr);
      continue;
    }
    // Pools persist across swaps; a shard that gains its first owned node
    // (round-robin assignment of an isolated insert) gets one on demand.
    if (pools_[s] == nullptr) {
      pools_[s] = std::make_unique<runtime::ThreadPool>(threads_per_shard_);
    }
    options.ctx.pool = pools_[s].get();
    state->engines.push_back(std::make_unique<NaiEngine>(
        NaiEngine::FromSnapshot(state->snapshot, *classifiers_, options)));
  }
  return state;
}

ShardedNaiEngine::ShardedNaiEngine(
    std::shared_ptr<const graph::GraphSnapshot> snapshot,
    graph::ShardedGraph sharded, ClassifierStack& classifiers,
    const GateStack* gates, bool use_stationary, int total_threads)
    : classifiers_(&classifiers),
      gates_(gates),
      use_stationary_(use_stationary),
      num_shards_(sharded.num_shards()) {
  if (snapshot == nullptr) {
    throw ValidationError("ShardedNaiEngine: null snapshot");
  }
  if (num_shards_ == 0) {
    throw ValidationError("ShardedNaiEngine: no shards");
  }
  if (static_cast<std::int64_t>(sharded.owner.size()) !=
      snapshot->num_nodes()) {
    throw ValidationError(
        "ShardedNaiEngine: sharding covers " +
        std::to_string(sharded.owner.size()) +
        " nodes but the snapshot graph has " +
        std::to_string(snapshot->num_nodes()));
  }

  // Custom owner vectors may leave shards empty; those can never receive a
  // query, so they get no pool, engine, or thread slice.
  int active_shards = 0;
  for (const graph::GraphShard& shard : sharded.shards) {
    if (shard.num_owned() > 0) ++active_shards;
  }
  const int total = total_threads > 0
                        ? total_threads
                        : runtime::ThreadPool::Default().num_threads();
  threads_per_shard_ = std::max(1, total / std::max(1, active_shards));
  pools_.resize(num_shards_);
  state_ = BuildState(std::move(snapshot), std::move(sharded));
}

std::shared_ptr<const ShardedNaiEngine::ShardState>
ShardedNaiEngine::PinState() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

const ShardedNaiEngine::ShardState& ShardedNaiEngine::CurrentState() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return *state_;
}

void ShardedNaiEngine::SwapSnapshot(
    std::shared_ptr<const graph::GraphSnapshot> snapshot) {
  if (snapshot == nullptr) {
    throw ValidationError("ShardedNaiEngine::SwapSnapshot: null snapshot");
  }
  std::lock_guard<std::mutex> swap_lock(swap_mu_);
  const std::shared_ptr<const ShardState> old = PinState();
  const std::int64_t n_old = static_cast<std::int64_t>(old->sharded.owner.size());
  const std::int64_t n_new = snapshot->num_nodes();
  if (n_new < n_old) {
    throw ValidationError(
        "ShardedNaiEngine::SwapSnapshot: snapshot has " +
        std::to_string(n_new) + " nodes, fewer than the " +
        std::to_string(n_old) + " currently served (graphs only grow)");
  }

  // Extend the owner assignment: existing owners never move (routing and
  // cache keys stay stable), new nodes go to the shard owning most of
  // their already-assigned neighbors — processed in id order, so edges
  // among new nodes count too. Ties take the lowest shard id; isolated
  // nodes round-robin by id.
  std::vector<std::int32_t> owner = old->sharded.owner;
  owner.resize(n_new);
  const graph::CsrView adj = snapshot->adj();
  std::vector<std::int32_t> votes(num_shards_, 0);
  for (std::int64_t v = n_old; v < n_new; ++v) {
    std::fill(votes.begin(), votes.end(), 0);
    bool any = false;
    for (std::int64_t p = adj.row_ptr[v]; p < adj.row_ptr[v + 1]; ++p) {
      const std::int32_t u = adj.col_idx[p];
      if (u < v) {
        ++votes[owner[u]];
        any = true;
      }
    }
    std::int32_t best = static_cast<std::int32_t>(v % num_shards_);
    if (any) {
      best = 0;
      for (std::size_t s = 1; s < num_shards_; ++s) {
        if (votes[s] > votes[best]) best = static_cast<std::int32_t>(s);
      }
    }
    owner[v] = best;
  }
  graph::ShardedGraph sharded = graph::MakeShards(adj, std::move(owner));
  if (sharded.num_shards() != num_shards_) {
    // MakeShards sizes the shard list by max(owner) + 1; a trailing shard
    // that owned nothing at construction would shrink the list here and
    // desynchronize every per-shard index. Refuse rather than misroute.
    throw ValidationError(
        "ShardedNaiEngine::SwapSnapshot: trailing empty shards are not "
        "supported across swaps");
  }

  std::shared_ptr<const ShardState> next =
      BuildState(std::move(snapshot), std::move(sharded));

  std::lock_guard<std::mutex> state_lock(state_mu_);
  state_ = std::move(next);
}

void ShardedNaiEngine::ValidateConfig(const InferenceConfig& config) const {
  if (config.int8_classifier && quantized_ == nullptr) {
    throw ValidationError(
        "ShardedNaiEngine: config requests the int8 classifier but no "
        "QuantizedClassifierStack is attached "
        "(AttachQuantizedClassifiers)");
  }
}

void ShardedNaiEngine::AttachQuantizedClassifiers(
    QuantizedClassifierStack* quantized) {
  // Under swap_mu_ so a concurrent SwapSnapshot's BuildState sees either
  // the old or the new attachment consistently with the state it publishes.
  std::lock_guard<std::mutex> lock(swap_mu_);
  quantized_ = quantized;
  const std::shared_ptr<const ShardState> state = PinState();
  for (const std::unique_ptr<NaiEngine>& engine : state->engines) {
    if (engine != nullptr) engine->AttachQuantizedClassifiers(quantized);
  }
}

InferenceResult ShardedNaiEngine::Infer(const std::vector<std::int32_t>& nodes,
                                        const InferenceConfig& config) {
  const auto run_start = Clock::now();
  ValidateConfig(config);
  const int t_max = config.effective_t_max(classifiers_->depth());

  // One state for the whole call: every batch of this run sees the graph
  // version pinned here, even if a swap lands mid-call.
  const std::shared_ptr<const ShardState> state = PinState();
  const std::size_t num_shards = state->sharded.num_shards();
  const std::int64_t n = static_cast<std::int64_t>(state->sharded.owner.size());

  // Route every query to its owning shard, remembering its slot in the
  // caller's order. Relative order within a shard is preserved, so each
  // shard's batches are a deterministic function of the query list alone.
  std::vector<std::vector<std::int32_t>> shard_queries(num_shards);
  std::vector<std::vector<std::size_t>> shard_slots(num_shards);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::int32_t v = nodes[i];
    if (v < 0 || static_cast<std::int64_t>(v) >= n) {
      throw std::out_of_range("ShardedNaiEngine: query node " +
                              std::to_string(v) + " outside [0, " +
                              std::to_string(n) + ")");
    }
    const std::int32_t s = state->sharded.owner[v];
    shard_queries[s].push_back(v);
    shard_slots[s].push_back(i);
  }

  InferenceResult result;
  result.predictions.resize(nodes.size());
  result.exit_depths.resize(nodes.size());
  result.stats.num_nodes = static_cast<std::int64_t>(nodes.size());
  result.stats.exits_at_depth.assign(t_max, 0);

  // One task per non-empty shard, run concurrently on plain threads (shard
  // pools are distinct, so a pool-dispatched loop would inline the nested
  // kernels instead — see runtime::RunConcurrently): each task pins its
  // engine's dedicated pool, so shard kernels fan out on disjoint workers.
  // Writes go to the caller-order slots of this shard's queries only
  // (disjoint), and the join inside RunConcurrently orders them before the
  // merge; a shard failure is rethrown on the calling thread.
  std::vector<InferenceStats> shard_stats(num_shards);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (shard_queries[s].empty()) continue;
    tasks.push_back([s, &state, &config, &shard_queries, &shard_slots, &result,
                     &shard_stats] {
      InferenceResult local =
          state->engines[s]->Infer(shard_queries[s], config);
      const std::vector<std::size_t>& slots = shard_slots[s];
      for (std::size_t j = 0; j < slots.size(); ++j) {
        result.predictions[slots[j]] = local.predictions[j];
        result.exit_depths[slots[j]] = local.exit_depths[j];
      }
      shard_stats[s] = std::move(local.stats);
    });
  }
  runtime::RunConcurrently(tasks);

  // Deterministic merge in shard order. Accumulate excludes num_nodes and
  // wall_time_ms by design: both describe the whole run and are set exactly
  // once here, never summed over shards.
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!shard_queries[s].empty()) result.stats.Accumulate(shard_stats[s]);
  }
  result.stats.wall_time_ms = MsSince(run_start);
  return result;
}

InferenceResult ShardedNaiEngine::InferMixed(
    const std::vector<ConfiguredQuery>& queries) {
  const auto run_start = Clock::now();
  // Every distinct config must pass ValidateConfig before any shard
  // starts serving (the linear scan mirrors NaiEngine::InferMixed).
  std::vector<const InferenceConfig*> seen;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const InferenceConfig* c = queries[i].config;
    if (c == nullptr) {
      throw ValidationError("ShardedNaiEngine::InferMixed: query " +
                            std::to_string(i) + " has no config");
    }
    if (std::find(seen.begin(), seen.end(), c) == seen.end()) {
      ValidateConfig(*c);
      seen.push_back(c);
    }
  }

  const std::shared_ptr<const ShardState> state = PinState();
  const std::size_t num_shards = state->sharded.num_shards();
  const std::int64_t n = static_cast<std::int64_t>(state->sharded.owner.size());

  // Route by owning shard exactly as Infer does, but carry each query's
  // config along (caller-order slots).
  std::vector<std::vector<ConfiguredQuery>> shard_queries(num_shards);
  std::vector<std::vector<std::size_t>> shard_slots(num_shards);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::int32_t v = queries[i].node;
    if (v < 0 || static_cast<std::int64_t>(v) >= n) {
      throw std::out_of_range("ShardedNaiEngine: query node " +
                              std::to_string(v) + " outside [0, " +
                              std::to_string(n) + ")");
    }
    const std::int32_t s = state->sharded.owner[v];
    shard_queries[s].push_back(queries[i]);
    shard_slots[s].push_back(i);
  }

  InferenceResult result;
  result.predictions.resize(queries.size());
  result.exit_depths.resize(queries.size());
  result.stats.num_nodes = static_cast<std::int64_t>(queries.size());

  std::vector<InferenceStats> shard_stats(num_shards);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (shard_queries[s].empty()) continue;
    tasks.push_back([s, &state, &shard_queries, &shard_slots, &result,
                     &shard_stats] {
      InferenceResult local = state->engines[s]->InferMixed(shard_queries[s]);
      const std::vector<std::size_t>& slots = shard_slots[s];
      for (std::size_t j = 0; j < slots.size(); ++j) {
        result.predictions[slots[j]] = local.predictions[j];
        result.exit_depths[slots[j]] = local.exit_depths[j];
      }
      shard_stats[s] = std::move(local.stats);
    });
  }
  runtime::RunConcurrently(tasks);

  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!shard_queries[s].empty()) result.stats.Accumulate(shard_stats[s]);
  }
  result.stats.wall_time_ms = MsSince(run_start);
  return result;
}

}  // namespace nai::core
