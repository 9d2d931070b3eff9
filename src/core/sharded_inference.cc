#include "src/core/sharded_inference.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/runtime/error.h"
#include "src/storage/feature_adapters.h"

namespace nai::core {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Hop distance of every shard node from the shard's owned set, by BFS over
/// the shard subgraph. A shortest path from the owned set to a node at halo
/// depth d <= halo_hops runs entirely through the halo, so the induced
/// subgraph preserves the global distances — this is exactly the
/// steal-eligibility data CanServeFromShard needs.
std::vector<std::int32_t> HaloDepths(const graph::GraphShard& shard) {
  if (shard.num_halo() == 0) {
    // Every node is owned (depth 0). IdentityShards shards take this path —
    // they carry no materialized subgraph to BFS over.
    return std::vector<std::int32_t>(shard.nodes.size(), 0);
  }
  std::vector<std::int32_t> depth(shard.nodes.size(), -1);
  std::vector<std::int32_t> frontier;
  for (const std::int32_t global : shard.owned) {
    const std::int32_t local = shard.global_to_local[global];
    depth[local] = 0;
    frontier.push_back(local);
  }
  std::int32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    std::vector<std::int32_t> next;
    for (const std::int32_t u : frontier) {
      for (const std::int32_t* it = shard.graph.neighbors_begin(u);
           it != shard.graph.neighbors_end(u); ++it) {
        if (depth[*it] < 0) {
          depth[*it] = level;
          next.push_back(*it);
        }
      }
    }
    frontier = std::move(next);
  }
  return depth;
}

/// An IdentityShards shard: owns everything, no halo, no materialized
/// subgraph. Its engine is built straight on the snapshot instead of an
/// induced submatrix — the out-of-core fast path.
bool IsIdentityShard(const graph::GraphShard& shard) {
  return shard.num_owned() > 0 && shard.num_halo() == 0 &&
         shard.graph.num_nodes() == 0;
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
  const graph::CsrView global_norm = state->snapshot->norm_adj();
  const tensor::Matrix* pooled =
      use_stationary_ ? state->base_features->stationary_pooled() : nullptr;
  const std::size_t num_shards = state->sharded.num_shards();

  state->halo_depth.reserve(num_shards);
  state->shard_features.reserve(num_shards);
  state->engines.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const graph::GraphShard& shard = state->sharded.shards[s];
    state->halo_depth.push_back(HaloDepths(shard));
    // Empty shards get no views; identity shards serve straight from the
    // snapshot's stores and need no per-shard slice.
    state->shard_features.push_back(nullptr);
    if (shard.num_owned() == 0) {
      state->engines.push_back(nullptr);
      continue;
    }
    // Pools persist across swaps; a shard that gains its first owned node
    // (round-robin assignment of an isolated insert) gets one on demand.
    if (pools_[s] == nullptr) {
      pools_[s] = std::make_unique<runtime::ThreadPool>(threads_per_shard_);
    }
    runtime::ExecContext ctx;
    ctx.pool = pools_[s].get();
    std::unique_ptr<NaiEngine> engine;
    if (IsIdentityShard(shard)) {
      // Global and local ids coincide, so a FromSnapshot engine serves
      // the shard's routed queries directly, reading adjacency and features
      // through the snapshot's (possibly memory-mapped) stores.
      EngineOptions options;
      options.gates = gates_;
      options.use_stationary = pooled != nullptr;
      options.ctx = ctx;
      engine = std::make_unique<NaiEngine>(
          NaiEngine::FromSnapshot(state->snapshot, *classifiers_, options));
    } else {
      state->shard_features.back() =
          std::make_shared<storage::SlicedFeatureStore>(state->base_features,
                                                        shard.nodes);
      // Shard-local stationary view: same pooled vector, degrees from the
      // shard graph. Owned nodes (the only ones ever queried) keep their
      // full neighbor list whenever halo_hops >= 1, so their rows are
      // identical to the full-graph state.
      std::optional<StationaryState> stationary;
      if (pooled != nullptr) {
        stationary = StationaryState::FromPooled(shard.graph, *pooled,
                                                 state->snapshot->gamma);
      }
      auto norm_adj = std::make_shared<const graph::Csr>(
          graph::InducedSubmatrix(global_norm, shard.nodes,
                                  shard.global_to_local));
      engine.reset(new NaiEngine(norm_adj, norm_adj->view(),
                                 state->shard_features.back(), *classifiers_,
                                 std::move(stationary), gates_, ctx));
    }
    // Carry the INT8 classifier bank across swaps: the quantized stack is
    // full-graph-scoped (it holds no propagated state), so successive
    // states' engines all share the one attachment.
    engine->AttachQuantizedClassifiers(quantized_);
    state->engines.push_back(std::move(engine));
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
      num_shards_(sharded.num_shards()),
      halo_hops_(sharded.halo_hops) {
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

  graph::ShardedGraph sharded;
  if (num_shards_ == 1 && IsIdentityShard(old->sharded.shards[0])) {
    // Identity partitions stay identity: no owner votes to take and no
    // subgraph to materialize, whatever the graph grew to.
    sharded = graph::IdentityShards(n_new, halo_hops_);
  } else {
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
    sharded = graph::MakeShards(adj, std::move(owner), halo_hops_);
  }
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
  // The depth the shard engines will resolve for themselves — validated
  // against the halo via the shared InferenceConfig rule.
  const int t_max = config.effective_t_max(classifiers_->depth());
  if (t_max > halo_hops_) {
    throw ValidationError(
        "ShardedNaiEngine: T_max " + std::to_string(t_max) +
        " exceeds the shard halo of " + std::to_string(halo_hops_) +
        " hops; rebuild the shards with halo_hops >= T_max");
  }
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

bool ShardedNaiEngine::CanServeFromShard(std::size_t s, std::int32_t v,
                                         const InferenceConfig& config) const {
  const std::shared_ptr<const ShardState> state = PinState();
  return CanServeFromShard(*state, s, v, config);
}

bool ShardedNaiEngine::CanServeFromShard(const ShardState& state,
                                         std::size_t s, std::int32_t v,
                                         const InferenceConfig& config) const {
  if (v < 0 || static_cast<std::size_t>(v) >= state.sharded.owner.size()) {
    throw std::out_of_range("ShardedNaiEngine: query node " +
                            std::to_string(v) + " outside [0, " +
                            std::to_string(state.sharded.owner.size()) + ")");
  }
  if (s >= state.sharded.num_shards() || state.engines[s] == nullptr) {
    return false;
  }
  if (static_cast<std::size_t>(state.sharded.owner[v]) == s) return true;
  const std::int32_t local = state.sharded.shards[s].global_to_local[v];
  if (local < 0) return false;
  // T-hop BFS membership needs depth(v) + T <= halo_hops; the rows it
  // aggregates (nodes within T-1 of v) then sit strictly inside the halo,
  // where every row is complete. T >= 1 keeps v itself off the outermost
  // ring, whose local degrees (stationary view) undercount the global ones.
  const std::int64_t needed = std::max(
      1, config.effective_t_max(classifiers_->depth()));
  return static_cast<std::int64_t>(state.halo_depth[s][local]) + needed <=
         static_cast<std::int64_t>(state.sharded.halo_hops);
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
    shard_queries[s].push_back(state->sharded.shards[s].global_to_local[v]);
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
  // Every distinct config must survive the halo check before any shard
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
  // config along (shard-local node ids, caller-order slots).
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
    shard_queries[s].push_back(
        {state->sharded.shards[s].global_to_local[v], queries[i].config});
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
