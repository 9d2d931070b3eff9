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
    graph::ShardedGraph sharded) const {
  auto state = std::make_shared<ShardState>();
  state->snapshot = std::move(snapshot);
  state->version = state->snapshot->version;
  state->sharded = std::move(sharded);
  state->base_features = state->snapshot->feature_store;
  state->shard_features.assign(pools_.size(), nullptr);

  EngineOptions options = options_;
  state->engines.reserve(pools_.size());
  for (const std::unique_ptr<runtime::ThreadPool>& pool : pools_) {
    options.ctx.pool = pool.get();
    state->engines.push_back(std::make_unique<NaiEngine>(
        NaiEngine::FromSnapshot(state->snapshot, *classifiers_, options)));
  }
  return state;
}

ShardedNaiEngine::ShardedNaiEngine(
    std::shared_ptr<const graph::GraphSnapshot> snapshot,
    graph::ShardedGraph sharded, ClassifierStack& classifiers,
    const GateStack* gates, bool use_stationary, int total_threads)
    : classifiers_(&classifiers) {
  if (snapshot == nullptr) {
    throw ValidationError("ShardedNaiEngine: null snapshot");
  }
  const std::size_t num_shards = sharded.num_shards();
  if (num_shards == 0) {
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

  options_.gates = gates;
  options_.use_stationary = use_stationary;
  const int total = total_threads > 0
                        ? total_threads
                        : runtime::ThreadPool::Default().num_threads();
  threads_per_shard_ = std::max(1, total / static_cast<int>(num_shards));
  for (std::size_t s = 0; s < num_shards; ++s) {
    pools_.push_back(std::make_unique<runtime::ThreadPool>(threads_per_shard_));
  }
  state_ = BuildState(std::move(snapshot), std::move(sharded));
}

std::shared_ptr<const ShardedNaiEngine::ShardState>
ShardedNaiEngine::PinState() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

void ShardedNaiEngine::SwapSnapshot(
    std::shared_ptr<const graph::GraphSnapshot> snapshot) {
  if (snapshot == nullptr) {
    throw ValidationError("ShardedNaiEngine::SwapSnapshot: null snapshot");
  }
  std::lock_guard<std::mutex> swap_lock(swap_mu_);
  const std::int64_t n_old = PinState()->snapshot->num_nodes();
  const std::int64_t n_new = snapshot->num_nodes();
  if (n_new < n_old) {
    throw ValidationError(
        "ShardedNaiEngine::SwapSnapshot: snapshot has " +
        std::to_string(n_new) + " nodes, fewer than the " +
        std::to_string(n_old) + " currently served (graphs only grow)");
  }
  graph::ShardedGraph sharded =
      graph::MakeShards(snapshot->adj(), static_cast<int>(pools_.size()));
  std::shared_ptr<const ShardState> next =
      BuildState(std::move(snapshot), std::move(sharded));

  std::lock_guard<std::mutex> state_lock(state_mu_);
  state_ = std::move(next);
}

void ShardedNaiEngine::ValidateConfig(const InferenceConfig& config) const {
  PinState()->engines.front()->ValidateConfig(config);
}

void ShardedNaiEngine::AttachQuantizedClassifiers(
    QuantizedClassifierStack* quantized) {
  // Under swap_mu_ so a concurrent SwapSnapshot's BuildState sees either
  // the old or the new attachment consistently with the state it publishes.
  std::lock_guard<std::mutex> lock(swap_mu_);
  options_.quantized = quantized;
  for (const std::unique_ptr<NaiEngine>& engine : PinState()->engines) {
    engine->AttachQuantizedClassifiers(quantized);
  }
}

InferenceResult ShardedNaiEngine::Infer(const std::vector<std::int32_t>& nodes,
                                        const InferenceConfig& config) {
  // Checked here too: an empty list forms no group for InferMixed to check.
  ValidateConfig(config);
  std::vector<ConfiguredQuery> queries;
  queries.reserve(nodes.size());
  for (const std::int32_t v : nodes) queries.push_back({v, &config});
  InferenceResult result = InferMixed(queries);
  // An empty list forms no batch; the histogram still has t_max slots.
  result.stats.exits_at_depth.resize(
      config.effective_t_max(classifiers_->depth()), 0);
  return result;
}

InferenceResult ShardedNaiEngine::InferMixed(
    const std::vector<ConfiguredQuery>& queries) {
  const auto run_start = Clock::now();
  // One state for the whole call: every batch of this run sees the graph
  // version pinned here, even if a swap lands mid-call.
  const std::shared_ptr<const ShardState> state = PinState();
  const std::vector<ConfigGroup> groups = GroupByConfig(queries);
  const std::int64_t n = state->snapshot->num_nodes();
  for (const ConfigGroup& group : groups) {
    state->engines.front()->ValidateConfig(*group.config);
    for (const std::int32_t v : group.nodes) {
      if (v < 0 || static_cast<std::int64_t>(v) >= n) {
        throw std::out_of_range("ShardedNaiEngine: query node " +
                                std::to_string(v) + " outside [0, " +
                                std::to_string(n) + ")");
      }
    }
  }

  // The unsharded engine's batches: each group cut into config.batch_size
  // pieces, in group order.
  struct Batch {
    const ConfigGroup* group;
    std::size_t begin;
    std::size_t end;
    InferenceResult result;
  };
  std::vector<Batch> batches;
  for (const ConfigGroup& group : groups) {
    const std::size_t size = group.nodes.size();
    const std::size_t bs = std::max<std::size_t>(1, group.config->batch_size);
    for (std::size_t begin = 0; begin < size; begin += bs) {
      batches.push_back({&group, begin, std::min(size, begin + bs), {}});
    }
  }

  // Batch i runs on engine i mod N. One task per engine that got a batch,
  // run concurrently on plain threads (the engine pools are distinct, so a
  // pool-dispatched loop would inline the nested kernels instead — see
  // runtime::RunConcurrently); each engine runs its batches in order on its
  // own pool and writes only their results. The join inside RunConcurrently
  // orders those writes before the merge; a failure is rethrown here.
  const std::size_t num_engines = state->engines.size();
  std::vector<std::function<void()>> tasks;
  for (std::size_t e = 0; e < std::min(num_engines, batches.size()); ++e) {
    tasks.push_back([e, num_engines, &state, &batches] {
      for (std::size_t i = e; i < batches.size(); i += num_engines) {
        Batch& b = batches[i];
        const std::vector<std::int32_t>& nodes = b.group->nodes;
        const std::vector<std::int32_t> batch(nodes.begin() + b.begin,
                                              nodes.begin() + b.end);
        b.result = state->engines[e]->Infer(batch, *b.group->config);
      }
    });
  }
  runtime::RunConcurrently(tasks);

  // Scatter into caller order and merge in batch order. Accumulate excludes
  // num_nodes and wall_time_ms by design: both describe the whole run and
  // are set exactly once here.
  InferenceResult result;
  result.predictions.resize(queries.size());
  result.exit_depths.resize(queries.size());
  result.stats.num_nodes = static_cast<std::int64_t>(queries.size());
  for (const Batch& b : batches) {
    for (std::size_t j = 0; j < b.end - b.begin; ++j) {
      const std::size_t slot = b.group->slots[b.begin + j];
      result.predictions[slot] = b.result.predictions[j];
      result.exit_depths[slot] = b.result.exit_depths[j];
    }
    result.stats.Accumulate(b.result.stats);
  }
  result.stats.wall_time_ms = MsSince(run_start);
  return result;
}

}  // namespace nai::core
