#include "src/core/inference.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>
#include <utility>

#include "src/runtime/error.h"
#include "src/tensor/ops.h"

namespace nai::core {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Local ids within `radius` hops of the seed locals, walking the *global*
/// adjacency through the support mapping, ascending. `visited` is
/// caller-provided scratch sized |support|, all false on entry and restored
/// to all false on exit.
std::vector<std::int32_t> RadiusBfs(
    graph::CsrView global, const std::vector<std::int32_t>& nodes,
    const std::vector<std::int32_t>& global_to_local,
    const std::vector<std::int32_t>& seeds, int radius,
    std::vector<char>& visited) {
  std::vector<std::int32_t> reached;
  reached.reserve(seeds.size() * 4);
  for (const std::int32_t s : seeds) {
    if (!visited[s]) {
      visited[s] = 1;
      reached.push_back(s);
    }
  }
  std::size_t frontier_begin = 0;
  for (int hop = 0; hop < radius; ++hop) {
    const std::size_t frontier_end = reached.size();
    for (std::size_t i = frontier_begin; i < frontier_end; ++i) {
      const std::int32_t g = nodes[reached[i]];
      for (std::int64_t p = global.row_ptr[g]; p < global.row_ptr[g + 1];
           ++p) {
        const std::int32_t u = global_to_local[global.col_idx[p]];
        if (u >= 0 && !visited[u]) {
          visited[u] = 1;
          reached.push_back(u);
        }
      }
    }
    frontier_begin = frontier_end;
  }
  for (const std::int32_t v : reached) visited[v] = 0;
  std::sort(reached.begin(), reached.end());
  return reached;
}

/// Sum of global-row nnz over a list of local rows.
std::int64_t RowListNnz(graph::CsrView global,
                        const std::vector<std::int32_t>& nodes,
                        const std::vector<std::int32_t>& local_rows) {
  std::int64_t nnz = 0;
  for (const std::int32_t r : local_rows) nnz += global.RowNnz(nodes[r]);
  return nnz;
}

/// Stationary view over the snapshot's pooled vector, whatever backend the
/// snapshot's stores have.
StationaryState BuildStationary(const graph::GraphSnapshot& snapshot) {
  const tensor::Matrix* pooled = snapshot.feature_store->stationary_pooled();
  if (pooled == nullptr) {
    throw ValidationError(
        "NaiEngine: snapshot's feature store carries no pooled stationary "
        "vector; pass EngineOptions{.use_stationary = false} for "
        "NapKind::kNone-only serving");
  }
  return StationaryState::FromPooled(snapshot.adj(), *pooled, snapshot.gamma);
}

}  // namespace

double InferenceStats::average_depth() const {
  std::int64_t weighted = 0;
  std::int64_t total = 0;
  for (std::size_t l = 0; l < exits_at_depth.size(); ++l) {
    weighted += static_cast<std::int64_t>(l + 1) * exits_at_depth[l];
    total += exits_at_depth[l];
  }
  return total == 0 ? 0.0
                    : static_cast<double>(weighted) / static_cast<double>(total);
}

void InferenceStats::Accumulate(const InferenceStats& other) {
  propagation_macs += other.propagation_macs;
  nap_macs += other.nap_macs;
  stationary_macs += other.stationary_macs;
  classification_macs += other.classification_macs;
  fp_time_ms += other.fp_time_ms;
  sample_time_ms += other.sample_time_ms;
  stationary_time_ms += other.stationary_time_ms;
  classify_time_ms += other.classify_time_ms;
  if (exits_at_depth.size() < other.exits_at_depth.size()) {
    exits_at_depth.resize(other.exits_at_depth.size(), 0);
  }
  for (std::size_t l = 0; l < other.exits_at_depth.size(); ++l) {
    exits_at_depth[l] += other.exits_at_depth[l];
  }
}

NaiEngine NaiEngine::FromSnapshot(
    std::shared_ptr<const graph::GraphSnapshot> snapshot,
    ClassifierStack& classifiers, EngineOptions options) {
  if (snapshot == nullptr) {
    throw ValidationError("NaiEngine: null snapshot");
  }
  std::optional<StationaryState> stationary;
  if (options.use_stationary) stationary = BuildStationary(*snapshot);
  NaiEngine engine(snapshot->graph_store, snapshot->norm_adj(),
                   snapshot->feature_store, classifiers, std::move(stationary),
                   options.gates, options.ctx);
  engine.AttachQuantizedClassifiers(options.quantized);
  return engine;
}

NaiEngine::NaiEngine(std::shared_ptr<const void> adjacency_owner,
                     graph::CsrView norm_adj,
                     std::shared_ptr<const storage::FeatureStore> features,
                     ClassifierStack& classifiers,
                     std::optional<StationaryState> stationary,
                     const GateStack* gates, runtime::ExecContext ctx)
    : adjacency_owner_(std::move(adjacency_owner)),
      norm_adj_(norm_adj),
      features_(std::move(features)),
      stationary_(std::move(stationary)),
      classifiers_(&classifiers),
      gates_(gates),
      ctx_(ctx),
      sampler_(norm_adj_) {}

InferenceResult NaiEngine::Infer(const std::vector<std::int32_t>& nodes,
                                 const InferenceConfig& config) {
  const auto run_start = Clock::now();
  const int k = classifiers_->depth();
  const int t_max = config.effective_t_max(k);
  assert(t_max >= 1);
  if (config.int8_classifier && quantized_ == nullptr) {
    throw ValidationError(
        "NaiEngine::Infer: config requests the int8 classifier but no "
        "QuantizedClassifierStack is attached");
  }
  if (config.nap == NapKind::kDistance) {
    assert(stationary_.has_value() && "NAPd requires a stationary state");
  }
  if (config.nap == NapKind::kGate) {
    assert(gates_ != nullptr && stationary_.has_value() &&
           "NAPg requires trained gates and a stationary state");
  }

  InferenceResult result;
  result.predictions.resize(nodes.size());
  result.exit_depths.resize(nodes.size());
  result.stats.num_nodes = static_cast<std::int64_t>(nodes.size());
  result.stats.exits_at_depth.assign(t_max, 0);

  const std::size_t bs = std::max<std::size_t>(1, config.batch_size);
  const std::size_t num_batches = (nodes.size() + bs - 1) / bs;

  // Pin the whole run — including kernels deep in the classifier forward
  // pass that only see default ExecContexts — to this engine's pool.
  runtime::ThreadPool& pool = ctx_.pool_or_default();
  runtime::ScopedDefaultPool scoped_pool(pool);
  std::size_t shards = config.inter_batch_parallelism == 0
                           ? static_cast<std::size_t>(pool.num_threads())
                           : static_cast<std::size_t>(std::max(
                                 config.inter_batch_parallelism, 1));
  shards = std::min(shards, num_batches);

  // Shared batch protocol of the sequential and parallel paths: every
  // batch writes its predictions/exit depths into disjoint pre-sized slots
  // of the result, so the outcome is bit-identical regardless of how batch
  // ranges are scheduled.
  auto run_batches = [&](std::size_t first_batch, std::size_t last_batch,
                         graph::SupportSampler& sampler,
                         InferenceStats& stats) {
    std::vector<std::int32_t> batch_pred;
    std::vector<std::int32_t> batch_depth;
    for (std::size_t b = first_batch; b < last_batch; ++b) {
      const std::size_t begin = b * bs;
      const std::size_t end = std::min(nodes.size(), begin + bs);
      const std::vector<std::int32_t> batch(nodes.begin() + begin,
                                            nodes.begin() + end);
      batch_pred.assign(batch.size(), -1);
      batch_depth.assign(batch.size(), -1);
      InferBatch(batch, config, t_max, sampler, batch_pred, batch_depth,
                 stats);
      std::copy(batch_pred.begin(), batch_pred.end(),
                result.predictions.begin() + begin);
      std::copy(batch_depth.begin(), batch_depth.end(),
                result.exit_depths.begin() + begin);
    }
  };

  if (shards <= 1) {
    run_batches(0, num_batches, sampler_, result.stats);
  } else {
    // Contiguous shards of batches, one sampler and one local stats block
    // per shard; shard stats are merged in shard order afterwards.
    const std::size_t batches_per_shard = (num_batches + shards - 1) / shards;
    std::vector<InferenceStats> shard_stats(shards);
    for (InferenceStats& st : shard_stats) st.exits_at_depth.assign(t_max, 0);

    // Grain >= kMinChunkWork forces one shard per dispatched chunk.
    pool.ParallelFor(0, shards, runtime::ThreadPool::kMinChunkWork,
                     [&](std::size_t s0, std::size_t s1) {
      for (std::size_t s = s0; s < s1; ++s) {
        graph::SupportSampler sampler(norm_adj_);
        const std::size_t first = s * batches_per_shard;
        run_batches(first, std::min(num_batches, first + batches_per_shard),
                    sampler, shard_stats[s]);
      }
    });
    for (const InferenceStats& st : shard_stats) result.stats.Accumulate(st);
  }
  result.stats.wall_time_ms = MsSince(run_start);
  return result;
}

InferenceResult NaiEngine::InferMixed(
    const std::vector<ConfiguredQuery>& queries) {
  const auto run_start = Clock::now();
  // Stable grouping by config identity: groups in first-appearance order,
  // caller order preserved within each group. The linear scan is fine — the
  // serving front-end resolves QoS classes to a handful of shared configs.
  std::vector<const InferenceConfig*> group_configs;
  std::vector<std::vector<std::int32_t>> group_nodes;
  std::vector<std::vector<std::size_t>> group_slots;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const ConfiguredQuery& q = queries[i];
    if (q.config == nullptr) {
      throw ValidationError("NaiEngine::InferMixed: query " +
                            std::to_string(i) + " has no config");
    }
    std::size_t g = 0;
    while (g < group_configs.size() && group_configs[g] != q.config) ++g;
    if (g == group_configs.size()) {
      group_configs.push_back(q.config);
      group_nodes.emplace_back();
      group_slots.emplace_back();
    }
    group_nodes[g].push_back(q.node);
    group_slots[g].push_back(i);
  }

  InferenceResult result;
  result.predictions.resize(queries.size());
  result.exit_depths.resize(queries.size());
  result.stats.num_nodes = static_cast<std::int64_t>(queries.size());
  for (std::size_t g = 0; g < group_configs.size(); ++g) {
    InferenceResult local = Infer(group_nodes[g], *group_configs[g]);
    const std::vector<std::size_t>& slots = group_slots[g];
    for (std::size_t j = 0; j < slots.size(); ++j) {
      result.predictions[slots[j]] = local.predictions[j];
      result.exit_depths[slots[j]] = local.exit_depths[j];
    }
    // Accumulate excludes num_nodes and wall_time_ms by design; both
    // describe this whole call and are set exactly once here.
    result.stats.Accumulate(local.stats);
  }
  result.stats.wall_time_ms = MsSince(run_start);
  return result;
}

void NaiEngine::InferBatch(const std::vector<std::int32_t>& batch,
                           const InferenceConfig& config, int t_max,
                           graph::SupportSampler& sampler,
                           std::vector<std::int32_t>& out_predictions,
                           std::vector<std::int32_t>& out_depths,
                           InferenceStats& stats) {
  const std::size_t f = features_->dim();
  const std::size_t B = batch.size();
  const int t_min = std::clamp(config.t_min, 1, t_max);
  const bool use_nap = config.nap != NapKind::kNone;

  // Line 3: sample supporting nodes out to T_max hops. The mapped variant
  // skips the induced-submatrix build; propagation reads the global
  // adjacency through the support mapping.
  auto t0 = Clock::now();
  graph::BatchSupport support = sampler.SampleMapped(batch, t_max);
  const std::vector<std::int32_t>& g2l = sampler.global_to_local();
  tensor::Matrix cur = features_->GatherRows(support.nodes);
  // Cumulative touched-edge counts per local prefix, for MAC accounting.
  std::vector<std::int64_t> prefix_nnz(support.nodes.size() + 1, 0);
  for (std::size_t r = 0; r < support.nodes.size(); ++r) {
    prefix_nnz[r + 1] = prefix_nnz[r] + norm_adj_.RowNnz(support.nodes[r]);
  }
  stats.sample_time_ms += MsSince(t0);

  // Line 2: stationary state X^(∞) for the batch (rank-1 form).
  tensor::Matrix x_inf;
  if (use_nap) {
    t0 = Clock::now();
    x_inf = stationary_->RowsForNodes(batch);
    stats.stationary_time_ms += MsSince(t0);
    stats.stationary_macs += static_cast<std::int64_t>(B) * f;
  }

  // Per-depth history of the batch rows only (the classifier heads of
  // SIGN/S2GC/GAMLP consume the whole slice X^(0..l)).
  std::vector<tensor::Matrix> batch_stack;
  batch_stack.reserve(t_max + 1);
  std::vector<std::int32_t> batch_locals(B);
  for (std::size_t i = 0; i < B; ++i) {
    batch_locals[i] = static_cast<std::int32_t>(i);
  }
  batch_stack.push_back(cur.GatherRows(batch_locals));

  std::vector<std::int32_t> active = batch_locals;
  tensor::Matrix next(support.nodes.size(), f);
  std::vector<char> bfs_visited(support.nodes.size(), 0);
  std::vector<std::int32_t> rows_to_compute;
  bool use_row_list = false;

  auto classify = [&](int depth, const std::vector<std::int32_t>& locals) {
    if (locals.empty()) return;
    auto tc = Clock::now();
    GatheredStack gathered;
    gathered.mats.reserve(depth + 1);
    for (int t = 0; t <= depth; ++t) {
      gathered.mats.push_back(batch_stack[t].GatherRows(locals));
    }
    const tensor::Matrix logits = config.int8_classifier
                                      ? quantized_->Logits(depth, gathered)
                                      : classifiers_->Logits(depth, gathered);
    const std::vector<std::int32_t> pred = tensor::ArgmaxRows(logits);
    for (std::size_t i = 0; i < locals.size(); ++i) {
      out_predictions[locals[i]] = pred[i];
      out_depths[locals[i]] = depth;
    }
    stats.classification_macs +=
        classifiers_->head(depth).ForwardMacs(locals.size());
    stats.classify_time_ms += MsSince(tc);
    stats.exits_at_depth[depth - 1] += static_cast<std::int64_t>(locals.size());
  };

  for (int l = 1; l <= t_max; ++l) {
    // Line 5: propagate one hop, but only for nodes that can still matter:
    // everything within (t_max - l) hops of the active batch nodes.
    auto tf = Clock::now();
    if (use_row_list) {
      graph::SpMMMappedRows(norm_adj_, support.nodes, g2l, cur,
                            rows_to_compute, next, ctx_);
      stats.propagation_macs +=
          RowListNnz(norm_adj_, support.nodes, rows_to_compute) *
          static_cast<std::int64_t>(f);
    } else {
      const std::int64_t limit = support.layer_counts[t_max - l];
      graph::SpMMMappedPrefix(norm_adj_, support.nodes, g2l, cur, limit,
                              next, ctx_);
      stats.propagation_macs +=
          prefix_nnz[limit] * static_cast<std::int64_t>(f);
    }
    std::swap(cur, next);
    stats.fp_time_ms += MsSince(tf);
    batch_stack.push_back(cur.GatherRows(batch_locals));

    if (l == t_max) {
      // Lines 16-17: everything still active is predicted by f^(T_max).
      classify(t_max, active);
      break;
    }
    if (l < t_min || !use_nap) continue;

    // Lines 9-13: evaluate the exit criterion on the active nodes.
    auto tn = Clock::now();
    const tensor::Matrix x_l_active = cur.GatherRows(active);
    const tensor::Matrix x_inf_active = x_inf.GatherRows(active);
    std::vector<bool> exit_now;
    if (config.nap == NapKind::kDistance) {
      exit_now = NapDistance(config.threshold, config.relative_distance)
                     .ShouldExit(x_l_active, x_inf_active);
      stats.nap_macs +=
          static_cast<std::int64_t>(active.size()) * static_cast<std::int64_t>(f);
    } else {
      exit_now = gates_->ShouldExit(l, x_l_active, x_inf_active,
                                    config.gate_bias);
      stats.nap_macs += gates_->DecisionMacs(active.size());
    }
    stats.fp_time_ms += MsSince(tn);

    std::vector<std::int32_t> exited, remaining;
    for (std::size_t i = 0; i < active.size(); ++i) {
      (exit_now[i] ? exited : remaining).push_back(active[i]);
    }
    classify(l, exited);
    active = std::move(remaining);
    if (active.empty()) break;

    if (config.shrink_active_support && !exited.empty()) {
      // The supporting set for the remaining hops only needs to cover the
      // still-active nodes' (t_max - l - 1)-hop neighborhoods.
      rows_to_compute = RadiusBfs(norm_adj_, support.nodes, g2l, active,
                                  t_max - l - 1, bfs_visited);
      use_row_list = true;
    }
  }
}

}  // namespace nai::core
