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
  return NaiEngine(std::move(snapshot), classifiers, options);
}

NaiEngine::NaiEngine(std::shared_ptr<const graph::GraphSnapshot> snapshot,
                     ClassifierStack& classifiers,
                     const EngineOptions& options)
    : snapshot_(std::move(snapshot)),
      norm_adj_(snapshot_->norm_adj()),
      classifiers_(&classifiers),
      quantized_(options.quantized),
      gates_(options.gates),
      ctx_(options.ctx),
      scratch_(norm_adj_) {
  if (options.use_stationary) stationary_ = BuildStationary(*snapshot_);
}

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
                         BatchScratch& scratch,
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
      InferBatch(batch, config, t_max, scratch, batch_pred, batch_depth,
                 stats);
      std::copy(batch_pred.begin(), batch_pred.end(),
                result.predictions.begin() + begin);
      std::copy(batch_depth.begin(), batch_depth.end(),
                result.exit_depths.begin() + begin);
    }
  };

  if (shards <= 1) {
    run_batches(0, num_batches, scratch_, result.stats);
  } else {
    // Contiguous shards of batches, one scratch and one local stats block
    // per shard; shard stats are merged in shard order afterwards.
    const std::size_t batches_per_shard = (num_batches + shards - 1) / shards;
    std::vector<InferenceStats> shard_stats(shards);
    for (InferenceStats& st : shard_stats) st.exits_at_depth.assign(t_max, 0);

    // Grain >= kMinChunkWork forces one shard per dispatched chunk.
    pool.ParallelFor(0, shards, runtime::ThreadPool::kMinChunkWork,
                     [&](std::size_t s0, std::size_t s1) {
      for (std::size_t s = s0; s < s1; ++s) {
        BatchScratch scratch(norm_adj_);
        const std::size_t first = s * batches_per_shard;
        run_batches(first, std::min(num_batches, first + batches_per_shard),
                    scratch, shard_stats[s]);
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

void NaiEngine::BatchScratch::Reset(int t_max) {
  const std::size_t levels = static_cast<std::size_t>(t_max) + 1;
  rows.resize(levels);
  values.resize(levels);
  computed.resize(levels);
  for (std::size_t j = 0; j < levels; ++j) {
    rows[j].clear();
    values[j].clear();
    computed[j].clear();
  }
  done.assign(levels, 0);
}

void NaiEngine::ExtendLevel(int level, std::int64_t prefix,
                            BatchScratch& scratch,
                            InferenceStats& stats) const {
  const graph::SupportSampler& sampler = scratch.sampler;
  const std::vector<std::int32_t>& nodes = sampler.support_nodes();
  const std::vector<std::int32_t>& ring = sampler.ring();
  std::vector<const float*>& rows = scratch.rows[level];
  std::vector<std::int32_t>& pending = scratch.pending;
  pending.clear();
  std::int64_t nnz = 0;
  for (std::int64_t i = scratch.done[level]; i < prefix; ++i) {
    const std::int32_t v = ring[i];
    if (rows[v] == nullptr) {
      pending.push_back(v);
      nnz += norm_adj_.RowNnz(nodes[v]);
    }
  }
  scratch.done[level] = prefix;
  if (pending.empty()) return;

  // Append exactly the new rows; when that moves the buffer, re-point the
  // rows already computed.
  const std::size_t f = snapshot_->feature_dim();
  std::vector<float>& values = scratch.values[level];
  std::vector<std::int32_t>& computed = scratch.computed[level];
  const float* old_base = values.data();
  values.reserve(values.size() + pending.size() * f);
  values.resize(values.size() + pending.size() * f);
  if (values.data() != old_base) {
    for (std::size_t s = 0; s < computed.size(); ++s) {
      rows[computed[s]] = values.data() + s * f;
    }
  }
  float* out = values.data() + computed.size() * f;
  graph::SpMMMappedGather(norm_adj_, nodes, sampler.global_to_local(),
                          scratch.rows[level - 1], pending, f, out, ctx_);
  for (std::size_t s = 0; s < pending.size(); ++s) {
    rows[pending[s]] = out + s * f;
  }
  computed.insert(computed.end(), pending.begin(), pending.end());
  stats.propagation_macs += nnz * static_cast<std::int64_t>(f);
}

void NaiEngine::InferBatch(const std::vector<std::int32_t>& batch,
                           const InferenceConfig& config, int t_max,
                           BatchScratch& scratch,
                           std::vector<std::int32_t>& out_predictions,
                           std::vector<std::int32_t>& out_depths,
                           InferenceStats& stats) {
  const std::size_t f = snapshot_->feature_dim();
  const std::size_t B = batch.size();
  const int t_min = std::clamp(config.t_min, 1, t_max);
  const bool use_nap = config.nap != NapKind::kNone;
  graph::SupportSampler& sampler = scratch.sampler;
  const std::vector<std::int32_t>& nodes = sampler.support_nodes();

  // Line 3, on demand: the supporting set starts as the batch (local rows
  // [0, B)) and grows ring by ring as the exit checks below need it.
  auto t0 = Clock::now();
  sampler.BeginSupport(batch);
  scratch.Reset(t_max);
  stats.sample_time_ms += MsSince(t0);

  // Line 2: stationary state X^(∞) for the batch (rank-1 form).
  tensor::Matrix x_inf;
  if (use_nap) {
    t0 = Clock::now();
    x_inf = stationary_->RowsForNodes(batch);
    stats.stationary_time_ms += MsSince(t0);
    stats.stationary_macs += static_cast<std::int64_t>(B) * f;
  }

  // Copies level `depth`'s rows of `locals` into a dense matrix.
  auto gather = [&](int depth, const std::vector<std::int32_t>& locals) {
    tensor::Matrix m(locals.size(), f);
    for (std::size_t i = 0; i < locals.size(); ++i) {
      const float* src = scratch.rows[depth][locals[i]];
      std::copy(src, src + f, m.row(i));
    }
    return m;
  };

  auto classify = [&](int depth, const std::vector<std::int32_t>& locals) {
    if (locals.empty()) return;
    auto tc = Clock::now();
    // The classifier heads of SIGN/S2GC/GAMLP consume the whole slice
    // X^(0..depth); every level holds the rows of active batch nodes.
    GatheredStack gathered;
    gathered.mats.reserve(depth + 1);
    for (int t = 0; t <= depth; ++t) gathered.mats.push_back(gather(t, locals));
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

  std::vector<std::int32_t> active(B);
  for (std::size_t i = 0; i < B; ++i) active[i] = static_cast<std::int32_t>(i);

  // Exit checks run at depths [t_min, t_max); the first depth anything is
  // demanded at is the first check, or t_max when no check runs.
  const int first_demand = use_nap && t_min < t_max ? t_min : t_max;
  for (int d = first_demand; d <= t_max; ++d) {
    // Ring d around the active nodes: level j needs its first d - j hops.
    t0 = Clock::now();
    while (sampler.radius() < d) sampler.GrowRing();
    const std::size_t mapped = scratch.rows[0].size();
    for (std::vector<const float*>& level : scratch.rows) {
      level.resize(nodes.size(), nullptr);
    }
    for (std::size_t v = mapped; v < nodes.size(); ++v) {
      scratch.rows[0][v] = snapshot_->feature_store->row(nodes[v]);
    }
    stats.sample_time_ms += MsSince(t0);

    // Line 5, for every level up to d: only the rows the check at d reads.
    auto tf = Clock::now();
    for (int j = 1; j <= d; ++j) {
      ExtendLevel(j, sampler.ring_counts()[d - j], scratch, stats);
    }
    stats.fp_time_ms += MsSince(tf);

    if (d == t_max) {
      // Lines 16-17: everything still active is predicted by f^(T_max).
      classify(t_max, active);
      break;
    }

    // Lines 9-13: evaluate the exit criterion on the active nodes.
    auto tn = Clock::now();
    const tensor::Matrix x_l_active = gather(d, active);
    const tensor::Matrix x_inf_active = x_inf.GatherRows(active);
    std::vector<bool> exit_now;
    if (config.nap == NapKind::kDistance) {
      exit_now = NapDistance(config.threshold, config.relative_distance)
                     .ShouldExit(x_l_active, x_inf_active);
      stats.nap_macs +=
          static_cast<std::int64_t>(active.size()) * static_cast<std::int64_t>(f);
    } else {
      exit_now = gates_->ShouldExit(d, x_l_active, x_inf_active,
                                    config.gate_bias);
      stats.nap_macs += gates_->DecisionMacs(active.size());
    }
    stats.fp_time_ms += MsSince(tn);

    std::vector<std::int32_t> exited, remaining;
    for (std::size_t i = 0; i < active.size(); ++i) {
      (exit_now[i] ? exited : remaining).push_back(active[i]);
    }
    classify(d, exited);
    active = std::move(remaining);
    if (active.empty()) break;

    if (!exited.empty()) {
      // The next check only needs the remaining nodes' neighborhoods:
      // re-derive the ring around them (rows computed so far stay valid).
      t0 = Clock::now();
      sampler.SeedRings(active);
      std::fill(scratch.done.begin(), scratch.done.end(), 0);
      stats.sample_time_ms += MsSince(t0);
    }
  }
}

}  // namespace nai::core
