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

std::vector<ConfigGroup> GroupByConfig(
    const std::vector<ConfiguredQuery>& queries) {
  // The linear scan is fine — the serving front-end resolves QoS classes to
  // a handful of shared configs.
  std::vector<ConfigGroup> groups;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const ConfiguredQuery& q = queries[i];
    if (q.config == nullptr) {
      throw ValidationError("InferMixed: query " + std::to_string(i) +
                            " has no config");
    }
    std::size_t g = 0;
    while (g < groups.size() && groups[g].config != q.config) ++g;
    if (g == groups.size()) groups.push_back({q.config, {}, {}});
    groups[g].nodes.push_back(q.node);
    groups[g].slots.push_back(i);
  }
  return groups;
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

void NaiEngine::ValidateConfig(const InferenceConfig& config) const {
  if (config.int8_classifier && quantized_ == nullptr) {
    throw ValidationError(
        "NaiEngine: config requests the int8 classifier but no "
        "QuantizedClassifierStack is attached");
  }
  if (config.nap != NapKind::kNone && !stationary_.has_value()) {
    throw ValidationError(
        "NaiEngine: NAPd/NAPg configs need a stationary state but the "
        "engine was built with use_stationary = false");
  }
  if (config.nap == NapKind::kGate && gates_ == nullptr) {
    throw ValidationError(
        "NaiEngine: NAPg config but the engine was built without gates "
        "(EngineOptions::gates)");
  }
}

InferenceResult NaiEngine::Infer(const std::vector<std::int32_t>& nodes,
                                 const InferenceConfig& config) {
  const auto run_start = Clock::now();
  const int k = classifiers_->depth();
  const int t_max = config.effective_t_max(k);
  assert(t_max >= 1);
  ValidateConfig(config);

  InferenceResult result;
  result.predictions.resize(nodes.size());
  result.exit_depths.resize(nodes.size());
  result.stats.num_nodes = static_cast<std::int64_t>(nodes.size());
  result.stats.exits_at_depth.assign(t_max, 0);

  const std::size_t bs = std::max<std::size_t>(1, config.batch_size);

  // Pin the whole run — including kernels deep in the classifier forward
  // pass that only see default ExecContexts — to this engine's pool.
  runtime::ScopedDefaultPool scoped_pool(ctx_.pool_or_default());
  for (std::size_t begin = 0; begin < nodes.size(); begin += bs) {
    const std::size_t end = std::min(nodes.size(), begin + bs);
    const std::vector<std::int32_t> batch(nodes.begin() + begin,
                                          nodes.begin() + end);
    InferBatch(batch, config, t_max, result.predictions.data() + begin,
               result.exit_depths.data() + begin, result.stats);
  }
  result.stats.wall_time_ms = MsSince(run_start);
  return result;
}

InferenceResult NaiEngine::InferMixed(
    const std::vector<ConfiguredQuery>& queries) {
  const auto run_start = Clock::now();
  InferenceResult result;
  result.predictions.resize(queries.size());
  result.exit_depths.resize(queries.size());
  result.stats.num_nodes = static_cast<std::int64_t>(queries.size());
  for (const ConfigGroup& group : GroupByConfig(queries)) {
    InferenceResult local = Infer(group.nodes, *group.config);
    for (std::size_t j = 0; j < group.slots.size(); ++j) {
      result.predictions[group.slots[j]] = local.predictions[j];
      result.exit_depths[group.slots[j]] = local.exit_depths[j];
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
                            InferenceStats& stats) {
  BatchScratch& scratch = scratch_;
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
                           std::int32_t* out_predictions,
                           std::int32_t* out_depths, InferenceStats& stats) {
  BatchScratch& scratch = scratch_;
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
      ExtendLevel(j, sampler.ring_counts()[d - j], stats);
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
