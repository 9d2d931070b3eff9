#include "src/eval/harness.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>
#include <utility>

#include "src/baselines/glnn.h"
#include "src/baselines/nosmog.h"
#include "src/baselines/quantization.h"
#include "src/baselines/tinygnn.h"
#include "src/graph/normalize.h"
#include "src/graph/shard.h"
#include "src/runtime/error.h"
#include "src/storage/mmap_store.h"
#include "src/storage/store.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"

namespace nai::eval {

tensor::Matrix TrainedPipeline::TeacherLogits() {
  return classifiers->Logits(model_config.depth, train_feats);
}

TrainedPipeline TrainPipeline(const PreparedDataset& ds,
                              const PipelineConfig& config) {
  TrainedPipeline out;
  out.model_config.kind = config.kind;
  out.model_config.depth =
      config.depth > 0 ? config.depth : ds.default_depth;
  out.model_config.gamma = config.gamma;
  out.model_config.feature_dim = ds.data.features.cols();
  out.model_config.num_classes = ds.data.num_classes;
  out.model_config.hidden_dims = config.hidden_dims;
  out.model_config.dropout =
      config.dropout >= 0.0f ? config.dropout : ds.default_dropout;

  // Step 1 (Fig. 2): offline feature propagation on the training graph.
  const graph::Csr train_adj =
      graph::NormalizedAdjacency(ds.split.train_graph, config.gamma);
  out.train_stack = models::PropagateStack(train_adj, ds.train_features,
                                           out.model_config.depth);
  out.train_feats.mats = out.train_stack;

  // Steps 2-4: base training + Inception Distillation.
  out.classifiers =
      std::make_unique<core::ClassifierStack>(out.model_config, config.seed);
  core::InceptionDistillation distiller(*out.classifiers, config.distill);
  distiller.TrainAll(out.train_feats, ds.train_labels,
                     ds.split.labeled_local);

  // Stationary states: the training graph's for gate training, the full
  // inference graph's for deployment (Algorithm 1 line 2).
  out.full_stationary = std::make_unique<core::StationaryState>(
      ds.data.graph, ds.data.features, config.gamma);

  if (config.train_gates && out.model_config.depth >= 2) {
    // Calibrate the gates on the *validation nodes in the deployment
    // graph*. Two failure modes force this choice: (a) the classifiers
    // were fitted on the training rows, and (b) Single-Scale Distillation
    // explicitly teaches f^(1) to mimic the deep teacher on train-graph
    // features — so on the training stack "stop at depth 1" always looks
    // optimal and every gate collapses to it. The depth trade-off the
    // gates must learn only exists on serving-time features; validation
    // nodes propagated in the full graph expose it without touching test
    // labels (the paper's validation-based tuning protocol).
    const graph::Csr full_adj =
        graph::NormalizedAdjacency(ds.data.graph, config.gamma);
    const std::vector<tensor::Matrix> full_stack = models::PropagateStack(
        full_adj, ds.data.features, out.model_config.depth);
    const std::vector<std::int32_t>& gate_rows =
        !ds.split.val_nodes.empty() ? ds.split.val_nodes
                                    : ds.split.train_nodes;
    std::vector<std::int32_t> gate_labels(gate_rows.size());
    for (std::size_t i = 0; i < gate_rows.size(); ++i) {
      gate_labels[i] = ds.data.labels[gate_rows[i]];
    }
    out.gates = std::make_unique<core::GateStack>(
        out.model_config.depth, out.model_config.feature_dim,
        config.gate.seed);
    out.gates->Train(full_stack,
                     out.full_stationary->RowsForNodes(gate_rows),
                     *out.classifiers, gate_rows, gate_labels, config.gate);
  }
  return out;
}

core::QuantizedClassifierStack& TrainedPipeline::QuantizedClassifiers() {
  if (quantized == nullptr) {
    quantized =
        std::make_unique<core::QuantizedClassifierStack>(*classifiers);
  }
  return *quantized;
}

std::shared_ptr<const graph::GraphSnapshot> MakeStoreSnapshot(
    TrainedPipeline& pipeline, const PreparedDataset& ds) {
  std::shared_ptr<const graph::GraphSnapshot> snapshot = graph::MakeSnapshot(
      ds.data.graph, ds.data.features, pipeline.model_config.gamma);
  if (storage::DefaultBackend() != storage::StoreBackend::kMmap) {
    return snapshot;
  }
  // Spill the snapshot to the on-disk layout, reopen it mapped, and unlink
  // the path: the pages survive only as the mapping, so the run serves out
  // of core without leaving files behind even on a crash.
  char path[] = "/tmp/nai_store_XXXXXX";
  const int fd = ::mkstemp(path);
  if (fd < 0) throw IoError("MakeStoreSnapshot: mkstemp failed for " +
                            std::string(path));
  ::close(fd);
  try {
    storage::SaveStore(*snapshot->graph_store, *snapshot->feature_store, path);
    auto store = std::make_shared<storage::MmapStore>(path);
    ::unlink(path);
    return graph::MakeSnapshotFromStore(store, store, snapshot->version);
  } catch (...) {
    ::unlink(path);
    throw;
  }
}

std::unique_ptr<core::NaiEngine> MakeEngine(TrainedPipeline& pipeline,
                                            const PreparedDataset& ds,
                                            const runtime::ExecContext& ctx) {
  core::EngineOptions options;
  options.gates = pipeline.gates.get();
  options.quantized = &pipeline.QuantizedClassifiers();
  options.ctx = ctx;
  return std::make_unique<core::NaiEngine>(core::NaiEngine::FromSnapshot(
      MakeStoreSnapshot(pipeline, ds), *pipeline.classifiers, options));
}

std::unique_ptr<core::ShardedNaiEngine> MakeShardedEngine(
    TrainedPipeline& pipeline, const PreparedDataset& ds, int num_shards,
    int total_threads) {
  std::shared_ptr<const graph::GraphSnapshot> snapshot =
      MakeStoreSnapshot(pipeline, ds);
  graph::ShardedGraph sharded = graph::MakeShards(snapshot->adj(), num_shards);
  auto engine = std::make_unique<core::ShardedNaiEngine>(
      std::move(snapshot), std::move(sharded), *pipeline.classifiers,
      pipeline.gates.get(), /*use_stationary=*/true, total_threads);
  engine->AttachQuantizedClassifiers(&pipeline.QuantizedClassifiers());
  return engine;
}

std::vector<graph::GraphDelta> MakeChurnDeltas(
    std::int64_t base_nodes, std::int64_t feature_dim, std::size_t num_deltas,
    std::size_t nodes_per_delta, std::size_t edges_per_delta,
    std::size_t feature_updates_per_delta, std::uint64_t seed) {
  tensor::Rng rng(seed);
  auto random_row = [&] {
    std::vector<float> row(static_cast<std::size_t>(feature_dim));
    for (float& v : row) v = rng.NextFloat() * 2.0f - 1.0f;
    return row;
  };
  std::vector<graph::GraphDelta> deltas;
  deltas.reserve(num_deltas);
  std::int64_t n = base_nodes;  // node count the next delta applies against
  for (std::size_t d = 0; d < num_deltas; ++d) {
    graph::GraphDelta delta;
    for (std::size_t i = 0; i < nodes_per_delta; ++i) {
      const std::int32_t id = delta.AddNode(random_row(), n);
      // Wire each new node to one pre-existing node so it lands inside a
      // shard's connected neighborhood (and is servable, not isolated).
      delta.AddEdge(id, static_cast<std::int32_t>(
                            rng.NextDouble() * static_cast<double>(n)));
    }
    for (std::size_t i = 0; i < edges_per_delta; ++i) {
      // Among pre-existing nodes; self-loops and duplicates of existing
      // edges are dropped by the builder, which keeps the generator simple.
      delta.AddEdge(static_cast<std::int32_t>(rng.NextDouble() *
                                              static_cast<double>(n)),
                    static_cast<std::int32_t>(rng.NextDouble() *
                                              static_cast<double>(n)));
    }
    for (std::size_t i = 0; i < feature_updates_per_delta; ++i) {
      delta.UpdateFeatures(static_cast<std::int32_t>(
                               rng.NextDouble() * static_cast<double>(n)),
                           random_row());
    }
    n += static_cast<std::int64_t>(delta.node_inserts.size());
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

std::vector<NaiSetting> MakeDefaultSettings(TrainedPipeline& pipeline,
                                            const PreparedDataset& ds,
                                            core::NapKind nap) {
  const int k = pipeline.model_config.depth;

  // Distance quantiles at depth 1 over the validation nodes, computed on
  // the full graph (structure is known at deployment; labels unused).
  const graph::Csr full_adj =
      graph::NormalizedAdjacency(ds.data.graph, pipeline.model_config.gamma);
  const tensor::Matrix x1 = graph::SpMM(full_adj, ds.data.features);
  const tensor::Matrix x1_val = x1.GatherRows(ds.split.val_nodes);
  const tensor::Matrix xinf_val =
      pipeline.full_stationary->RowsForNodes(ds.split.val_nodes);
  // Quantiles of the scale-free (relative) distance, matching the deployed
  // exit criterion below.
  std::vector<float> dist = core::NapDistance(0.0f, /*relative=*/true)
                                .ComputeDistances(x1_val, xinf_val);
  std::sort(dist.begin(), dist.end());
  auto quantile = [&](double q) {
    if (dist.empty()) return 0.0f;
    const std::size_t idx = std::min(
        dist.size() - 1, static_cast<std::size_t>(q * (dist.size() - 1)));
    return dist[idx];
  };

  std::vector<NaiSetting> settings;
  {  // Speed-first: shallow T_max, permissive threshold. For the gates the
     // floor is depth 2: Inception Distillation makes f^(1) match the
     // teacher on observed labels, so CE-trained gates stop at 1 unless
     // floored — the paper's NAI1g distributions show the same depth-2
     // concentration.
    NaiSetting s;
    s.name = "NAI1";
    s.config.nap = nap;
    s.config.relative_distance = true;
    s.config.threshold = quantile(0.15);
    s.config.t_min = nap == core::NapKind::kGate ? std::min(2, k) : 1;
    s.config.t_max = std::min(2, k);
    settings.push_back(s);
  }
  {  // Balanced.
    NaiSetting s;
    s.name = "NAI2";
    s.config.nap = nap;
    s.config.relative_distance = true;
    s.config.threshold = quantile(0.15);
    s.config.t_min = std::min(2, k);
    s.config.t_max = std::min(std::max(3, k - 2), k);
    settings.push_back(s);
  }
  {  // Accuracy-first: full depth available, strict threshold.
    NaiSetting s;
    s.name = "NAI3";
    s.config.nap = nap;
    s.config.relative_distance = true;
    s.config.threshold = quantile(0.05);
    s.config.t_min = std::min(2, k);
    s.config.t_max = k;
    settings.push_back(s);
  }
  return settings;
}

serve::QosPolicyTable MakeQosPolicyTable(TrainedPipeline& pipeline,
                                         const PreparedDataset& ds,
                                         core::NapKind nap,
                                         double speed_deadline_ms,
                                         double accuracy_deadline_ms,
                                         double throughput_deadline_ms) {
  // Reuse the validation-calibrated trade-off settings: NAI^1 is the
  // speed-first operating point, NAI^3 the accuracy-first one;
  // throughput-first is NAI^1 with the INT8 classifier bank.
  const std::vector<NaiSetting> settings =
      MakeDefaultSettings(pipeline, ds, nap);
  serve::QosPolicyTable table;
  serve::QosPolicy& speed = table.For(serve::QosClass::kSpeedFirst);
  speed.config = settings.front().config;
  speed.default_deadline_ms = speed_deadline_ms;
  serve::QosPolicy& accuracy = table.For(serve::QosClass::kAccuracyFirst);
  accuracy.config = settings.back().config;
  accuracy.default_deadline_ms = accuracy_deadline_ms;
  serve::QosPolicy& throughput = table.For(serve::QosClass::kThroughputFirst);
  throughput.config = speed.config;
  throughput.config.int8_classifier = true;
  throughput.default_deadline_ms = throughput_deadline_ms;
  throughput.accuracy_delta_budget = 0.05;
  return table;
}

ServingRunReport RunServing(serve::ServingEngine& server,
                            const std::vector<std::int32_t>& nodes,
                            const ServingLoadConfig& load) {
  using Clock = std::chrono::steady_clock;
  ServingRunReport report;
  const std::size_t n = nodes.size();
  tensor::Rng rng(load.seed);

  // The request plan: one request per node in caller order, or — under
  // Zipf skew — draws *with replacement*, head-weighted by caller order
  // (inverse-CDF over the normalized (j+1)^-alpha weights). Everything
  // downstream is request-aligned through report.request_indices, which
  // is the identity in the one-per-node mode.
  std::vector<std::size_t>& idx = report.request_indices;
  if (load.zipf_alpha > 0.0 && n > 0) {
    const std::size_t m = load.num_requests > 0 ? load.num_requests : n;
    std::vector<double> cdf(n);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      total += std::pow(static_cast<double>(j + 1), -load.zipf_alpha);
      cdf[j] = total;
    }
    idx.reserve(m);
    for (std::size_t t = 0; t < m; ++t) {
      const double u = rng.NextDouble() * total;
      std::size_t j = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      if (j >= n) j = n - 1;  // u landed exactly on the total
      idx.push_back(j);
    }
  } else {
    idx.resize(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  }
  const std::size_t m = idx.size();
  report.predictions.assign(m, -1);
  report.classes.resize(m);
  for (std::size_t t = 0; t < m; ++t) {
    // One uniform draw splits the three classes; with throughput_fraction
    // at its 0 default the second branch never fires and the class stream
    // is bit-identical to the historical speed/accuracy-only draw.
    const double u = rng.NextDouble();
    report.classes[t] =
        u < load.speed_first_fraction ? serve::QosClass::kSpeedFirst
        : u < load.speed_first_fraction + load.throughput_fraction
            ? serve::QosClass::kThroughputFirst
            : serve::QosClass::kAccuracyFirst;
  }
  if (m == 0) {
    // No load to interleave with — still honor the update stream so the
    // engine ends on base + all updates.
    double update_ms = 0.0;
    for (const graph::GraphDelta& delta : load.updates) {
      update_ms += server.ApplyDeltas(delta).get().apply_ms;
      ++report.updates_applied;
    }
    report.mean_update_ms =
        report.updates_applied > 0
            ? update_ms / static_cast<double>(report.updates_applied)
            : 0.0;
    report.final_epoch = server.engine().version();
    report.stats = server.Stats();
    return report;
  }

  // Submission order: request order, or phased through one shard at a time
  // (skewed load — the steal scenario). The stable sort keeps the
  // requests' relative order within a shard, so runs stay reproducible.
  std::vector<std::size_t> order(m);
  for (std::size_t t = 0; t < m; ++t) order[t] = t;
  if (load.skew_by_shard) {
    const std::vector<std::int32_t>& owner =
        server.engine().sharded_graph().owner;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return owner[nodes[idx[a]]] < owner[nodes[idx[b]]];
                     });
  }

  const Clock::time_point start = Clock::now();

  // Update churn: one dedicated updater thread feeds the delta batches
  // through ApplyDeltas while the load runs, paced against the wall clock
  // (each apply waits for its swap before the next is due, so the applied
  // rate saturates at 1/apply_ms no matter what was asked for). Batches
  // the load outlives are applied back-to-back at the end — the engine
  // always finishes on base + all updates.
  std::atomic<bool> load_done{false};
  std::int64_t updates_applied = 0;
  double update_ms_total = 0.0;
  std::thread updater;
  if (!load.updates.empty()) {
    updater = std::thread([&] {
      const double gap_us =
          load.updates_per_sec > 0.0 ? 1e6 / load.updates_per_sec : 0.0;
      for (std::size_t d = 0; d < load.updates.size(); ++d) {
        if (gap_us > 0.0 && !load_done.load(std::memory_order_acquire)) {
          std::this_thread::sleep_until(
              start + std::chrono::microseconds(static_cast<std::int64_t>(
                          gap_us * static_cast<double>(d + 1))));
        }
        const serve::DeltaApplyReport applied =
            server.ApplyDeltas(load.updates[d]).get();
        ++updates_applied;
        update_ms_total += applied.apply_ms;
      }
    });
  }

  if (load.arrival_rate_qps > 0.0) {
    // Open loop: one generator thread paces Poisson arrivals against the
    // wall clock (sleep_until, so service time never stretches the
    // schedule) and never blocks on admission — a full queue sheds the
    // request, keeping the offered load honest under overload.
    //
    // Bursty modulation maps the Poisson "busy clock" onto the wall
    // clock: every burst_on_ms of arrivals is followed by burst_off_ms of
    // silence, so within a burst the instantaneous rate is the full
    // arrival_rate_qps.
    const bool bursty = load.burst_on_ms > 0.0 && load.burst_off_ms > 0.0;
    std::vector<std::pair<std::size_t, std::future<serve::Response>>>
        in_flight;
    in_flight.reserve(m);
    double arrival_us = 0.0;
    for (const std::size_t t : order) {
      arrival_us += -std::log(1.0 - rng.NextDouble()) * 1e6 /
                    load.arrival_rate_qps;
      double wall_us = arrival_us;
      if (bursty) {
        const double on_us = 1e3 * load.burst_on_ms;
        const double off_us = 1e3 * load.burst_off_ms;
        wall_us += std::floor(arrival_us / on_us) * off_us;
      }
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(
                      static_cast<std::int64_t>(wall_us)));
      std::optional<std::future<serve::Response>> future =
          server.TrySubmit(nodes[idx[t]], report.classes[t]);
      if (future.has_value()) in_flight.emplace_back(t, std::move(*future));
    }
    for (auto& [t, future] : in_flight) {
      const serve::Response response = future.get();
      if (response.served) report.predictions[t] = response.prediction;
    }
  } else {
    // Closed loop: each client keeps exactly one request in flight.
    // Workers write disjoint slots of report.predictions (one per claimed
    // index), so no synchronization beyond the claim counter is needed.
    const int clients = std::max(1, load.closed_loop_clients);
    std::atomic<std::size_t> next{0};
    auto client = [&] {
      while (true) {
        const std::size_t slot = next.fetch_add(1);
        if (slot >= m) return;
        const std::size_t t = order[slot];
        const serve::Response response =
            server.Submit(nodes[idx[t]], report.classes[t]).get();
        if (response.served) report.predictions[t] = response.prediction;
      }
    };
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (int c = 0; c < clients; ++c) workers.emplace_back(client);
    for (std::thread& w : workers) w.join();
  }
  report.duration_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  if (updater.joinable()) {
    load_done.store(true, std::memory_order_release);
    updater.join();
    report.updates_applied = updates_applied;
    report.mean_update_ms =
        updates_applied > 0
            ? update_ms_total / static_cast<double>(updates_applied)
            : 0.0;
  }
  report.final_epoch = server.engine().version();

  std::int64_t served = 0;
  for (const std::int32_t p : report.predictions) served += p >= 0 ? 1 : 0;
  report.achieved_qps = report.duration_ms > 0.0
                            ? 1000.0 * static_cast<double>(served) /
                                  report.duration_ms
                            : 0.0;
  report.offered_qps = load.arrival_rate_qps > 0.0 ? load.arrival_rate_qps
                                                   : report.achieved_qps;
  report.stats = server.Stats();
  return report;
}

namespace {

/// Scores one engine run: NAI cost counters + accuracy row. Shared by the
/// plain and sharded paths so both report identically.
MethodResult ScoreNaiRun(core::InferenceResult result,
                         const PreparedDataset& ds,
                         const std::vector<std::int32_t>& nodes,
                         const std::string& name) {
  MethodResult out;
  out.stats = result.stats;
  out.predictions = std::move(result.predictions);
  CostCounters cost;
  cost.total_macs = out.stats.total_macs();
  cost.fp_macs = out.stats.fp_macs();
  // Wall-clock, not the sum of stage timers: with sharding the per-shard
  // busy times overlap and their sum would overstate latency.
  cost.total_time_ms = out.stats.wall_time_ms;
  cost.fp_time_ms = out.stats.fp_time_ms;
  out.row = MakeRow(name,
                    AccuracyOnNodes(out.predictions, ds.data.labels, nodes),
                    cost, static_cast<std::int64_t>(nodes.size()));
  return out;
}

}  // namespace

MethodResult RunNai(core::NaiEngine& engine, const PreparedDataset& ds,
                    const std::vector<std::int32_t>& nodes,
                    const core::InferenceConfig& config,
                    const std::string& name) {
  return ScoreNaiRun(engine.Infer(nodes, config), ds, nodes, name);
}

MethodResult RunShardedNai(core::ShardedNaiEngine& engine,
                           const PreparedDataset& ds,
                           const std::vector<std::int32_t>& nodes,
                           const core::InferenceConfig& config,
                           const std::string& name) {
  return ScoreNaiRun(engine.Infer(nodes, config), ds, nodes, name);
}

MethodResult RunVanilla(core::NaiEngine& engine, const PreparedDataset& ds,
                        const std::vector<std::int32_t>& nodes,
                        std::size_t batch_size, const std::string& name) {
  core::InferenceConfig config;
  config.nap = core::NapKind::kNone;
  config.t_max = 0;  // full depth k
  config.batch_size = batch_size;
  return RunNai(engine, ds, nodes, config, name);
}

namespace {

MethodResult FinishBaseline(const std::string& name,
                            const PreparedDataset& ds,
                            const std::vector<std::int32_t>& nodes,
                            std::vector<std::int32_t> predictions,
                            const CostCounters& cost) {
  MethodResult out;
  out.predictions = std::move(predictions);
  out.row = MakeRow(name,
                    AccuracyOnNodes(out.predictions, ds.data.labels, nodes),
                    cost, static_cast<std::int64_t>(nodes.size()));
  return out;
}

}  // namespace

MethodResult RunGlnn(TrainedPipeline& pipeline, const PreparedDataset& ds,
                     const std::vector<std::int32_t>& nodes,
                     int hidden_multiplier) {
  baselines::GlnnConfig config;
  for (const std::size_t h : pipeline.model_config.hidden_dims) {
    config.hidden_dims.push_back(h * hidden_multiplier);
  }
  if (config.hidden_dims.empty()) config.hidden_dims.push_back(128);
  config.dropout = pipeline.model_config.dropout;
  baselines::Glnn glnn(ds.data.features.cols(), ds.data.num_classes, config);
  glnn.Train(ds.train_features, pipeline.TeacherLogits(), ds.train_labels,
             ds.split.labeled_local);
  baselines::GlnnResult r = glnn.Infer(ds.data.features.GatherRows(nodes));
  return FinishBaseline("GLNN", ds, nodes, std::move(r.predictions), r.cost);
}

MethodResult RunNosmog(TrainedPipeline& pipeline, const PreparedDataset& ds,
                       const std::vector<std::int32_t>& nodes) {
  baselines::NosmogConfig config;
  config.hidden_dims = pipeline.model_config.hidden_dims;
  if (config.hidden_dims.empty()) config.hidden_dims.push_back(64);
  config.dropout = pipeline.model_config.dropout;
  baselines::Nosmog nosmog(ds.data.features.cols(), ds.data.num_classes,
                           config);
  nosmog.Train(ds.split.train_graph, ds.train_features,
               pipeline.TeacherLogits(), ds.train_labels,
               ds.split.labeled_local);
  baselines::NosmogResult r = nosmog.Infer(ds.data.graph, ds.data.features,
                                           ds.split.train_nodes, nodes);
  return FinishBaseline("NOSMOG", ds, nodes, std::move(r.predictions),
                        r.cost);
}

MethodResult RunTinyGnn(TrainedPipeline& pipeline, const PreparedDataset& ds,
                        const std::vector<std::int32_t>& nodes) {
  baselines::TinyGnnConfig config;
  config.attention_dim = ds.data.features.cols();
  config.hidden_dims = pipeline.model_config.hidden_dims;
  if (config.hidden_dims.empty()) config.hidden_dims.push_back(64);
  config.dropout = pipeline.model_config.dropout;
  baselines::TinyGnn tiny(ds.data.features.cols(), ds.data.num_classes,
                          config);
  tiny.Train(ds.split.train_graph, ds.train_features,
             pipeline.TeacherLogits(), ds.train_labels,
             ds.split.labeled_local);
  baselines::TinyGnnResult r =
      tiny.Infer(ds.data.graph, ds.data.features, nodes);
  return FinishBaseline("TinyGNN", ds, nodes, std::move(r.predictions),
                        r.cost);
}

MethodResult RunQuantized(TrainedPipeline& pipeline, const PreparedDataset& ds,
                          const std::vector<std::int32_t>& nodes,
                          std::size_t batch_size) {
  const int k = pipeline.model_config.depth;
  models::DepthHead& head = pipeline.classifiers->head(k);
  const nn::QuantizedMlp qmlp(head.classifier_mlp());
  baselines::QuantizedInferResult r = baselines::QuantizedScalableInfer(
      ds.data.graph, ds.data.features, pipeline.model_config.gamma, k, head,
      qmlp, nodes, batch_size);
  return FinishBaseline("Quantization", ds, nodes, std::move(r.predictions),
                        r.cost);
}

void PrintNodeDistribution(const std::string& label,
                           const core::InferenceStats& stats) {
  std::printf("%-10s [", label.c_str());
  for (std::size_t l = 0; l < stats.exits_at_depth.size(); ++l) {
    std::printf("%s%lld", l == 0 ? "" : ", ",
                static_cast<long long>(stats.exits_at_depth[l]));
  }
  std::printf("]  avg depth %.2f\n", stats.average_depth());
}

}  // namespace nai::eval
