#ifndef NAI_EVAL_HARNESS_H_
#define NAI_EVAL_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/classifier_stack.h"
#include "src/core/distillation.h"
#include "src/core/inference.h"
#include "src/core/nap_gate.h"
#include "src/core/sharded_inference.h"
#include "src/core/stationary.h"
#include "src/eval/datasets.h"
#include "src/eval/metrics.h"
#include "src/models/scalable_gnn.h"
#include "src/runtime/exec_context.h"
#include "src/serve/qos.h"
#include "src/serve/serving_engine.h"

namespace nai::eval {

/// Everything needed to train one NAI deployment on one dataset.
struct PipelineConfig {
  models::ModelKind kind = models::ModelKind::kSgc;
  int depth = 0;  ///< k; 0 = dataset default
  float gamma = 0.5f;
  std::vector<std::size_t> hidden_dims = {64};
  float dropout = -1.0f;  ///< <0 = dataset default
  core::DistillConfig distill;
  core::GateTrainConfig gate;
  bool train_gates = true;
  std::uint64_t seed = 42;
};

/// A trained NAI deployment: classifier bank, stationary states (training
/// graph for gate training, full graph for inference), optional gates, and
/// the training-graph propagated stack (kept for baseline distillation).
struct TrainedPipeline {
  models::ModelConfig model_config;
  std::unique_ptr<core::ClassifierStack> classifiers;
  std::unique_ptr<core::StationaryState> full_stationary;
  std::unique_ptr<core::GateStack> gates;
  std::vector<tensor::Matrix> train_stack;  ///< X^(0..k) on the train graph
  core::GatheredStack train_feats;          ///< same, as a GatheredStack
  /// INT8 twin of the classifier bank, quantized on first use (see
  /// QuantizedClassifiers) — what engines built by the Make*Engine
  /// factories serve kThroughputFirst / int8_classifier traffic with.
  std::unique_ptr<core::QuantizedClassifierStack> quantized;

  /// Teacher logits f^(k)(X^(k)) on the training rows (baseline distilling).
  tensor::Matrix TeacherLogits();

  /// The pipeline-owned INT8 classifier bank, quantizing the float bank on
  /// the first call. Not thread-safe (call during setup); the returned
  /// reference lives as long as the pipeline.
  core::QuantizedClassifierStack& QuantizedClassifiers();
};

/// Trains the full NAI pipeline (propagation, Inception Distillation, gate
/// training) on the dataset's training graph.
TrainedPipeline TrainPipeline(const PreparedDataset& ds,
                              const PipelineConfig& config);

/// Builds the version-0 snapshot the engine factories serve from, honoring
/// the NAI_STORE / --store backend selector (storage::DefaultBackend): mem
/// keeps the pooled in-memory store; mmap writes the snapshot to an
/// anonymous temp file in the storage::MmapStore layout, reopens it
/// mapped, and unlinks the path — the pages live only as the mapping, so
/// the whole process reads adjacency, weights and features out of core.
/// Engines built from the two backends are bit-identical (FeatureStore
/// rows are copied bit-for-bit).
std::shared_ptr<const graph::GraphSnapshot> MakeStoreSnapshot(
    TrainedPipeline& pipeline, const PreparedDataset& ds);

/// Builds the inference engine over the full graph (training + unseen
/// nodes) for a trained pipeline, via NaiEngine::FromSnapshot on a
/// MakeStoreSnapshot snapshot (so NAI_STORE / --store picks the storage
/// backend). `ctx` selects the thread pool the engine's kernels run on
/// (default pool — NAI_THREADS / --threads — when omitted).
std::unique_ptr<core::NaiEngine> MakeEngine(
    TrainedPipeline& pipeline, const PreparedDataset& ds,
    const runtime::ExecContext& ctx = {});

/// Builds the sharded serving engine (`--shards` flag path) over a
/// MakeStoreSnapshot snapshot, so NAI_STORE / --store picks the storage
/// backend and the engine (and a ServingEngine over it) accepts
/// SwapSnapshot / ApplyDeltas. The nodes are split into `num_shards`
/// balanced ownership ranges, each served by an engine over the whole
/// snapshot. Each shard gets an equal slice of `total_threads` (<= 0 =
/// default-pool size). Results are bit-identical to MakeEngine's (see
/// core::ShardedNaiEngine).
std::unique_ptr<core::ShardedNaiEngine> MakeShardedEngine(
    TrainedPipeline& pipeline, const PreparedDataset& ds, int num_shards,
    int total_threads = 0);

/// Deterministic update-churn generator: `num_deltas` batches against a
/// base graph of `base_nodes` nodes and `feature_dim`-wide features. Each
/// batch inserts `nodes_per_delta` new nodes (random features, each wired
/// to one existing node so it is servable), `edges_per_delta` random edges
/// among pre-existing nodes, and `feature_updates_per_delta` feature-row
/// replacements. Batches chain: delta d is valid against the base plus
/// deltas 0..d-1 — exactly what SnapshotBuilder::Apply and MergeFromScratch
/// both accept, so a bench can replay the same stream into the live engine
/// and the from-scratch oracle. Same seed, same stream.
std::vector<graph::GraphDelta> MakeChurnDeltas(
    std::int64_t base_nodes, std::int64_t feature_dim, std::size_t num_deltas,
    std::size_t nodes_per_delta, std::size_t edges_per_delta,
    std::size_t feature_updates_per_delta, std::uint64_t seed);

/// One named inference configuration (the paper's NAI^1, NAI^2, NAI^3).
struct NaiSetting {
  std::string name;
  core::InferenceConfig config;
};

/// Derives the three canonical accuracy/latency trade-off settings from the
/// distance distribution on the validation nodes: speed-first (small T_max),
/// balanced, and accuracy-first (T_max = k). Thresholds T_s are chosen as
/// quantiles of the depth-wise distance distribution, which is how a user
/// would calibrate them from a validation set.
std::vector<NaiSetting> MakeDefaultSettings(TrainedPipeline& pipeline,
                                            const PreparedDataset& ds,
                                            core::NapKind nap);

/// Builds the streaming front-end's QoS table the way a user would: from
/// the pipeline's validation-calibrated settings (MakeDefaultSettings).
/// The speed-first class gets the NAI^1 config under `speed_deadline_ms`;
/// accuracy-first gets the NAI^3 config under `accuracy_deadline_ms`;
/// throughput-first gets the NAI^1 config with the INT8 classifier under
/// `throughput_deadline_ms` and a 5% accuracy-delta budget. Engines the
/// table is deployed on must carry the pipeline's quantized bank — the
/// Make*Engine factories attach it.
serve::QosPolicyTable MakeQosPolicyTable(TrainedPipeline& pipeline,
                                         const PreparedDataset& ds,
                                         core::NapKind nap,
                                         double speed_deadline_ms = 20.0,
                                         double accuracy_deadline_ms = 200.0,
                                         double throughput_deadline_ms = 500.0);

/// How RunServing offers `nodes` to a ServingEngine.
struct ServingLoadConfig {
  /// > 0: open loop — requests arrive by a Poisson process at this rate
  /// (exponential inter-arrival gaps, non-blocking admission: a full queue
  /// sheds the request, which is the open-loop contract). 0: closed loop —
  /// `closed_loop_clients` workers each keep exactly one request in flight
  /// (blocking admission, no shedding).
  double arrival_rate_qps = 0.0;
  int closed_loop_clients = 4;
  /// Probability a request is submitted speed-first; of the remainder,
  /// `throughput_fraction` goes throughput-first and the rest go
  /// accuracy-first (one uniform draw per request:
  /// u < speed -> speed, u < speed + throughput -> throughput, else
  /// accuracy — so throughput_fraction = 0 reproduces the historical
  /// two-class stream bit-for-bit). Classes are drawn per node up front
  /// from `seed`, so the same seed targets the same mix in either loop
  /// mode.
  double speed_first_fraction = 1.0;
  /// Probability mass of the throughput-first (INT8) class; requires the
  /// served table to carry a kThroughputFirst policy the engine can
  /// validate (an attached quantized bank) when > 0.
  double throughput_fraction = 0.0;
  std::uint64_t seed = 42;

  /// Shard-skewed arrivals: submission order is stable-sorted by owning
  /// shard, so the load phases through one shard's queue at a time while
  /// the other pumps sit idle — the work-stealing scenario. Off = caller
  /// order (shard-uniform for a shuffled node list).
  bool skew_by_shard = false;
  /// On/off bursty arrivals (open loop only): Poisson arrivals at
  /// `arrival_rate_qps` during each `burst_on_ms` window, silence for the
  /// following `burst_off_ms` — the mean offered load is
  /// rate * on / (on + off), and each burst stresses the admission
  /// controller at the full peak rate. Either value <= 0 disables
  /// modulation (steady Poisson arrivals).
  double burst_on_ms = 0.0;
  double burst_off_ms = 0.0;

  /// Zipf(alpha) query skew: when > 0, requests are drawn from `nodes`
  /// *with replacement* — each draw targets nodes[j] with probability
  /// proportional to (j+1)^-alpha over caller order — instead of visiting
  /// every node exactly once. This is the hot-node scenario the result
  /// cache exists for: at alpha ~ 1 a handful of head nodes dominate the
  /// traffic. 0 (default) keeps the one-request-per-node sweep.
  double zipf_alpha = 0.0;
  /// Number of Zipf draws (only meaningful with zipf_alpha > 0);
  /// 0 = nodes.size().
  std::size_t num_requests = 0;

  /// Update churn: delta batches applied through ServingEngine::ApplyDeltas
  /// *while the load runs*, on a dedicated updater thread. Paced at
  /// `updates_per_sec` (<= 0 = back-to-back); each apply waits for its swap
  /// to complete before the next is submitted, and any batches the load
  /// outlives are applied after the last response — so the engine always
  /// ends the run on base + all updates, which is what lets a bench compare
  /// the final state against a from-scratch merge.
  std::vector<graph::GraphDelta> updates;
  double updates_per_sec = 0.0;
};

/// What one serving run produced. Vectors are request-aligned:
/// `predictions[t]` answers `nodes[request_indices[t]]` (-1 when request t
/// was shed or dropped) and `classes[t]` is the class it was submitted
/// under. Without Zipf sampling there is exactly one request per node and
/// `request_indices` is the identity, so `predictions[i]` answers
/// `nodes[i]` as before.
struct ServingRunReport {
  serve::ServingStatsSnapshot stats;
  double duration_ms = 0.0;   ///< first submission -> last completion
  double offered_qps = 0.0;   ///< open loop: the Poisson rate; closed: achieved
  double achieved_qps = 0.0;  ///< served requests / duration
  std::vector<std::int32_t> predictions;
  std::vector<serve::QosClass> classes;
  std::vector<std::size_t> request_indices;  ///< request t -> index into nodes

  /// Update-churn outcome (zero / empty when the load carried no updates).
  std::int64_t updates_applied = 0;
  double mean_update_ms = 0.0;   ///< mean ApplyDeltas build+swap wall time
  std::uint64_t final_epoch = 0; ///< engine graph version after the run
};

/// Drives one load-generation pass of `nodes` through the serving engine
/// and waits for every response. The engine is not shut down — callers can
/// run several passes (the stats snapshot is cumulative across them).
ServingRunReport RunServing(serve::ServingEngine& server,
                            const std::vector<std::int32_t>& nodes,
                            const ServingLoadConfig& load);

/// Result of running one method on the test set.
struct MethodResult {
  EvalRow row;
  core::InferenceStats stats;            ///< meaningful for NAI runs only
  std::vector<std::int32_t> predictions;
};

/// Runs the NAI engine under `config` on `nodes` and scores it.
MethodResult RunNai(core::NaiEngine& engine, const PreparedDataset& ds,
                    const std::vector<std::int32_t>& nodes,
                    const core::InferenceConfig& config,
                    const std::string& name);

/// Sharded-serving counterpart of RunNai: same scoring, queries routed
/// across the engine's shards.
MethodResult RunShardedNai(core::ShardedNaiEngine& engine,
                           const PreparedDataset& ds,
                           const std::vector<std::int32_t>& nodes,
                           const core::InferenceConfig& config,
                           const std::string& name);

/// Vanilla fixed-depth Scalable GNN (no NAP, no stationary computation).
MethodResult RunVanilla(core::NaiEngine& engine, const PreparedDataset& ds,
                        const std::vector<std::int32_t>& nodes,
                        std::size_t batch_size, const std::string& name);

/// Baseline runners (train + infer). Each distills from the pipeline's
/// teacher and evaluates on `nodes` of the full graph.
MethodResult RunGlnn(TrainedPipeline& pipeline, const PreparedDataset& ds,
                     const std::vector<std::int32_t>& nodes,
                     int hidden_multiplier);
MethodResult RunNosmog(TrainedPipeline& pipeline, const PreparedDataset& ds,
                       const std::vector<std::int32_t>& nodes);
MethodResult RunTinyGnn(TrainedPipeline& pipeline, const PreparedDataset& ds,
                        const std::vector<std::int32_t>& nodes);
MethodResult RunQuantized(TrainedPipeline& pipeline, const PreparedDataset& ds,
                          const std::vector<std::int32_t>& nodes,
                          std::size_t batch_size);

/// Prints a Table-VI style node-distribution line.
void PrintNodeDistribution(const std::string& label,
                           const core::InferenceStats& stats);

}  // namespace nai::eval

#endif  // NAI_EVAL_HARNESS_H_
