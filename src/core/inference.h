#ifndef NAI_CORE_INFERENCE_H_
#define NAI_CORE_INFERENCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/classifier_stack.h"
#include "src/core/nap_distance.h"
#include "src/core/nap_gate.h"
#include "src/core/stationary.h"
#include "src/graph/delta.h"
#include "src/graph/sampler.h"
#include "src/runtime/exec_context.h"
#include "src/storage/store.h"

namespace nai::core {

/// Which Node-Adaptive Propagation module terminates propagation.
enum class NapKind {
  kNone,      ///< fixed-depth propagation to t_max ("NAI w/o NAP" / vanilla)
  kDistance,  ///< NAPd: explicit distance to the stationary state (Eq. 8-9)
  kGate,      ///< NAPg: learned gates (Eq. 11-13)
};

/// Inference-time hyper-parameters (Algorithm 1).
struct InferenceConfig {
  NapKind nap = NapKind::kDistance;
  float threshold = 0.1f;   ///< T_s for NAPd
  /// Scale-free NAPd distances (see NapDistance); false = plain Eq. 8.
  bool relative_distance = false;
  float gate_bias = 0.0f;   ///< optional stop-logit bias for NAPg (0 = paper)
  int t_min = 1;            ///< minimum propagation depth T_min
  int t_max = 0;            ///< maximum propagation depth T_max (0 = use k)
  std::size_t batch_size = 500;
  /// Classify exited nodes with the engine's attached INT8 classifier bank
  /// (QuantizedClassifierStack) instead of the float heads — the arithmetic
  /// of the serving tier kThroughputFirst. Propagation and NAP decisions
  /// stay in float, so exit depths are unchanged; only the classifier MLP
  /// runs INT8. Engines reject configs with this set when no quantized
  /// stack is attached (nai::ValidationError).
  bool int8_classifier = false;

  /// The depth the engine actually propagates to for a classifier bank of
  /// depth `k` (t_max = 0 means "use k"; larger values clamp to k). The one
  /// resolution rule shared by NaiEngine and ShardedNaiEngine.
  int effective_t_max(int k) const {
    return t_max <= 0 || t_max > k ? k : t_max;
  }
};

/// Cost and behaviour counters for one inference run. MACs are
/// multiply-accumulate counts of what the engine actually executed.
struct InferenceStats {
  std::int64_t num_nodes = 0;
  std::int64_t propagation_macs = 0;    ///< online SpMM work
  std::int64_t nap_macs = 0;            ///< distance or gate decisions
  std::int64_t stationary_macs = 0;     ///< X^(∞) rows (rank-1 form)
  std::int64_t classification_macs = 0; ///< classifier forward passes
  /// Per-stage timers are *busy* times summed over batches (for a
  /// ShardedNaiEngine run, batches that ran concurrently); use wall_time_ms
  /// for latency.
  double fp_time_ms = 0.0;              ///< propagation + NAP decisions
  double sample_time_ms = 0.0;          ///< supporting-node sampling
  double stationary_time_ms = 0.0;
  double classify_time_ms = 0.0;
  /// Elapsed wall-clock of the whole Infer call (never summed per batch).
  double wall_time_ms = 0.0;
  /// exits_at_depth[l-1] = nodes predicted by f^(l) (Table VI rows).
  std::vector<std::int64_t> exits_at_depth;

  std::int64_t total_macs() const {
    return propagation_macs + nap_macs + stationary_macs +
           classification_macs;
  }
  std::int64_t fp_macs() const { return propagation_macs + nap_macs; }
  double total_time_ms() const {
    return fp_time_ms + sample_time_ms + stationary_time_ms +
           classify_time_ms;
  }
  double average_depth() const;

  /// Adds `other`'s counters, stage timers and per-depth exit histogram
  /// into this one (num_nodes and wall_time_ms excluded — they describe
  /// the whole run, not a part). Used to merge per-config-group and
  /// per-batch stats deterministically; all integer counters are
  /// order-independent.
  void Accumulate(const InferenceStats& other);
};

/// One query bound to the inference configuration it must be served with —
/// the unit of work of the streaming front-end (src/serve/), where QoS
/// classes resolve to per-request configs. `config` is borrowed and must
/// outlive the InferMixed call; queries sharing a config pointer are
/// co-batched.
struct ConfiguredQuery {
  std::int32_t node = 0;
  const InferenceConfig* config = nullptr;
};

/// The queries of one InferMixed call that share a config pointer.
struct ConfigGroup {
  const InferenceConfig* config = nullptr;
  std::vector<std::int32_t> nodes;  ///< caller order
  std::vector<std::size_t> slots;   ///< each node's index in the caller's list
};

/// The co-batching rule of both InferMixed implementations: groups
/// `queries` by config pointer, groups in first-appearance order and caller
/// order within each group. Throws nai::ValidationError on a null config.
std::vector<ConfigGroup> GroupByConfig(
    const std::vector<ConfiguredQuery>& queries);

struct InferenceResult {
  std::vector<std::int32_t> predictions;  ///< aligned with the query nodes
  /// Personalized propagation depth L(v_i) actually used per query node
  /// (aligned with `predictions`) — the per-node view of Table VI.
  std::vector<std::int32_t> exit_depths;
  InferenceStats stats;
};

/// Everything optional about engine construction, gathered so the one
/// entry point (NaiEngine::FromSnapshot) stays a two-argument call
/// in the common case. Defaults serve NAPd/NAPnone float inference on the
/// calling thread's default pool.
struct EngineOptions {
  /// Trained NAPg gates; required only for NapKind::kGate configs. Borrowed.
  const GateStack* gates = nullptr;
  /// Build the stationary view from the snapshot's pooled vector. Disable
  /// only for NapKind::kNone-only serving (skips an O(n)-free rank-1 setup).
  bool use_stationary = true;
  /// INT8 classifier bank for `int8_classifier` configs. Borrowed.
  QuantizedClassifierStack* quantized = nullptr;
  runtime::ExecContext ctx = {};
};

/// The NAI online-propagation inference engine (Algorithm 1).
///
/// The only public way to build one is `NaiEngine::FromSnapshot`: the engine
/// holds the graph through a shared GraphSnapshot handle and reads
/// adjacency and features through the storage interfaces
/// (storage::GraphStore / storage::FeatureStore), so serving is identical —
/// bit-exact — whether the snapshot is backed by in-memory pooled vectors
/// or a memory-mapped file. An engine serves one snapshot for its whole
/// life; an evolving graph is served by ShardedNaiEngine::SwapSnapshot,
/// which builds fresh engines. The classifier bank, gates and quantized
/// stack are borrowed and must outlive the engine.
///
/// Batches are processed independently, on a demand-driven schedule: the
/// exit check at depth d (d in [T_min, T_max)) only needs X^(d) on the
/// still-active batch nodes, so before it each level X^(j), j <= d, is
/// extended to the nodes within d - j hops of those nodes — no further.
/// The supporting set grows one BFS ring at a time as the checks demand
/// it, and after exits it is re-derived around the nodes that remain.
/// Every (level, node) row is computed at most once, by the same per-row
/// formula as full-graph propagation, so predictions and exit depths do
/// not depend on the schedule; a batch whose nodes all run to T_max does
/// exactly the work of fixed-depth T_max propagation, and early exits only
/// remove rows from it.
///
/// Threading: batches run one after another; their kernels run on the pool
/// of the engine's ExecContext, and results are bit-exact for every thread
/// count. Running batches concurrently is ShardedNaiEngine's job: it hands
/// batches to N of these engines, each on its own pool.
class NaiEngine {
 public:
  /// Serve the graph held by `snapshot` (any storage backend) with the
  /// given classifier bank. Everything else — gates, stationary view, INT8
  /// bank, exec context — rides in `options`. Throws nai::ValidationError
  /// on a null snapshot or when `use_stationary` is set but the snapshot's
  /// store carries no pooled stationary vector.
  static NaiEngine FromSnapshot(
      std::shared_ptr<const graph::GraphSnapshot> snapshot,
      ClassifierStack& classifiers, EngineOptions options = {});

  /// Attaches (or detaches, with nullptr) the INT8 classifier bank that
  /// configs with `int8_classifier` resolve to. Borrowed; must outlive the
  /// engine or the next attach. Not thread-safe — attach before serving,
  /// like the rest of engine setup.
  void AttachQuantizedClassifiers(QuantizedClassifierStack* quantized) {
    quantized_ = quantized;
  }

  /// Checks that this engine can serve `config`: a config that requests the
  /// int8 classifier needs an attached quantized stack, a NAPd/NAPg config
  /// needs the stationary state (EngineOptions::use_stationary) and a NAPg
  /// config needs gates. Throws nai::ValidationError otherwise.
  void ValidateConfig(const InferenceConfig& config) const;

  /// Classifies `nodes` (global ids in the full graph). Thread-compatible
  /// but not thread-safe (shared batch scratch). Throws
  /// nai::ValidationError on an out-of-range node id or when ValidateConfig
  /// rejects `config`; the engine stays usable after either.
  InferenceResult Infer(const std::vector<std::int32_t>& nodes,
                        const InferenceConfig& config);

  /// Per-query-config entry point: classifies queries that each carry their
  /// own InferenceConfig. Queries are grouped by GroupByConfig and every
  /// group runs through Infer, so each group's predictions/exit depths are
  /// bit-identical to a direct Infer call on that group's node list.
  /// Results are scattered back into caller order; stats are the groups'
  /// merged via InferenceStats::Accumulate (num_nodes / wall_time_ms set
  /// once for the whole call). Throws nai::ValidationError on a null
  /// config pointer.
  InferenceResult InferMixed(const std::vector<ConfiguredQuery>& queries);

  /// View of the normalized adjacency the engine propagates over (points
  /// into the snapshot's store).
  graph::CsrView norm_adj() const { return norm_adj_; }

  const runtime::ExecContext& exec_context() const { return ctx_; }

 private:
  NaiEngine(std::shared_ptr<const graph::GraphSnapshot> snapshot,
            ClassifierStack& classifiers, const EngineOptions& options);

  /// Per-batch working state of the propagation schedule, reused across
  /// batches so steady-state serving does not reallocate the per-level
  /// buffers.
  struct BatchScratch {
    explicit BatchScratch(graph::CsrView norm_adj) : sampler(norm_adj) {}

    /// Clears every level for a batch propagating to depth `t_max`
    /// (capacity is kept).
    void Reset(int t_max);

    graph::SupportSampler sampler;
    /// rows[j][local] = X^(j) row of a support node, nullptr until
    /// computed. Level 0 points into the feature store; level j >= 1 into
    /// values[j].
    std::vector<std::vector<const float*>> rows;
    /// values[j] (j >= 1): the X^(j) rows computed so far, compact, f
    /// floats each, in the order of computed[j].
    std::vector<std::vector<float>> values;
    /// computed[j][s]: the local id whose X^(j) row is row s of values[j].
    std::vector<std::vector<std::int32_t>> computed;
    /// done[j]: ring prefix already known to be computed at level j.
    std::vector<std::int64_t> done;
    /// The rows one level extension computes.
    std::vector<std::int32_t> pending;
  };

  /// Classifies one batch on scratch_, writing each node's prediction and
  /// exit depth to its slot of `out_predictions` / `out_depths` (aligned
  /// with `batch`).
  void InferBatch(const std::vector<std::int32_t>& batch,
                  const InferenceConfig& config, int t_max,
                  std::int32_t* out_predictions, std::int32_t* out_depths,
                  InferenceStats& stats);

  /// Computes X^(level) on the ring prefix [0, prefix) that is not yet
  /// computed, from X^(level - 1).
  void ExtendLevel(int level, std::int64_t prefix, InferenceStats& stats);

  /// Keeps the stores norm_adj_ and the feature rows point into alive.
  std::shared_ptr<const graph::GraphSnapshot> snapshot_;
  graph::CsrView norm_adj_;
  /// X^(∞) rows for NAP decisions; empty for NapKind::kNone-only serving.
  std::optional<StationaryState> stationary_;
  ClassifierStack* classifiers_;
  QuantizedClassifierStack* quantized_ = nullptr;
  const GateStack* gates_;
  runtime::ExecContext ctx_;
  BatchScratch scratch_;
};

}  // namespace nai::core

#endif  // NAI_CORE_INFERENCE_H_
