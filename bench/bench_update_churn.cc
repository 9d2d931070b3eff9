// Update churn through the serving front-end: delta batches (node inserts,
// edge inserts, feature updates) stream through ServingEngine::ApplyDeltas
// while query traffic runs, each batch becoming an immutable snapshot that
// is swapped in between serving batches.
//
// Two stages:
//   1. Exactness gate: for shard counts {1, 2, 4} x result cache {off, on},
//      a closed-loop query pass runs concurrently with the full delta
//      stream; once the engine has absorbed every delta, a verification
//      pass submits every test node AND every newly inserted node under
//      both QoS classes. Each response must be bit-identical to a
//      from-scratch engine built on the merged graph (MergeFromScratch) —
//      the incremental snapshot path may never change a prediction.
//   2. Churn sweep: the same closed-loop load at increasing update rates
//      (plus a no-churn baseline), reporting achieved update rate, mean
//      apply (build + swap) wall time, query p95, and staleness — how many
//      responses were served from a snapshot older than the version current
//      at their completion (stale_served).
//
// Flags: --threads N, --shards N (sweep-stage shard count; the gate always
// runs {1, 2, 4}), --update-rate N (fix the sweep to one delta-batches/sec
// rate instead of the ladder), --json PATH (splice an "update_churn"
// section into the BENCH_serving.json artifact written by
// bench_serving_qos — run after it so the splice lands on a fresh file).
// NAI_SCALE shrinks the graph.

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/stationary.h"
#include "src/eval/datasets.h"
#include "src/eval/harness.h"
#include "src/graph/delta.h"
#include "src/serve/serving_engine.h"

namespace {

using namespace nai;

void Appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

/// One sweep cell: closed-loop queries with a paced delta stream.
struct ChurnCell {
  double rate_per_sec = 0.0;  ///< requested pacing; 0 = back-to-back
  std::int64_t updates_applied = 0;
  double achieved_rate = 0.0;  ///< applied / run duration
  double mean_apply_ms = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  std::int64_t stale_served = 0;
  std::int64_t snapshot_swaps = 0;
};

ChurnCell RunChurnCell(eval::TrainedPipeline& pipeline,
                       const eval::PreparedDataset& ds, int num_shards,
                       const serve::QosPolicyTable& policies,
                       const serve::ServingOptions& options,
                       const std::vector<graph::GraphDelta>& deltas,
                       const std::vector<std::int32_t>& nodes,
                       double rate_per_sec, int threads) {
  auto engine = eval::MakeShardedEngine(pipeline, ds, num_shards);
  serve::ServingEngine server(*engine, policies, options);

  eval::ServingLoadConfig load;
  load.arrival_rate_qps = 0.0;  // closed loop
  load.closed_loop_clients = std::max(4, 2 * threads);
  load.speed_first_fraction = 0.5;
  load.seed = 9157;  // same classes in every cell
  load.updates = deltas;
  load.updates_per_sec = rate_per_sec;
  const eval::ServingRunReport report = eval::RunServing(server, nodes, load);

  ChurnCell cell;
  cell.rate_per_sec = rate_per_sec;
  cell.updates_applied = report.updates_applied;
  cell.achieved_rate =
      report.duration_ms > 0.0
          ? 1000.0 * static_cast<double>(report.updates_applied) /
                report.duration_ms
          : 0.0;
  cell.mean_apply_ms = report.mean_update_ms;
  cell.achieved_qps = report.achieved_qps;
  cell.p50_ms = report.stats.latency.p50_ms;
  cell.p95_ms = report.stats.latency.p95_ms;
  cell.stale_served = report.stats.stale_served;
  cell.snapshot_swaps = report.stats.snapshot_swaps;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = bench::ApplyThreadsFlag(argc, argv);
  const int num_shards = bench::ApplyShardsFlag(argc, argv);
  const long fixed_rate = runtime::UpdateRateFlag(argc, argv);
  const char* json_path = runtime::ConsumeStringFlag(argc, argv, "--json");
  const double scale = eval::EnvScale();

  bench::Banner("Update churn: delta ingestion vs serving — arxiv-sim");
  const eval::PreparedDataset ds = eval::Prepare(eval::ArxivSim(scale));
  eval::TrainedPipeline pipeline =
      eval::TrainPipeline(ds, bench::BenchPipelineConfig());
  const std::vector<std::int32_t>& test = ds.split.test_nodes;

  const std::int64_t base_nodes = ds.data.graph.num_nodes();
  constexpr std::size_t kNumDeltas = 8;
  const std::vector<graph::GraphDelta> deltas = eval::MakeChurnDeltas(
      base_nodes, static_cast<std::int64_t>(ds.data.features.cols()),
      kNumDeltas, /*nodes_per_delta=*/16, /*edges_per_delta=*/32,
      /*feature_updates_per_delta=*/16, /*seed=*/77);
  std::printf("n=%lld | %zu test nodes | %d threads | %zu delta batches "
              "(16 nodes + 32 edges + 16 feature updates each)\n",
              static_cast<long long>(base_nodes), test.size(), threads,
              kNumDeltas);

  const serve::QosPolicyTable policies =
      eval::MakeQosPolicyTable(pipeline, ds, core::NapKind::kDistance);
  serve::ServingOptions options;
  options.queue_capacity = 4096;
  options.batcher.max_batch = 64;
  options.batcher.max_wait_us = 200;

  // --- Stage 1: exactness gate. --------------------------------------------
  // The from-scratch oracle: one engine on the merged graph (base + every
  // delta), stationary state and normalization rebuilt from zero. Every
  // post-churn serving response must reproduce its bits.
  const auto base_snapshot = graph::MakeSnapshot(
      ds.data.graph, ds.data.features, pipeline.model_config.gamma);
  const auto merged = graph::MergeFromScratch(*base_snapshot, deltas);
  core::EngineOptions reference_options;
  reference_options.gates = pipeline.gates.get();
  core::NaiEngine reference = core::NaiEngine::FromSnapshot(
      merged, *pipeline.classifiers, reference_options);

  // Verify list: every test node plus every node the churn inserted.
  std::vector<std::int32_t> verify_nodes = test;
  for (std::int64_t v = base_nodes; v < merged->num_nodes(); ++v) {
    verify_nodes.push_back(static_cast<std::int32_t>(v));
  }
  const core::InferenceResult ref_speed = reference.Infer(
      verify_nodes, policies.For(serve::QosClass::kSpeedFirst).config);
  const core::InferenceResult ref_accuracy = reference.Infer(
      verify_nodes, policies.For(serve::QosClass::kAccuracyFirst).config);

  bool exact = true;
  std::printf("\nexactness gate (churn + verify pass vs from-scratch merge, "
              "%zu verify nodes):\n",
              verify_nodes.size());
  std::printf("  %-7s %-7s %-8s %-7s %-12s %-10s\n", "shards", "cache",
              "epoch", "swaps", "mismatches", "verdict");
  for (const int shards : {1, 2, 4}) {
    for (const bool cache_on : {false, true}) {
      auto engine = eval::MakeShardedEngine(pipeline, ds, shards);
      serve::ServingOptions cell_options = options;
      cell_options.cache.enabled = cache_on;
      serve::ServingEngine server(*engine, policies, cell_options);

      // Churn pass: queries race the full delta stream (back-to-back).
      eval::ServingLoadConfig churn;
      churn.closed_loop_clients = std::max(4, 2 * threads);
      churn.speed_first_fraction = 0.5;
      churn.seed = 4711;
      churn.updates = deltas;
      eval::RunServing(server, test, churn);

      // Verify pass on the fully merged engine: every response must match
      // the oracle bit-for-bit under its class's config.
      eval::ServingLoadConfig verify;
      verify.closed_loop_clients = std::max(4, 2 * threads);
      verify.speed_first_fraction = 0.5;
      verify.seed = 1999;
      const eval::ServingRunReport report =
          eval::RunServing(server, verify_nodes, verify);

      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < verify_nodes.size(); ++i) {
        const std::int32_t want =
            report.classes[i] == serve::QosClass::kSpeedFirst
                ? ref_speed.predictions[i]
                : ref_accuracy.predictions[i];
        if (report.predictions[i] != want) ++mismatches;
      }
      const bool cell_exact = mismatches == 0 &&
                              report.final_epoch == kNumDeltas &&
                              report.stats.snapshot_swaps ==
                                  static_cast<std::int64_t>(kNumDeltas);
      exact = exact && cell_exact;
      std::printf("  %-7d %-7s %-8llu %-7lld %-12zu %-10s\n", shards,
                  cache_on ? "on" : "off",
                  static_cast<unsigned long long>(report.final_epoch),
                  static_cast<long long>(report.stats.snapshot_swaps),
                  mismatches, cell_exact ? "bit-exact" : "MISMATCH");
    }
  }

  // --- Stage 2: churn sweep. -----------------------------------------------
  // Update rate vs query latency and staleness at the --shards deployment.
  // Rate 0 rows: a no-churn baseline (empty stream) and a back-to-back
  // stream (apply as fast as builds complete).
  std::vector<double> rates;
  if (fixed_rate > 0) {
    rates.push_back(static_cast<double>(fixed_rate));
  } else {
    rates = {2.0, 8.0, 32.0};
  }

  std::printf("\nchurn sweep (%d shards, closed loop, %zu queries per cell):\n",
              num_shards, test.size());
  std::printf("  %-10s %-9s %-10s %-11s %-10s %-9s %-9s %-7s\n",
              "rate req/s", "applied", "rate ach.", "apply ms", "qps",
              "p50 ms", "p95 ms", "stale");
  std::vector<ChurnCell> cells;
  {
    // Baseline: same load, no updates.
    ChurnCell base_cell =
        RunChurnCell(pipeline, ds, num_shards, policies, options, {}, test,
                     0.0, threads);
    std::printf("  %-10s %-9lld %-10.1f %-11.2f %-10.0f %-9.2f %-9.2f "
                "%-7lld\n",
                "none", static_cast<long long>(base_cell.updates_applied),
                base_cell.achieved_rate, base_cell.mean_apply_ms,
                base_cell.achieved_qps, base_cell.p50_ms, base_cell.p95_ms,
                static_cast<long long>(base_cell.stale_served));
    cells.push_back(base_cell);
  }
  for (const double rate : rates) {
    ChurnCell cell = RunChurnCell(pipeline, ds, num_shards, policies, options,
                                  deltas, test, rate, threads);
    std::printf("  %-10.0f %-9lld %-10.1f %-11.2f %-10.0f %-9.2f %-9.2f "
                "%-7lld\n",
                rate, static_cast<long long>(cell.updates_applied),
                cell.achieved_rate, cell.mean_apply_ms, cell.achieved_qps,
                cell.p50_ms, cell.p95_ms,
                static_cast<long long>(cell.stale_served));
    cells.push_back(cell);
  }

  // --- Optional JSON artifact: spliced into BENCH_serving.json. ------------
  if (json_path != nullptr) {
    std::string section;
    Appendf(section, "{\n    \"scale\": %.4f,\n", scale);
    Appendf(section, "    \"threads\": %d,\n", threads);
    Appendf(section, "    \"shards\": %d,\n", num_shards);
    Appendf(section, "    \"delta_batches\": %zu,\n", kNumDeltas);
    Appendf(section, "    \"exact\": %s,\n", exact ? "true" : "false");
    section += "    \"sweep\": [";
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const ChurnCell& c = cells[k];
      Appendf(section,
              "%s\n      {\"rate_per_sec\": %.1f, \"updates_applied\": %lld, "
              "\"achieved_rate\": %.2f, \"mean_apply_ms\": %.3f, "
              "\"achieved_qps\": %.2f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
              "\"stale_served\": %lld, \"snapshot_swaps\": %lld}",
              k == 0 ? "" : ",", c.rate_per_sec,
              static_cast<long long>(c.updates_applied), c.achieved_rate,
              c.mean_apply_ms, c.achieved_qps, c.p50_ms, c.p95_ms,
              static_cast<long long>(c.stale_served),
              static_cast<long long>(c.snapshot_swaps));
    }
    section += "\n    ]\n  }";
    if (!bench::SpliceJsonSection(json_path, "update_churn", section)) {
      std::printf("FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::printf("\nspliced update_churn section into %s\n", json_path);
  }

  if (!exact) {
    std::printf("\nFAIL: post-churn responses diverged from the from-scratch "
                "merge\n");
    return 1;
  }
  std::printf("\nall post-churn responses bit-identical to the from-scratch "
              "merge\n");
  return 0;
}
