// Streaming serving with QoS classes: the same sharded NAI deployment
// serving speed-first (NAI^1 config, tight deadline), accuracy-first
// (NAI^3 config, loose deadline) and throughput-first (NAI^1 + INT8
// classifier, co-batched with an explicit accuracy-delta budget) traffic
// concurrently through the src/serve/ front-end — admission queues,
// dynamic batching, per-request deadlines.
//
// Five stages:
//   1. Exactness gate (closed loop, all three classes mixed): every
//      response must be bit-identical to a direct sharded Infer of the same
//      node under that class's config — the serving stack may never change
//      a prediction (per-row INT8 quantization makes even the throughput
//      class batch-invariant). The throughput class additionally proves
//      its accuracy-delta budget: predictions may differ from the float
//      twin of its config on at most accuracy_delta_budget of the nodes.
//   2. Closed-loop capacity: the saturated throughput at the requested
//      QoS mix, with per-class latency percentiles.
//   3. Open-loop sweep: Poisson arrivals at increasing fractions of the
//      closed-loop capacity x {speed-only, mixed, accuracy-only} traffic —
//      the latency/deadline-miss/shedding picture vs offered load.
//   4. Bursty-load priority A/B: the same bursty load with class priority
//      off and on (admission control off in both cells so the coalescing
//      window matches) — also exactness-gated, so reordering the queue
//      proves its bit-identity under real contention.
//   5. Zipf-skew result-cache A/B: the same Zipf-sampled closed-loop
//      request stream (draws with replacement, hot head nodes) with the
//      result cache off and on, at two skew levels — hit ratio, p50 and
//      throughput, exactness-gated (a cache hit must replay the same bits
//      a cold Infer produces).
//
// Flags: --threads N, --shards N, --qos {speed,accuracy,mix,0..100}
// (percent speed-first, default 50), --arrival-rate N (fix stage 3 to one
// offered load in qps instead of the sweep), --zipf A (Zipf-skew the stage
// 3 sweep's node draws; stage 5 always runs its own two levels),
// --json PATH (write the smoke summary — p50/p95, throughput,
// deadline-miss rate, priority and cache A/Bs — as JSON, the
// BENCH_serving.json CI artifact). NAI_SCALE shrinks the graph.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/eval/datasets.h"
#include "src/eval/harness.h"
#include "src/serve/serving_engine.h"

namespace {

using namespace nai;

void PrintClassLine(const char* label, const serve::LatencySummary& lat,
                    std::int64_t misses) {
  std::printf("  %-15s %6lld served   p50 %7.2f ms   p95 %7.2f ms   "
              "p99 %7.2f ms   max %7.2f ms   %lld deadline misses\n",
              label, static_cast<long long>(lat.count), lat.p50_ms, lat.p95_ms,
              lat.p99_ms, lat.max_ms, static_cast<long long>(misses));
}

double MissRate(const serve::ServingStatsSnapshot& stats) {
  const std::int64_t finished = stats.completed + stats.dropped;
  return finished == 0 ? 0.0
                       : static_cast<double>(stats.deadline_misses) /
                             static_cast<double>(finished);
}

/// One bursty-load A/B cell: on/off Poisson arrivals, exactness checked
/// against the per-class references.
struct BurstyCell {
  double achieved_qps = 0.0;
  double speed_p95_ms = 0.0;
  double miss_rate = 0.0;
  std::size_t mismatches = 0;
};

BurstyCell RunBurstyCell(core::ShardedNaiEngine& sharded,
                         const serve::QosPolicyTable& policies,
                         const serve::ServingOptions& base_options,
                         bool priority, const std::vector<std::int32_t>& nodes,
                         const core::InferenceResult& ref_speed,
                         const core::InferenceResult& ref_accuracy,
                         double rate_qps, int qos_mix) {
  // The A/B isolates class priority; the admission controller stays off in
  // both cells so the coalescing window is identical and the comparison
  // is apples-to-apples.
  serve::ServingOptions options = base_options;
  options.scheduler.priority = priority;
  options.scheduler.adaptive = false;
  serve::ServingEngine server(sharded, policies, options);

  eval::ServingLoadConfig load;
  load.arrival_rate_qps = rate_qps;
  load.speed_first_fraction = qos_mix / 100.0;
  load.burst_on_ms = 20.0;
  load.burst_off_ms = 20.0;
  load.seed = 1234;  // same arrivals and classes in both cells
  const eval::ServingRunReport report =
      eval::RunServing(server, nodes, load);

  BurstyCell cell;
  cell.achieved_qps = report.achieved_qps;
  cell.speed_p95_ms =
      report.stats
          .per_class[static_cast<std::size_t>(serve::QosClass::kSpeedFirst)]
          .p95_ms;
  cell.miss_rate = MissRate(report.stats);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (report.predictions[i] < 0) continue;  // shed under overload
    const std::int32_t want =
        report.classes[i] == serve::QosClass::kSpeedFirst
            ? ref_speed.predictions[i]
            : ref_accuracy.predictions[i];
    if (report.predictions[i] != want) ++cell.mismatches;
  }
  return cell;
}

/// One result-cache A/B cell: Zipf-skewed closed-loop traffic, exactness
/// checked per request against the per-class references (request t answers
/// nodes[request_indices[t]] — a cache hit must replay the cold bits).
struct CacheCell {
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double hit_ratio = 0.0;
  std::size_t mismatches = 0;
};

CacheCell RunCacheCell(core::ShardedNaiEngine& sharded,
                       const serve::QosPolicyTable& policies,
                       const serve::ServingOptions& base_options,
                       bool cache_on, const std::vector<std::int32_t>& nodes,
                       const core::InferenceResult& ref_speed,
                       const core::InferenceResult& ref_accuracy,
                       double zipf_alpha, int qos_mix, int threads) {
  serve::ServingOptions options = base_options;
  options.cache.enabled = cache_on;
  serve::ServingEngine server(sharded, policies, options);

  eval::ServingLoadConfig load;
  load.arrival_rate_qps = 0.0;  // closed loop: same work in both cells
  load.closed_loop_clients = std::max(4, 2 * threads);
  load.speed_first_fraction = qos_mix / 100.0;
  load.zipf_alpha = zipf_alpha;
  load.num_requests = 2 * nodes.size();  // repeats are the whole point
  load.seed = 4242;  // same draws and classes in both cells
  const eval::ServingRunReport report = eval::RunServing(server, nodes, load);

  CacheCell cell;
  cell.achieved_qps = report.achieved_qps;
  cell.p50_ms = report.stats.latency.p50_ms;
  cell.p95_ms = report.stats.latency.p95_ms;
  cell.hit_ratio = report.stats.cache_hit_ratio;
  for (std::size_t t = 0; t < report.predictions.size(); ++t) {
    if (report.predictions[t] < 0) continue;
    const std::size_t i = report.request_indices[t];
    const std::int32_t want =
        report.classes[t] == serve::QosClass::kSpeedFirst
            ? ref_speed.predictions[i]
            : ref_accuracy.predictions[i];
    if (report.predictions[t] != want) ++cell.mismatches;
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = bench::ApplyThreadsFlag(argc, argv);
  const int num_shards = bench::ApplyShardsFlag(argc, argv);
  const int qos_mix = runtime::QosMixFlag(argc, argv, 50);
  const long fixed_rate = runtime::ArrivalRateFlag(argc, argv);
  const double sweep_zipf = runtime::ZipfFlag(argc, argv);
  const char* json_path = runtime::ConsumeStringFlag(argc, argv, "--json");
  const double scale = eval::EnvScale();

  bench::Banner("Streaming serving with QoS classes — arxiv-sim");
  const eval::PreparedDataset ds = eval::Prepare(eval::ArxivSim(scale));
  eval::TrainedPipeline pipeline =
      eval::TrainPipeline(ds, bench::BenchPipelineConfig());
  const std::vector<std::int32_t>& test = ds.split.test_nodes;
  std::printf("n=%lld | %zu test nodes | %d threads | %d shards | "
              "%d%% speed-first\n",
              static_cast<long long>(ds.data.graph.num_nodes()), test.size(),
              threads, num_shards, qos_mix);

  auto sharded = eval::MakeShardedEngine(pipeline, ds, num_shards);
  const serve::QosPolicyTable policies =
      eval::MakeQosPolicyTable(pipeline, ds, core::NapKind::kDistance);

  // Per-class references: what a direct sharded Infer answers for every
  // test node under each class's config. Serving must reproduce these bits.
  const core::InferenceResult ref_speed =
      sharded->Infer(test, policies.For(serve::QosClass::kSpeedFirst).config);
  const core::InferenceResult ref_accuracy = sharded->Infer(
      test, policies.For(serve::QosClass::kAccuracyFirst).config);
  const serve::QosPolicy& throughput_policy =
      policies.For(serve::QosClass::kThroughputFirst);
  const core::InferenceResult ref_throughput =
      sharded->Infer(test, throughput_policy.config);

  // The throughput class's accuracy-delta budget, measured against the
  // float twin of its own config (INT8 off, everything else identical).
  core::InferenceConfig float_twin = throughput_policy.config;
  float_twin.int8_classifier = false;
  const core::InferenceResult ref_twin = sharded->Infer(test, float_twin);
  std::size_t int8_flips = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (ref_throughput.predictions[i] != ref_twin.predictions[i]) ++int8_flips;
  }
  const double flip_rate = test.empty()
                               ? 0.0
                               : static_cast<double>(int8_flips) /
                                     static_cast<double>(test.size());
  const bool budget_ok = flip_rate <= throughput_policy.accuracy_delta_budget;
  std::printf("int8 accuracy delta: %.4f (%zu of %zu flips, budget %.4f) "
              "— %s\n",
              flip_rate, int8_flips, test.size(),
              throughput_policy.accuracy_delta_budget,
              budget_ok ? "within budget" : "OVER BUDGET");

  serve::ServingOptions options;
  options.queue_capacity = 4096;
  options.batcher.max_batch = 64;
  options.batcher.max_wait_us = 200;

  // --- Stages 1+2: closed-loop mixed traffic, exactness-gated. -------------
  double closed_qps = 0.0;
  bool exact = true;
  serve::ServingStatsSnapshot closed_stats;
  {
    serve::ServingEngine server(*sharded, policies, options);
    eval::ServingLoadConfig load;
    load.arrival_rate_qps = 0.0;  // closed loop
    load.closed_loop_clients = std::max(4, 2 * threads);
    // A fixed 20% throughput-first share; the --qos mix splits the rest
    // between speed- and accuracy-first as before.
    load.throughput_fraction = 0.2;
    load.speed_first_fraction = 0.8 * qos_mix / 100.0;
    const eval::ServingRunReport report =
        eval::RunServing(server, test, load);
    closed_qps = report.achieved_qps;
    closed_stats = report.stats;

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      const std::int32_t want =
          report.classes[i] == serve::QosClass::kSpeedFirst
              ? ref_speed.predictions[i]
          : report.classes[i] == serve::QosClass::kThroughputFirst
              ? ref_throughput.predictions[i]
              : ref_accuracy.predictions[i];
      if (report.predictions[i] != want) ++mismatches;
    }
    exact = mismatches == 0;

    std::printf("\nclosed loop (%d clients, %d%% speed-first of the float "
                "share, 20%% throughput-first): %.0f q/s, mean batch %.1f, "
                "%s\n",
                load.closed_loop_clients, qos_mix, closed_qps,
                report.stats.mean_batch_size,
                exact ? "bit-exact vs direct Infer"
                      : "PREDICTION MISMATCH");
    PrintClassLine(
        "speed-first",
        report.stats.per_class[static_cast<std::size_t>(
            serve::QosClass::kSpeedFirst)],
        report.stats.per_class_misses[static_cast<std::size_t>(
            serve::QosClass::kSpeedFirst)]);
    PrintClassLine(
        "throughput-first",
        report.stats.per_class[static_cast<std::size_t>(
            serve::QosClass::kThroughputFirst)],
        report.stats.per_class_misses[static_cast<std::size_t>(
            serve::QosClass::kThroughputFirst)]);
    PrintClassLine(
        "accuracy-first",
        report.stats.per_class[static_cast<std::size_t>(
            serve::QosClass::kAccuracyFirst)],
        report.stats.per_class_misses[static_cast<std::size_t>(
            serve::QosClass::kAccuracyFirst)]);
  }

  // --- Stage 3: open-loop Poisson sweep. -----------------------------------
  // Offered loads as fractions of the measured closed-loop capacity (or the
  // one --arrival-rate), a bounded query list per cell so every row runs in
  // seconds.
  const std::size_t open_n = std::min<std::size_t>(test.size(), 1000);
  const std::vector<std::int32_t> open_nodes(test.begin(),
                                             test.begin() + open_n);
  std::vector<double> rates;
  if (fixed_rate > 0) {
    rates.push_back(static_cast<double>(fixed_rate));
  } else {
    for (const double f : {0.25, 0.5, 0.9}) {
      const double r = f * closed_qps;
      if (r >= 1.0) rates.push_back(r);
    }
    if (rates.empty()) rates.push_back(1.0);
  }

  std::printf("\nopen loop (Poisson arrivals, %zu queries per cell):\n",
              open_n);
  std::printf("%-12s %-6s %-10s %-6s %-9s %-9s %-9s %-8s %-6s\n",
              "offered q/s", "mix%", "achieved", "shed", "p50 ms", "p95 ms",
              "p99 ms", "miss%", "batch");
  std::vector<int> mixes = {100, qos_mix, 0};
  mixes.erase(std::unique(mixes.begin(), mixes.end()), mixes.end());
  for (const double rate : rates) {
    for (const int mix : mixes) {
      serve::ServingEngine server(*sharded, policies, options);
      eval::ServingLoadConfig load;
      load.arrival_rate_qps = rate;
      load.speed_first_fraction = mix / 100.0;
      load.zipf_alpha = sweep_zipf;  // 0 unless --zipf skews the sweep
      load.seed = 42 + static_cast<std::uint64_t>(mix);
      const eval::ServingRunReport report =
          eval::RunServing(server, open_nodes, load);
      const std::int64_t offered =
          static_cast<std::int64_t>(open_nodes.size());
      const double miss_pct =
          report.stats.completed + report.stats.dropped == 0
              ? 0.0
              : 100.0 * static_cast<double>(report.stats.deadline_misses) /
                    static_cast<double>(report.stats.completed +
                                        report.stats.dropped);
      std::printf("%-12.0f %-6d %-10.0f %-6lld %-9.2f %-9.2f %-9.2f "
                  "%-8.1f %-6.1f\n",
                  rate, mix, report.achieved_qps,
                  static_cast<long long>(offered - report.stats.completed -
                                         report.stats.dropped),
                  report.stats.latency.p50_ms, report.stats.latency.p95_ms,
                  report.stats.latency.p99_ms, miss_pct,
                  report.stats.mean_batch_size);
    }
  }

  // --- Stage 4: bursty-load priority A/B. ----------------------------------
  // 20ms bursts at a rate past the closed-loop capacity — head-of-line
  // blocking and queue buildup at once. The same seeded load runs with
  // class priority off and on; both must stay bit-exact (this is where
  // queue reordering earns its determinism contract).
  const double burst_rate =
      std::max(20.0, fixed_rate > 0 ? static_cast<double>(fixed_rate)
                                    : 2.0 * closed_qps);
  serve::ServingOptions burst_options = options;
  burst_options.batcher.max_batch = 16;  // deeper backlogs: priority matters
  const BurstyCell off =
      RunBurstyCell(*sharded, policies, burst_options, /*priority=*/false,
                    open_nodes, ref_speed, ref_accuracy, burst_rate, qos_mix);
  const BurstyCell on =
      RunBurstyCell(*sharded, policies, burst_options, /*priority=*/true,
                    open_nodes, ref_speed, ref_accuracy, burst_rate, qos_mix);
  exact = exact && off.mismatches == 0 && on.mismatches == 0;

  std::printf("\nbursty load (%.0f q/s peak, %d%% speed-first, %zu "
              "queries):\n",
              burst_rate, qos_mix, open_nodes.size());
  std::printf("  %-18s %-10s %-14s %-8s\n", "priority", "achieved",
              "speed p95 ms", "miss%");
  std::printf("  %-18s %-10.0f %-14.2f %-8.1f\n", "off (FIFO)",
              off.achieved_qps, off.speed_p95_ms, 100.0 * off.miss_rate);
  std::printf("  %-18s %-10.0f %-14.2f %-8.1f\n", "on", on.achieved_qps,
              on.speed_p95_ms, 100.0 * on.miss_rate);
  const bool improved = on.speed_p95_ms < off.speed_p95_ms ||
                        on.achieved_qps > off.achieved_qps;
  std::printf("  -> priority %s (speed p95 %.2f -> %.2f ms, throughput "
              "%.0f -> %.0f q/s)\n",
              improved ? "improves the bursty tail" : "did NOT improve",
              off.speed_p95_ms, on.speed_p95_ms, off.achieved_qps,
              on.achieved_qps);

  // --- Stage 5: Zipf-skew result-cache A/B. --------------------------------
  // The same Zipf-sampled closed-loop request stream (2x draws with
  // replacement from the bounded node list) with the result cache off and
  // on, at a mild and a heavy skew. The cache-on cell is exactness-gated
  // per request: a hit must replay exactly what a cold Infer answers.
  struct CacheAb {
    double alpha = 0.0;
    CacheCell off;
    CacheCell on;
  };
  std::vector<CacheAb> cache_abs;
  std::printf("\nzipf result-cache A/B (closed loop, %zu draws over %zu "
              "nodes, %d%% speed-first):\n",
              2 * open_nodes.size(), open_nodes.size(), qos_mix);
  std::printf("  %-8s %-8s %-10s %-9s %-9s %-10s\n", "alpha", "cache",
              "achieved", "p50 ms", "p95 ms", "hit ratio");
  for (const double alpha : {0.5, 1.0}) {
    CacheAb ab;
    ab.alpha = alpha;
    ab.off = RunCacheCell(*sharded, policies, options, /*cache_on=*/false,
                          open_nodes, ref_speed, ref_accuracy, alpha, qos_mix,
                          threads);
    ab.on = RunCacheCell(*sharded, policies, options, /*cache_on=*/true,
                         open_nodes, ref_speed, ref_accuracy, alpha, qos_mix,
                         threads);
    exact = exact && ab.off.mismatches == 0 && ab.on.mismatches == 0;
    std::printf("  %-8.2f %-8s %-10.0f %-9.3f %-9.3f %-10s\n", alpha, "off",
                ab.off.achieved_qps, ab.off.p50_ms, ab.off.p95_ms, "-");
    std::printf("  %-8.2f %-8s %-10.0f %-9.3f %-9.3f %-10.3f\n", alpha, "on",
                ab.on.achieved_qps, ab.on.p50_ms, ab.on.p95_ms,
                ab.on.hit_ratio);
    std::printf("  -> cache %s at alpha %.2f (p50 %.3f -> %.3f ms, "
                "hit ratio %.1f%%)\n",
                ab.on.p50_ms < ab.off.p50_ms ? "improves p50"
                                             : "did NOT improve p50",
                alpha, ab.off.p50_ms, ab.on.p50_ms, 100.0 * ab.on.hit_ratio);
    cache_abs.push_back(ab);
  }

  // --- Optional JSON artifact (the CI bench-smoke trajectory). -------------
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::printf("FAIL: cannot write %s\n", json_path);
      return 1;
    }
    const auto speed_idx =
        static_cast<std::size_t>(serve::QosClass::kSpeedFirst);
    const auto acc_idx =
        static_cast<std::size_t>(serve::QosClass::kAccuracyFirst);
    const auto tp_idx =
        static_cast<std::size_t>(serve::QosClass::kThroughputFirst);
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"bench_serving_qos\",\n");
    std::fprintf(f, "  \"scale\": %.4f,\n", scale);
    std::fprintf(f, "  \"threads\": %d,\n", threads);
    std::fprintf(f, "  \"shards\": %d,\n", num_shards);
    std::fprintf(f, "  \"qos_mix_percent\": %d,\n", qos_mix);
    std::fprintf(f, "  \"exact\": %s,\n", exact ? "true" : "false");
    std::fprintf(f,
                 "  \"closed_loop\": {\"throughput_qps\": %.2f, "
                 "\"p50_ms\": %.4f, \"p95_ms\": %.4f, "
                 "\"deadline_miss_rate\": %.6f, \"mean_batch\": %.2f,\n",
                 closed_qps, closed_stats.latency.p50_ms,
                 closed_stats.latency.p95_ms, MissRate(closed_stats),
                 closed_stats.mean_batch_size);
    std::fprintf(f,
                 "    \"speed_first\": {\"p50_ms\": %.4f, \"p95_ms\": "
                 "%.4f},\n",
                 closed_stats.per_class[speed_idx].p50_ms,
                 closed_stats.per_class[speed_idx].p95_ms);
    std::fprintf(f,
                 "    \"throughput_first\": {\"p50_ms\": %.4f, \"p95_ms\": "
                 "%.4f},\n",
                 closed_stats.per_class[tp_idx].p50_ms,
                 closed_stats.per_class[tp_idx].p95_ms);
    std::fprintf(f,
                 "    \"accuracy_first\": {\"p50_ms\": %.4f, \"p95_ms\": "
                 "%.4f}},\n",
                 closed_stats.per_class[acc_idx].p50_ms,
                 closed_stats.per_class[acc_idx].p95_ms);
    std::fprintf(f,
                 "  \"int8\": {\"accuracy_delta\": %.6f, \"budget\": %.4f, "
                 "\"within_budget\": %s},\n",
                 flip_rate, throughput_policy.accuracy_delta_budget,
                 budget_ok ? "true" : "false");
    std::fprintf(f,
                 "  \"bursty\": {\"offered_peak_qps\": %.2f,\n"
                 "    \"priority_off\": {\"achieved_qps\": %.2f, "
                 "\"speed_p95_ms\": %.4f, \"deadline_miss_rate\": %.6f},\n"
                 "    \"priority_on\": {\"achieved_qps\": %.2f, "
                 "\"speed_p95_ms\": %.4f, \"deadline_miss_rate\": %.6f},\n"
                 "    \"improved\": %s}\n",
                 burst_rate, off.achieved_qps, off.speed_p95_ms,
                 off.miss_rate, on.achieved_qps, on.speed_p95_ms,
                 on.miss_rate, improved ? "true" : "false");
    std::fprintf(f, ",\n  \"cache_ab\": [");
    for (std::size_t k = 0; k < cache_abs.size(); ++k) {
      const CacheAb& ab = cache_abs[k];
      std::fprintf(
          f,
          "%s\n    {\"zipf_alpha\": %.2f,\n"
          "     \"cache_off\": {\"achieved_qps\": %.2f, \"p50_ms\": %.4f, "
          "\"p95_ms\": %.4f},\n"
          "     \"cache_on\": {\"achieved_qps\": %.2f, \"p50_ms\": %.4f, "
          "\"p95_ms\": %.4f, \"hit_ratio\": %.4f},\n"
          "     \"p50_improved\": %s}",
          k == 0 ? "" : ",", ab.alpha, ab.off.achieved_qps, ab.off.p50_ms,
          ab.off.p95_ms, ab.on.achieved_qps, ab.on.p50_ms, ab.on.p95_ms,
          ab.on.hit_ratio, ab.on.p50_ms < ab.off.p50_ms ? "true" : "false");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }

  if (!exact) {
    std::printf("\nFAIL: serving responses diverged from direct Infer\n");
    return 1;
  }
  if (!budget_ok) {
    std::printf("\nFAIL: int8 accuracy delta exceeded the throughput "
                "class's budget\n");
    return 1;
  }
  std::printf("\nall serving responses bit-identical to direct Infer; "
              "int8 delta within budget\n");
  return 0;
}
