// Shard-count scaling of the serving engine: the same trained NAI
// deployment served unsharded — one batch stream on all pool threads — and
// from {1, 2, 4, 8} graph shards — k concurrent batch streams on
// threads/k each, so both sides get the same cores.
// A shard owns a range of nodes and serves them with an engine over the
// whole graph snapshot, so building a sharded engine copies no graph data.
// Reports the sharded engine's build cost, NAId and vanilla serving latency
// per shard count, and verifies that every sharded run predicts
// bit-identically to the unsharded engine.
//
// What sharding buys is *isolation* — disjoint pools, per-shard admission —
// not single-stream latency: this bench quantifies its price on one mixed
// query stream. The cost that grows with the shard count is the batch
// split: queries co-batched in the unsharded engine land in different
// shards, so shared supporting-set work is recomputed per shard — visible
// as the propagation-MAC ratio.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/eval/datasets.h"
#include "src/eval/harness.h"

namespace {

using namespace nai;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = bench::ApplyThreadsFlag(argc, argv);
  const double scale = eval::EnvScale();
  bench::Banner("Shard scaling — arxiv-sim serving graph");
  const eval::PreparedDataset ds = eval::Prepare(eval::ArxivSim(scale));
  eval::TrainedPipeline pipeline =
      eval::TrainPipeline(ds, bench::BenchPipelineConfig());
  const auto& test = ds.split.test_nodes;
  std::printf("n=%lld m=%lld | %zu test nodes | %d pool threads\n",
              static_cast<long long>(ds.data.graph.num_nodes()),
              static_cast<long long>(ds.data.graph.num_edges()), test.size(),
              threads);

  auto engine = eval::MakeEngine(pipeline, ds);
  const auto napd =
      eval::MakeDefaultSettings(pipeline, ds, core::NapKind::kDistance);
  core::InferenceConfig naid_cfg = napd[0].config;
  naid_cfg.batch_size = 500;
  core::InferenceConfig vanilla_cfg;
  vanilla_cfg.nap = core::NapKind::kNone;
  vanilla_cfg.t_max = 0;
  vanilla_cfg.batch_size = 500;
  const eval::MethodResult ref_naid =
      eval::RunNai(*engine, ds, test, naid_cfg, "NAId");
  const eval::MethodResult ref_vanilla =
      eval::RunNai(*engine, ds, test, vanilla_cfg, "SGC");
  std::printf("unsharded:  NAId %.1f ms   SGC %.1f ms\n",
              ref_naid.row.time_ms, ref_vanilla.row.time_ms);

  std::printf("\n%-7s %-9s %-10s %-12s %-12s %-12s %s\n", "shards",
              "thr/shard", "build ms", "NAId ms", "SGC ms", "prop-MACs x",
              "exact?");
  for (const int num_shards : {1, 2, 4, 8}) {
    if (num_shards > ds.data.graph.num_nodes()) break;
    const auto build_start = Clock::now();
    auto sharded = eval::MakeShardedEngine(pipeline, ds, num_shards);
    const double build_ms = MsSince(build_start);

    const eval::MethodResult naid =
        eval::RunShardedNai(*sharded, ds, test, naid_cfg, "NAId");
    const eval::MethodResult vanilla =
        eval::RunShardedNai(*sharded, ds, test, vanilla_cfg, "SGC");

    const bool exact = naid.predictions == ref_naid.predictions &&
                       vanilla.predictions == ref_vanilla.predictions;
    // > 1 when the shard split broke up co-batched queries and their shared
    // supporting-set work is recomputed per shard.
    const double prop_ratio = bench::Ratio(
        static_cast<double>(naid.stats.propagation_macs),
        static_cast<double>(ref_naid.stats.propagation_macs));
    std::printf("%-7d %-9d %-10.1f %-12.1f %-12.1f %-12.2f %s\n",
                num_shards, sharded->threads_per_shard(), build_ms,
                naid.row.time_ms, vanilla.row.time_ms, prop_ratio,
                exact ? "yes" : "NO — MISMATCH");
    if (!exact) return 1;
  }
  return 0;
}
