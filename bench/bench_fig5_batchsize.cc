// Figure 5: per-node MACs and inference time as the batch size sweeps
// 100 -> 2000 on flickr-sim, for SGC, GLNN, NOSMOG, TinyGNN, Quantization,
// NAId and NAIg. The paper's observations to reproduce: TinyGNN grows
// strongly with batch size; GLNN stays flat and tiny; NAI grows mildly in
// MACs (stationary + distance work per target node) but stays flat in time.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/eval/datasets.h"
#include "src/eval/harness.h"

namespace {

using namespace nai;

}  // namespace

int main(int argc, char** argv) {
  nai::bench::ApplyThreadsFlag(argc, argv);
  const int shards = nai::bench::ApplyShardsFlag(argc, argv);
  using namespace nai;
  const double scale = eval::EnvScale();
  bench::Banner("Figure 5 — batch-size sweep on flickr-sim");
  const eval::PreparedDataset ds = eval::Prepare(eval::FlickrSim(scale));
  eval::TrainedPipeline pipeline =
      eval::TrainPipeline(ds, bench::BenchPipelineConfig());
  auto engine = eval::MakeEngine(pipeline, ds);
  // --shards N > 1: NAI rows (the only graph-serving methods) come from the
  // sharded engine, which forms the same batches on N engine replicas.
  std::unique_ptr<core::ShardedNaiEngine> sharded_engine;
  if (shards > 1) sharded_engine = eval::MakeShardedEngine(pipeline, ds, shards);
  auto run_nai = [&](const core::InferenceConfig& cfg, const char* name) {
    return sharded_engine != nullptr
               ? eval::RunShardedNai(*sharded_engine, ds, ds.split.test_nodes,
                                     cfg, name)
               : eval::RunNai(*engine, ds, ds.split.test_nodes, cfg, name);
  };
  const auto& test = ds.split.test_nodes;

  // Baselines whose inference is batch-independent are trained once.
  const auto glnn = eval::RunGlnn(pipeline, ds, test, 4);
  const auto nosmog = eval::RunNosmog(pipeline, ds, test);
  const auto tiny_all = eval::RunTinyGnn(pipeline, ds, test);

  const std::vector<std::size_t> batch_sizes = {100, 250, 500, 1000, 2000};
  std::printf("%-8s %-14s %14s %12s\n", "batch", "method", "mMACs/node",
              "Time(ms)");
  for (const std::size_t bs : batch_sizes) {
    const auto vanilla = eval::RunVanilla(*engine, ds, test, bs, "SGC");
    std::printf("%-8zu %-14s %14.3f %12.1f\n", bs, "SGC",
                vanilla.row.mmacs_per_node, vanilla.row.time_ms);

    const auto quant = eval::RunQuantized(pipeline, ds, test, bs);
    std::printf("%-8zu %-14s %14.3f %12.1f\n", bs, "Quantization",
                quant.row.mmacs_per_node, quant.row.time_ms);

    const auto napd_settings =
        eval::MakeDefaultSettings(pipeline, ds, core::NapKind::kDistance);
    core::InferenceConfig cfg_d = napd_settings[0].config;
    cfg_d.batch_size = bs;
    const auto naid = run_nai(cfg_d, "NAId");
    std::printf("%-8zu %-14s %14.3f %12.1f\n", bs, "NAId",
                naid.row.mmacs_per_node, naid.row.time_ms);

    core::InferenceConfig cfg_g = cfg_d;
    cfg_g.nap = core::NapKind::kGate;
    const auto naig = run_nai(cfg_g, "NAIg");
    std::printf("%-8zu %-14s %14.3f %12.1f\n", bs, "NAIg",
                naig.row.mmacs_per_node, naig.row.time_ms);
  }
  // Batch-independent rows (MLP baselines classify each node in isolation;
  // TinyGNN fetches 1-hop peers per query set).
  std::printf("%-8s %-14s %14.3f %12.1f\n", "any", "GLNN",
              glnn.row.mmacs_per_node, glnn.row.time_ms);
  std::printf("%-8s %-14s %14.3f %12.1f\n", "any", "NOSMOG",
              nosmog.row.mmacs_per_node, nosmog.row.time_ms);
  std::printf("%-8s %-14s %14.3f %12.1f\n", "any", "TinyGNN",
              tiny_all.row.mmacs_per_node, tiny_all.row.time_ms);
  return 0;
}
