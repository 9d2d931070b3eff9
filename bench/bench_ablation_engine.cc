// Engine design-choice ablations: quantifies the impact of
//  (1) the exit criterion: absolute Eq.-8 distance vs the scale-free
//      relative distance the harness deploys,
//  (2) the demand-driven propagation schedule: the propagation work the
//      engine actually executes with early exits, next to what fixed-depth
//      T_max propagation of the same batches costs,
//  (3) mapped propagation vs per-batch induced-submatrix materialization.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/eval/mac_counter.h"
#include "src/eval/datasets.h"
#include "src/eval/harness.h"
#include "src/graph/normalize.h"
#include "src/tensor/ops.h"
#include "src/graph/sampler.h"

namespace {

using namespace nai;

void ExitCriterionAblation(core::NaiEngine& engine,
                           eval::TrainedPipeline& pipeline,
                           const eval::PreparedDataset& ds) {
  std::printf("\n-- exit criterion: absolute (Eq. 8) vs relative --\n");
  const auto settings =
      eval::MakeDefaultSettings(pipeline, ds, core::NapKind::kDistance);
  core::InferenceConfig rel = settings[1].config;
  rel.batch_size = 500;
  const auto r_rel =
      eval::RunNai(engine, ds, ds.split.test_nodes, rel, "relative");

  // Match the absolute threshold so both run at (approximately) the same
  // average depth: scale the relative threshold by the median stationary
  // norm of the validation nodes.
  const tensor::Matrix xinf =
      pipeline.full_stationary->RowsForNodes(ds.split.val_nodes);
  std::vector<float> norms = tensor::RowL2Norms(xinf);
  std::nth_element(norms.begin(), norms.begin() + norms.size() / 2,
                   norms.end());
  core::InferenceConfig abs = rel;
  abs.relative_distance = false;
  abs.threshold = rel.threshold * norms[norms.size() / 2];
  const auto r_abs =
      eval::RunNai(engine, ds, ds.split.test_nodes, abs, "absolute");

  std::printf("relative: ACC %.2f%%  avg depth %.2f\n",
              r_rel.row.accuracy * 100, r_rel.stats.average_depth());
  std::printf("absolute: ACC %.2f%%  avg depth %.2f\n",
              r_abs.row.accuracy * 100, r_abs.stats.average_depth());
}

void ScheduleAblation(core::NaiEngine& engine,
                      eval::TrainedPipeline& pipeline,
                      const eval::PreparedDataset& ds) {
  std::printf("\n-- propagation schedule: executed vs fixed-depth MACs --\n");
  const auto settings =
      eval::MakeDefaultSettings(pipeline, ds, core::NapKind::kDistance);
  core::InferenceConfig cfg = settings[2].config;  // accuracy-first
  cfg.batch_size = 500;
  const auto r =
      eval::RunNai(engine, ds, ds.split.test_nodes, cfg, "accuracy-first");

  // What propagating every batch to T_max would cost (no early-exit
  // savings): eval::FixedDepthPropagationMacs over each batch's support.
  const graph::Csr adj =
      graph::NormalizedAdjacency(ds.data.graph, pipeline.model_config.gamma);
  graph::SupportSampler sampler(adj);
  const int t_max = cfg.effective_t_max(pipeline.model_config.depth);
  const auto f = static_cast<std::int64_t>(ds.data.features.cols());
  const std::vector<std::int32_t>& nodes = ds.split.test_nodes;
  std::int64_t fixed_macs = 0;
  for (std::size_t begin = 0; begin < nodes.size(); begin += cfg.batch_size) {
    const std::vector<std::int32_t> batch(
        nodes.begin() + begin,
        nodes.begin() + std::min(nodes.size(), begin + cfg.batch_size));
    fixed_macs += eval::FixedDepthPropagationMacs(sampler.Sample(batch, t_max),
                                                  t_max, f);
  }
  const double fixed_mmacs_per_node =
      static_cast<double>(fixed_macs) / 1e6 / static_cast<double>(nodes.size());
  std::printf("ACC %.2f%%  avg depth %.2f  T_max %d\n", r.row.accuracy * 100,
              r.stats.average_depth(), t_max);
  std::printf("engine FP mMACs/node          %8.3f  FP time %.1f ms\n",
              r.row.fp_mmacs_per_node, r.row.fp_time_ms);
  std::printf("engine propagation mMACs/node %8.3f\n",
              static_cast<double>(r.stats.propagation_macs) / 1e6 /
                  static_cast<double>(nodes.size()));
  std::printf("fixed-depth T_max mMACs/node  %8.3f\n", fixed_mmacs_per_node);
}

void SamplerAblation(const eval::PreparedDataset& ds, float gamma) {
  std::printf("\n-- supporting-set extraction: mapped vs induced CSR --\n");
  const graph::Csr adj = graph::NormalizedAdjacency(ds.data.graph, gamma);
  graph::SupportSampler sampler(adj);
  std::vector<std::int32_t> batch(ds.split.test_nodes.begin(),
                                  ds.split.test_nodes.begin() + 500);
  const int depth = ds.default_depth;
  constexpr int kReps = 10;
  eval::Timer t_mapped;
  for (int i = 0; i < kReps; ++i) {
    sampler.SampleMapped(batch, depth);
  }
  const double mapped_ms = t_mapped.ElapsedMs() / kReps;
  eval::Timer t_full;
  for (int i = 0; i < kReps; ++i) {
    sampler.Sample(batch, depth);
  }
  const double full_ms = t_full.ElapsedMs() / kReps;
  std::printf("mapped (BFS only):       %8.2f ms/batch\n", mapped_ms);
  std::printf("induced CSR per batch:   %8.2f ms/batch  (%.1fx slower)\n",
              full_ms, full_ms / mapped_ms);
}

}  // namespace

int main(int argc, char** argv) {
  nai::bench::ApplyThreadsFlag(argc, argv);
  using namespace nai;
  bench::Banner("Engine design-choice ablations (arxiv-sim)");
  const eval::PreparedDataset ds =
      eval::Prepare(eval::ArxivSim(eval::EnvScale()));
  eval::TrainedPipeline pipeline =
      eval::TrainPipeline(ds, bench::BenchPipelineConfig());
  auto engine = eval::MakeEngine(pipeline, ds);

  ExitCriterionAblation(*engine, pipeline, ds);
  ScheduleAblation(*engine, pipeline, ds);
  SamplerAblation(ds, pipeline.model_config.gamma);
  return 0;
}
