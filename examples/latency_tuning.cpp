// Latency tuning: how the two global knobs of NAI — the distance threshold
// T_s and the depth window [T_min, T_max] — trade accuracy for speed
// (paper §III-A-3). Sweeps both knobs on unseen nodes and prints the
// frontier, plus the same sweep for the gate-based variant via its
// decision-bias extension.

#include <cstdio>

#include "src/eval/datasets.h"
#include "src/eval/harness.h"
#include "src/runtime/flags.h"

int main(int argc, char** argv) {
  using namespace nai;
  runtime::ApplyThreadsFlag(argc, argv);  // shared --threads flag (or NAI_THREADS)
  runtime::ApplyStoreFlag(argc, argv);    // --store mem|mmap (or NAI_STORE)

  const eval::PreparedDataset ds = eval::Prepare(eval::ArxivSim(0.4));
  eval::PipelineConfig config;
  config.distill.base_epochs = 100;
  config.distill.single_epochs = 60;
  config.distill.multi_epochs = 40;
  eval::TrainedPipeline pipeline = eval::TrainPipeline(ds, config);
  auto engine = eval::MakeEngine(pipeline, ds);
  const int k = pipeline.classifiers->depth();

  // Reference point: fixed-depth vanilla inference.
  const eval::MethodResult vanilla =
      eval::RunVanilla(*engine, ds, ds.split.test_nodes, 500, "vanilla");
  std::printf("vanilla (k=%d): ACC %.2f%%  %.1f ms\n\n", k,
              vanilla.row.accuracy * 100, vanilla.row.time_ms);

  // Knob 1: the distance threshold T_s at fixed T_max = k.
  // Calibrate candidate values from the validation distance distribution.
  const auto base =
      eval::MakeDefaultSettings(pipeline, ds, core::NapKind::kDistance);
  std::printf("T_s sweep (T_max = %d):\n", k);
  for (const float scale : {0.25f, 0.5f, 1.0f, 2.0f, 4.0f}) {
    core::InferenceConfig cfg = base[2].config;  // accuracy-first template
    cfg.threshold *= scale / 1.0f;
    cfg.t_max = k;
    cfg.batch_size = 500;
    const auto r = eval::RunNai(*engine, ds, ds.split.test_nodes, cfg, "");
    std::printf("  T_s=%.4f  ACC %.2f%%  %.1f ms  avg depth %.2f\n",
                cfg.threshold, r.row.accuracy * 100, r.row.time_ms,
                r.stats.average_depth());
  }

  // Knob 2: the depth window, with a fixed mid threshold.
  std::printf("\n[T_min, T_max] sweep:\n");
  for (int t_max = 1; t_max <= k; ++t_max) {
    core::InferenceConfig cfg = base[1].config;
    cfg.t_min = 1;
    cfg.t_max = t_max;
    cfg.batch_size = 500;
    const auto r = eval::RunNai(*engine, ds, ds.split.test_nodes, cfg, "");
    std::printf("  T_max=%d  ACC %.2f%%  %.1f ms  avg depth %.2f\n", t_max,
                r.row.accuracy * 100, r.row.time_ms,
                r.stats.average_depth());
  }

  // Extension knob: NAPg decision bias shifts the stop/continue boundary
  // of the trained gates without retraining (0 = the paper's behavior).
  std::printf("\nNAPg decision-bias sweep:\n");
  for (const float bias : {-0.2f, 0.0f, 0.2f}) {
    core::InferenceConfig cfg;
    cfg.nap = core::NapKind::kGate;
    cfg.gate_bias = bias;
    cfg.t_max = k;
    cfg.batch_size = 500;
    const auto r = eval::RunNai(*engine, ds, ds.split.test_nodes, cfg, "");
    std::printf("  bias=%+.1f  ACC %.2f%%  %.1f ms  avg depth %.2f\n", bias,
                r.row.accuracy * 100, r.row.time_ms,
                r.stats.average_depth());
  }

  return 0;
}
