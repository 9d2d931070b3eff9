// Table V: main inference comparison under base model SGC on the three
// dataset presets — ACC / mMACs/node / FP mMACs/node / Time / FP Time for
// vanilla SGC, GLNN, NOSMOG, TinyGNN, Quantization, NAId and NAIg
// (speed-first setting, batch size 500).
//
// Exits nonzero when, on any dataset, NAId or NAIg falls below a
// kMinFpMacSpeedup FP-MAC speedup over SGC or loses more than
// kMaxAccuracyGapPoints of SGC's accuracy, or when a setting that leaves
// NAP room to act (t_min < t_max) exits fewer than kMinEarlyExitShare of
// the test nodes before T_max. The last check is what catches a NAP that
// never fires: the speed-first T_max of 2 alone already clears the
// speedup bound. The speed-first NAIg has no such room (its gates start
// at depth 2), so NAIg is also run at the NAI2 setting, where only the
// early-exit check applies. The gate reads only MACs, exit depths and
// accuracy, which are bit-exact across threads, shards and SIMD levels;
// it is calibrated for NAI_SCALE=1 (smaller scales widen the accuracy
// gaps).

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/eval/datasets.h"
#include "src/eval/harness.h"

namespace {

using namespace nai;

constexpr double kMinFpMacSpeedup = 4.0;
constexpr double kMaxAccuracyGapPoints = 6.0;
constexpr double kMinEarlyExitShare = 0.05;

/// The share of nodes of one NAI run of `config` that exited before T_max.
double EarlyExitShare(const eval::MethodResult& nai,
                      const core::InferenceConfig& config) {
  // exits_at_depth[d - 1] counts the nodes that stopped at depth d.
  const std::vector<std::int64_t>& exits = nai.stats.exits_at_depth;
  const std::size_t cap =
      config.t_max > 0 ? static_cast<std::size_t>(config.t_max) : exits.size();
  std::int64_t total = 0;
  std::int64_t early = 0;
  for (std::size_t d = 0; d < exits.size(); ++d) {
    total += exits[d];
    if (d + 1 < cap) early += exits[d];
  }
  return total > 0 ? static_cast<double>(early) / static_cast<double>(total)
                   : 0.0;
}

/// Checks one NAI run of `config` against vanilla SGC; prints and returns
/// the verdict.
bool PassesGate(const eval::EvalRow& sgc, const eval::MethodResult& nai,
                const core::InferenceConfig& config) {
  const double speedup =
      bench::Ratio(sgc.fp_mmacs_per_node, nai.row.fp_mmacs_per_node);
  const double gap_points = 100.0 * (sgc.accuracy - nai.row.accuracy);
  const double early_share = EarlyExitShare(nai, config);
  const bool nap_room = config.t_min < config.t_max;
  const bool pass = speedup >= kMinFpMacSpeedup &&
                    gap_points <= kMaxAccuracyGapPoints &&
                    (!nap_room || early_share >= kMinEarlyExitShare);
  std::printf("gate %-5s FP MACs x%.2f (min x%.1f)  accuracy gap %.2f pts "
              "(max %.1f)  early exits %.1f%% ",
              nai.row.method.c_str(), speedup, kMinFpMacSpeedup, gap_points,
              kMaxAccuracyGapPoints, 100.0 * early_share);
  if (nap_room) {
    std::printf("(min %.1f%%)", 100.0 * kMinEarlyExitShare);
  } else {
    std::printf("(unchecked: t_min = t_max)");
  }
  std::printf("  %s\n", pass ? "PASS" : "FAIL");
  return pass;
}

bool RunDataset(const eval::DatasetSpec& spec, int shards) {
  bench::Banner("Table V — " + spec.name + " (base model SGC)");
  const eval::PreparedDataset ds = eval::Prepare(spec);
  std::printf("n=%lld m=%lld f=%zu c=%d | train=%zu labeled=%zu val=%zu test=%zu\n",
              static_cast<long long>(ds.data.graph.num_nodes()),
              static_cast<long long>(ds.data.graph.num_edges()),
              ds.data.features.cols(), ds.data.num_classes,
              ds.split.train_nodes.size(), ds.split.labeled_nodes.size(),
              ds.split.val_nodes.size(), ds.split.test_nodes.size());

  eval::TrainedPipeline pipeline =
      eval::TrainPipeline(ds, bench::BenchPipelineConfig());
  auto engine = eval::MakeEngine(pipeline, ds);
  // --shards N > 1 serves the NAI rows from the partitioned graph (same
  // predictions, per-shard pools); the non-NAI baselines have no graph at
  // inference time and always run unsharded.
  std::unique_ptr<core::ShardedNaiEngine> sharded;
  if (shards > 1) {
    sharded = eval::MakeShardedEngine(pipeline, ds, shards);
    std::printf("serving NAI rows from %zu shards (%d threads each)\n",
                sharded->num_shards(), sharded->threads_per_shard());
  }
  auto run_nai = [&](const core::InferenceConfig& config,
                     const std::string& name) {
    return sharded != nullptr
               ? eval::RunShardedNai(*sharded, ds, ds.split.test_nodes,
                                     config, name)
               : eval::RunNai(*engine, ds, ds.split.test_nodes, config, name);
  };
  const auto& test = ds.split.test_nodes;
  const std::size_t batch = 500;

  std::vector<eval::EvalRow> rows;
  const eval::MethodResult vanilla =
      eval::RunVanilla(*engine, ds, test, batch, "SGC");
  rows.push_back(vanilla.row);
  rows.push_back(eval::RunGlnn(pipeline, ds, test, /*hidden_multiplier=*/4).row);
  rows.push_back(eval::RunNosmog(pipeline, ds, test).row);
  rows.push_back(eval::RunTinyGnn(pipeline, ds, test).row);
  rows.push_back(eval::RunQuantized(pipeline, ds, test, batch).row);

  // Speed-first NAI settings (the paper's Table V rows).
  const auto napd_settings =
      eval::MakeDefaultSettings(pipeline, ds, core::NapKind::kDistance);
  core::InferenceConfig napd = napd_settings[0].config;
  napd.batch_size = batch;
  const eval::MethodResult naid = run_nai(napd, "NAId");
  rows.push_back(naid.row);

  const auto napg_settings =
      eval::MakeDefaultSettings(pipeline, ds, core::NapKind::kGate);
  core::InferenceConfig napg = napg_settings[0].config;
  napg.batch_size = batch;
  const eval::MethodResult naig = run_nai(napg, "NAIg");
  rows.push_back(naig.row);

  eval::PrintTable("inference comparison", rows);
  std::printf(
      "speedups vs vanilla SGC:  NAId  MACs %.0fx  FP MACs %.0fx  Time %.0fx "
      " FP Time %.0fx\n",
      bench::Ratio(rows[0].mmacs_per_node, naid.row.mmacs_per_node),
      bench::Ratio(rows[0].fp_mmacs_per_node, naid.row.fp_mmacs_per_node),
      bench::Ratio(rows[0].time_ms, naid.row.time_ms),
      bench::Ratio(rows[0].fp_time_ms, naid.row.fp_time_ms));
  std::printf(
      "                          NAIg  MACs %.0fx  FP MACs %.0fx  Time %.0fx "
      " FP Time %.0fx\n",
      bench::Ratio(rows[0].mmacs_per_node, naig.row.mmacs_per_node),
      bench::Ratio(rows[0].fp_mmacs_per_node, naig.row.fp_mmacs_per_node),
      bench::Ratio(rows[0].time_ms, naig.row.time_ms),
      bench::Ratio(rows[0].fp_time_ms, naig.row.fp_time_ms));
  const bool naid_ok = PassesGate(vanilla.row, naid, napd);
  const bool naig_ok = PassesGate(vanilla.row, naig, napg);

  // The speed-first gates cannot fire (t_min = t_max = 2), so the NAIg row
  // above says nothing about them. The NAI2 setting leaves them room
  // (t_min < t_max); it must exit at least kMinEarlyExitShare early.
  core::InferenceConfig napg2 = napg_settings[1].config;
  napg2.batch_size = batch;
  const double naig2_share =
      EarlyExitShare(run_nai(napg2, "NAIg-NAI2"), napg2);
  const bool naig2_ok = napg2.t_min < napg2.t_max &&
                        naig2_share >= kMinEarlyExitShare;
  std::printf("gate NAIg at NAI2 (t_min %d, t_max %d)  early exits %.1f%% "
              "(min %.1f%%)  %s\n",
              napg2.t_min, napg2.t_max, 100.0 * naig2_share,
              100.0 * kMinEarlyExitShare, naig2_ok ? "PASS" : "FAIL");
  return naid_ok && naig_ok && naig2_ok;
}

}  // namespace

int main(int argc, char** argv) {
  nai::bench::ApplyThreadsFlag(argc, argv);
  const int shards = nai::bench::ApplyShardsFlag(argc, argv);
  const double scale = nai::eval::EnvScale();
  bool pass = RunDataset(nai::eval::FlickrSim(scale), shards);
  pass = RunDataset(nai::eval::ArxivSim(scale), shards) && pass;
  pass = RunDataset(nai::eval::ProductsSim(scale), shards) && pass;
  if (!pass) {
    std::fprintf(stderr, "bench_table5_main: Table V gate FAILED\n");
    return 1;
  }
  return 0;
}
