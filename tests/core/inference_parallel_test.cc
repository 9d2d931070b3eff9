// Determinism suite for the runtime-backed engine: NaiEngine::Infer must be
// bit-exact across kernel thread counts {1, 2, 8} for NAPd, NAPg and the
// vanilla fixed-depth path. Stats must agree too: the exit histogram and
// every MAC counter are integers; only wall-times may differ.

#include "src/core/inference.h"

#include <string>

#include "gtest/gtest.h"
#include "src/runtime/thread_pool.h"
#include "tests/core/core_fixtures.h"

namespace nai::core {
namespace {

using nai::testing::MakeSmallWorld;
using nai::testing::MakeTestEngine;
using nai::testing::SmallWorld;

void ExpectSameResult(const InferenceResult& got, const InferenceResult& want,
                      const char* label) {
  EXPECT_EQ(got.predictions, want.predictions) << label;
  EXPECT_EQ(got.exit_depths, want.exit_depths) << label;
  EXPECT_EQ(got.stats.num_nodes, want.stats.num_nodes) << label;
  EXPECT_EQ(got.stats.exits_at_depth, want.stats.exits_at_depth) << label;
  EXPECT_EQ(got.stats.propagation_macs, want.stats.propagation_macs) << label;
  EXPECT_EQ(got.stats.nap_macs, want.stats.nap_macs) << label;
  EXPECT_EQ(got.stats.stationary_macs, want.stats.stationary_macs) << label;
  EXPECT_EQ(got.stats.classification_macs, want.stats.classification_macs)
      << label;
}

/// Reference run fully serial (1 thread), then the same query re-run under
/// every thread count.
void CheckDeterminism(SmallWorld& w, const GateStack* gates,
                      InferenceConfig cfg) {
  NaiEngine engine = MakeTestEngine(w, {.gates = gates});
  cfg.batch_size = 37;  // ~11 batches over the 400-node world
  runtime::ThreadPool::SetDefaultThreads(1);
  const InferenceResult reference = engine.Infer(w.all_nodes, cfg);

  for (const int threads : {1, 2, 8}) {
    runtime::ThreadPool::SetDefaultThreads(threads);
    const InferenceResult run = engine.Infer(w.all_nodes, cfg);
    const std::string label = "threads=" + std::to_string(threads);
    ExpectSameResult(run, reference, label.c_str());
  }
  runtime::ThreadPool::SetDefaultThreads(0);
}

TEST(InferenceParallelTest, NapDistanceBitExact) {
  auto w = MakeSmallWorld(3);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.threshold = 0.3f;
  CheckDeterminism(w, nullptr, cfg);
}

TEST(InferenceParallelTest, NapGateBitExact) {
  auto w = MakeSmallWorld(3);
  GateStack gates(3, w.config.feature_dim, 77);
  const tensor::Matrix stationary = w.stationary->RowsForNodes(w.all_nodes);
  GateTrainConfig gcfg;
  gcfg.epochs = 20;
  gates.Train(w.stack, stationary, *w.classifiers, w.all_nodes, w.data.labels,
              gcfg);
  InferenceConfig cfg;
  cfg.nap = NapKind::kGate;
  CheckDeterminism(w, &gates, cfg);
}

TEST(InferenceParallelTest, VanillaBitExact) {
  auto w = MakeSmallWorld(3);
  InferenceConfig cfg;
  cfg.nap = NapKind::kNone;
  CheckDeterminism(w, nullptr, cfg);
}

TEST(InferenceParallelTest, StatsAccumulateMergesHistogram) {
  InferenceStats a, b;
  a.exits_at_depth = {1, 2};
  a.propagation_macs = 10;
  a.fp_time_ms = 1.5;
  b.exits_at_depth = {4, 5, 6};
  b.propagation_macs = 32;
  b.nap_macs = 7;
  b.fp_time_ms = 2.5;
  a.Accumulate(b);
  EXPECT_EQ(a.exits_at_depth, (std::vector<std::int64_t>{5, 7, 6}));
  EXPECT_EQ(a.propagation_macs, 42);
  EXPECT_EQ(a.nap_macs, 7);
  EXPECT_DOUBLE_EQ(a.fp_time_ms, 4.0);
}

}  // namespace
}  // namespace nai::core
