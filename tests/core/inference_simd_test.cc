// SIMD regression suite for the engines: NaiEngine::Infer and
// ShardedNaiEngine::InferMixed must be bit-exact across dispatch levels
// (NAI_SIMD=scalar vs the host's best vector path) crossed with kernel
// thread counts — the end-to-end guarantee on top of the kernel-level
// parity suite, covering the real call graph (SpMM propagation, NAP
// distance checks, classifier matmuls, and the INT8 classifier whose
// integer arithmetic is exact at every level).

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/inference.h"
#include "src/core/sharded_inference.h"
#include "src/graph/shard.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/simd.h"
#include "tests/core/core_fixtures.h"

namespace nai::core {
namespace {

using nai::testing::MakeSmallWorld;
using nai::testing::MakeTestEngine;
using nai::testing::SmallWorld;

struct DispatchGuard {
  ~DispatchGuard() {
    tensor::simd::SetActiveLevelForTesting(
        tensor::simd::BestSupportedLevel());
    runtime::ThreadPool::SetDefaultThreads(0);
  }
};

void ExpectSameResult(const InferenceResult& got, const InferenceResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.predictions, want.predictions) << label;
  EXPECT_EQ(got.exit_depths, want.exit_depths) << label;
  EXPECT_EQ(got.stats.exits_at_depth, want.stats.exits_at_depth) << label;
  EXPECT_EQ(got.stats.propagation_macs, want.stats.propagation_macs) << label;
  EXPECT_EQ(got.stats.nap_macs, want.stats.nap_macs) << label;
  EXPECT_EQ(got.stats.classification_macs, want.stats.classification_macs)
      << label;
}

TEST(InferenceSimdTest, InferBitExactAcrossLevelsAndThreads) {
  DispatchGuard guard;
  auto w = MakeSmallWorld(3);
  NaiEngine engine = MakeTestEngine(w);
  engine.AttachQuantizedClassifiers(w.quantized.get());

  for (const bool int8 : {false, true}) {
    InferenceConfig cfg;
    cfg.nap = NapKind::kDistance;
    cfg.relative_distance = true;
    cfg.threshold = 0.3f;
    cfg.batch_size = 37;
    cfg.int8_classifier = int8;

    tensor::simd::SetActiveLevelForTesting(tensor::simd::Level::kScalar);
    runtime::ThreadPool::SetDefaultThreads(1);
    const InferenceResult reference = engine.Infer(w.all_nodes, cfg);

    for (const tensor::simd::Level level : tensor::simd::SupportedLevels()) {
      tensor::simd::SetActiveLevelForTesting(level);
      for (const int threads : {1, 8}) {
        runtime::ThreadPool::SetDefaultThreads(threads);
        const InferenceResult run = engine.Infer(w.all_nodes, cfg);
        ExpectSameResult(run, reference,
                         std::string("int8=") + (int8 ? "1" : "0") +
                             " level=" + tensor::simd::LevelName(level) +
                             " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(InferenceSimdTest, ShardedInferMixedBitExactAcrossLevelsAndThreads) {
  DispatchGuard guard;
  auto w = MakeSmallWorld(3);
  ShardedNaiEngine engine =
      nai::testing::MakeTestShardedEngine(w, 2, /*halo_hops=*/3);
  engine.AttachQuantizedClassifiers(w.quantized.get());

  // Three interleaved config groups — speed-ish float, full-depth float,
  // and the INT8 speed shape — the co-batching shape the serving tier
  // submits.
  InferenceConfig speed;
  speed.nap = NapKind::kDistance;
  speed.relative_distance = true;
  speed.threshold = 0.3f;
  speed.t_max = 2;
  InferenceConfig accuracy;
  accuracy.nap = NapKind::kNone;
  accuracy.t_max = 0;  // full depth
  InferenceConfig throughput = speed;
  throughput.int8_classifier = true;
  const InferenceConfig* configs[] = {&speed, &accuracy, &throughput};

  std::vector<ConfiguredQuery> queries;
  for (std::size_t i = 0; i < w.all_nodes.size(); ++i) {
    queries.push_back({w.all_nodes[i], configs[i % 3]});
  }

  tensor::simd::SetActiveLevelForTesting(tensor::simd::Level::kScalar);
  runtime::ThreadPool::SetDefaultThreads(1);
  const InferenceResult reference = engine.InferMixed(queries);

  for (const tensor::simd::Level level : tensor::simd::SupportedLevels()) {
    tensor::simd::SetActiveLevelForTesting(level);
    for (const int threads : {1, 8}) {
      runtime::ThreadPool::SetDefaultThreads(threads);
      const InferenceResult run = engine.InferMixed(queries);
      ExpectSameResult(run, reference,
                       std::string("level=") +
                           tensor::simd::LevelName(level) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST(InferenceSimdTest, Int8ClassifierRequiresAttachedStack) {
  auto w = MakeSmallWorld(2);
  NaiEngine engine = MakeTestEngine(w);
  InferenceConfig cfg;
  cfg.int8_classifier = true;
  EXPECT_THROW(engine.Infer(w.all_nodes, cfg), std::invalid_argument);
  engine.AttachQuantizedClassifiers(w.quantized.get());
  const InferenceResult run = engine.Infer(w.all_nodes, cfg);
  EXPECT_EQ(run.predictions.size(), w.all_nodes.size());
}

TEST(InferenceSimdTest, Int8PredictionsWithinAccuracyDeltaOfFloat) {
  // The quantization contract the serving tier budgets against: on the
  // small world, INT8 classification flips only a small fraction of
  // predictions relative to the same config served in float.
  auto w = MakeSmallWorld(3);
  NaiEngine engine = MakeTestEngine(w);
  engine.AttachQuantizedClassifiers(w.quantized.get());
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.relative_distance = true;
  cfg.threshold = 0.25f;
  const InferenceResult fp32 = engine.Infer(w.all_nodes, cfg);
  cfg.int8_classifier = true;
  const InferenceResult int8 = engine.Infer(w.all_nodes, cfg);
  ASSERT_EQ(fp32.predictions.size(), int8.predictions.size());
  // Exit depths are NAP decisions — float-path quantities, untouched by
  // the classifier's precision.
  EXPECT_EQ(int8.exit_depths, fp32.exit_depths);
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < fp32.predictions.size(); ++i) {
    if (fp32.predictions[i] != int8.predictions[i]) ++flipped;
  }
  EXPECT_LE(static_cast<double>(flipped),
            0.05 * static_cast<double>(fp32.predictions.size()))
      << flipped << " of " << fp32.predictions.size() << " flipped";
}

}  // namespace
}  // namespace nai::core
