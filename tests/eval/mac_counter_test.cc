#include "src/eval/mac_counter.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/nap_distance.h"
#include "src/graph/generators.h"
#include "src/graph/normalize.h"
#include "tests/core/core_fixtures.h"

namespace nai::eval {
namespace {

/// Table I's q from an exit histogram, via the engine's own stats.
double AverageDepth(std::vector<std::int64_t> exits_at_depth) {
  core::InferenceStats stats;
  stats.exits_at_depth = std::move(exits_at_depth);
  return stats.average_depth();
}

TEST(MacCounterTest, AverageDepth) {
  EXPECT_DOUBLE_EQ(AverageDepth({10, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(AverageDepth({0, 0, 10}), 3.0);
  EXPECT_DOUBLE_EQ(AverageDepth({5, 0, 5}), 2.0);
  EXPECT_DOUBLE_EQ(AverageDepth({}), 0.0);
  EXPECT_DOUBLE_EQ(AverageDepth({0, 0, 0}), 0.0);
}

TEST(MacCounterTest, FixedDepthPropagationMacs) {
  const graph::Graph g = graph::CycleGraph(20);
  const graph::Csr adj = graph::NormalizedAdjacency(g, 0.5f);
  graph::SupportSampler sampler(adj);
  const graph::BatchSupport support = sampler.Sample({0, 10}, 3);
  const std::int64_t f = 8;
  const std::int64_t macs = FixedDepthPropagationMacs(support, 3, f);
  // Manual: hop l computes prefix layer_counts[3-l] rows.
  std::int64_t expected = 0;
  for (int l = 1; l <= 3; ++l) {
    expected += support.sub_adj.row_ptr[support.layer_counts[3 - l]] * f;
  }
  EXPECT_EQ(macs, expected);
  EXPECT_GT(macs, 0);
}

TEST(MacCounterTest, ParamsFromStatsRoundTrip) {
  core::InferenceStats stats;
  stats.num_nodes = 100;
  stats.exits_at_depth = {50, 50};     // q = 1.5
  stats.propagation_macs = 1'500'000;  // = q * m * f with m=10000, f=100
  const core::ComplexityParams p = ParamsFromStats(stats, 100, 2, 2);
  EXPECT_EQ(p.n, 100);
  EXPECT_EQ(p.f, 100);
  EXPECT_EQ(p.p, 2);
  EXPECT_DOUBLE_EQ(p.q, 1.5);
  EXPECT_EQ(p.m, 10000);
}

TEST(MacCounterTest, AverageDepthWeighted) {
  // 1*1 + 3*2 + 6*3 over 10 nodes = 2.5.
  EXPECT_DOUBLE_EQ(AverageDepth({1, 3, 6}), 2.5);
}

TEST(MacCounterTest, PropagationMacsMonotoneInDepth) {
  const graph::Graph g = graph::GridGraph(6, 6);
  const graph::Csr adj = graph::NormalizedAdjacency(g, 0.5f);
  graph::SupportSampler sampler(adj);
  std::int64_t prev = 0;
  for (int depth = 1; depth <= 3; ++depth) {
    const graph::BatchSupport support = sampler.Sample({0, 35}, depth);
    const std::int64_t macs = FixedDepthPropagationMacs(support, depth, 4);
    EXPECT_GT(macs, prev) << "depth " << depth;
    prev = macs;
  }
}

TEST(MacCounterTest, PropagationMacsScaleLinearlyInFeatureDim) {
  const graph::Graph g = graph::CycleGraph(30);
  const graph::Csr adj = graph::NormalizedAdjacency(g, 0.5f);
  graph::SupportSampler sampler(adj);
  const graph::BatchSupport support = sampler.Sample({0, 15}, 2);
  const std::int64_t f8 = FixedDepthPropagationMacs(support, 2, 8);
  const std::int64_t f16 = FixedDepthPropagationMacs(support, 2, 16);
  EXPECT_EQ(f16, 2 * f8);
}

/// Sum over the batches Infer forms of the fixed-depth T_max cost.
std::int64_t FixedDepthMacsOverBatches(const graph::Csr& norm_adj,
                                       const std::vector<std::int32_t>& nodes,
                                       std::size_t batch_size, int t_max,
                                       std::int64_t f) {
  graph::SupportSampler sampler(norm_adj);
  std::int64_t macs = 0;
  for (std::size_t begin = 0; begin < nodes.size(); begin += batch_size) {
    const std::vector<std::int32_t> batch(
        nodes.begin() + begin,
        nodes.begin() + std::min(nodes.size(), begin + batch_size));
    macs += FixedDepthPropagationMacs(sampler.Sample(batch, t_max), t_max, f);
  }
  return macs;
}

TEST(MacCounterTest, EngineMacsEqualFixedDepthWhenNothingExitsEarly) {
  // The engine's propagation MACs contract: a batch whose nodes all run to
  // T_max costs exactly fixed-depth T_max propagation of that batch, both
  // with no exit checks (kNone) and with checks that never fire (NAPd at
  // threshold 0).
  auto w = nai::testing::MakeSmallWorld(4);
  core::NaiEngine engine = nai::testing::MakeTestEngine(w);
  const std::int64_t f = w.config.feature_dim;
  const std::vector<std::int32_t> duplicates = {7, 7, 120, 3, 7, 120, 55};
  for (const std::vector<std::int32_t>* nodes :
       {static_cast<const std::vector<std::int32_t>*>(&w.all_nodes),
        &duplicates}) {
    for (const std::size_t bs : {std::size_t{1}, std::size_t{3},
                                 std::size_t{64}, nodes->size()}) {
      for (const int t_max : {1, 2, 4}) {
        core::InferenceConfig none;
        none.nap = core::NapKind::kNone;
        none.t_max = t_max;
        none.batch_size = bs;
        core::InferenceConfig zero = none;
        zero.nap = core::NapKind::kDistance;
        zero.threshold = 0.0f;
        const std::int64_t want =
            FixedDepthMacsOverBatches(w.norm_adj, *nodes, bs, t_max, f);
        EXPECT_EQ(engine.Infer(*nodes, none).stats.propagation_macs, want)
            << "kNone bs=" << bs << " t_max=" << t_max;
        EXPECT_EQ(engine.Infer(*nodes, zero).stats.propagation_macs, want)
            << "threshold 0 bs=" << bs << " t_max=" << t_max;
      }
    }
  }
}

TEST(MacCounterTest, EarlyExitsCostStrictlyLessThanFixedDepth) {
  auto w = nai::testing::MakeSmallWorld(4);
  core::NaiEngine engine = nai::testing::MakeTestEngine(w);
  const std::int64_t f = w.config.feature_dim;
  for (const std::size_t bs : {std::size_t{1}, std::size_t{64},
                               w.all_nodes.size()}) {
    core::InferenceConfig cfg;
    cfg.nap = core::NapKind::kDistance;
    cfg.relative_distance = true;
    // The median depth-1 distance: about half the nodes exit at depth 1.
    std::vector<float> d = core::NapDistance(0.0f, true).ComputeDistances(
        w.stack[1], w.stationary->RowsForNodes(w.all_nodes));
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    cfg.threshold = d[d.size() / 2];
    cfg.batch_size = bs;
    const core::InferenceResult r = engine.Infer(w.all_nodes, cfg);
    ASSERT_GT(r.stats.exits_at_depth[0], 0);
    EXPECT_LT(r.stats.propagation_macs,
              FixedDepthMacsOverBatches(w.norm_adj, w.all_nodes, bs, 4, f))
        << "bs=" << bs;
  }
}

}  // namespace
}  // namespace nai::eval
