#include "src/core/stationary.h"
#include <cmath>
#include <cstring>

#include "gtest/gtest.h"
#include "src/tensor/ops.h"
#include "src/graph/delta.h"
#include "src/graph/generators.h"
#include "src/graph/normalize.h"
#include "src/models/scalable_gnn.h"
#include "tests/core/core_fixtures.h"
#include "tests/test_util.h"

namespace nai::core {
namespace {

using nai::testing::RandomMatrix;

class StationaryGamma : public ::testing::TestWithParam<float> {};

TEST_P(StationaryGamma, RankOneMatchesDenseReference) {
  const float gamma = GetParam();
  graph::GeneratorConfig cfg;
  cfg.num_nodes = 80;
  cfg.num_edges = 300;
  cfg.feature_dim = 5;
  cfg.seed = 3;
  const graph::SyntheticDataset ds = graph::GenerateDataset(cfg);
  const StationaryState state(ds.graph, ds.features, gamma);

  std::vector<std::int32_t> all;
  for (std::int32_t i = 0; i < ds.graph.num_nodes(); ++i) all.push_back(i);
  const tensor::Matrix fast = state.RowsForNodes(all);
  const tensor::Matrix dense =
      StationaryStateDense(ds.graph, ds.features, gamma);
  nai::testing::ExpectMatrixNear(fast, dense, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Gammas, StationaryGamma,
                         ::testing::Values(0.0f, 0.5f, 1.0f));

TEST(StationaryTest, PropagationConvergesToStationary) {
  // On a connected graph, Â^t X -> X^(∞) as t grows (Eq. 6). Use a small
  // connected graph and many hops.
  const graph::Graph g = graph::CompleteGraph(3);
  // Make it irregular by attaching a path: nodes 3, 4.
  const graph::Graph graph = graph::Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}});
  (void)g;
  const tensor::Matrix x = RandomMatrix(5, 3, 7);
  const float gamma = 0.5f;
  const graph::Csr adj = graph::NormalizedAdjacency(graph, gamma);
  const auto stack = models::PropagateStack(adj, x, 200);
  const StationaryState state(graph, x, gamma);
  std::vector<std::int32_t> all = {0, 1, 2, 3, 4};
  const tensor::Matrix inf = state.RowsForNodes(all);
  nai::testing::ExpectMatrixNear(stack.back(), inf, 1e-2f);
}

TEST(StationaryTest, DistanceToStationaryShrinksWithDepth) {
  graph::GeneratorConfig cfg;
  cfg.num_nodes = 200;
  cfg.num_edges = 900;
  cfg.feature_dim = 6;
  cfg.seed = 9;
  const graph::SyntheticDataset ds = graph::GenerateDataset(cfg);
  const float gamma = 0.5f;
  const graph::Csr adj = graph::NormalizedAdjacency(ds.graph, gamma);
  const auto stack = models::PropagateStack(adj, ds.features, 6);
  const StationaryState state(ds.graph, ds.features, gamma);
  std::vector<std::int32_t> all;
  for (std::int32_t i = 0; i < 200; ++i) all.push_back(i);
  const tensor::Matrix inf = state.RowsForNodes(all);

  double prev = 1e300;
  for (int t = 0; t <= 6; t += 2) {
    const auto d = tensor::RowL2Distance(stack[t], inf);
    double total = 0.0;
    for (const float v : d) total += v;
    EXPECT_LT(total, prev);
    prev = total;
  }
}

TEST(StationaryTest, HighDegreeNodesCloserToStationaryRelatively) {
  // The paper's motivation: hubs smooth faster. Because ||X^(∞)_i|| itself
  // grows like sqrt(d_i+1) under symmetric normalization, the scale-free
  // comparison divides by the stationary norm (NapDistance relative mode).
  graph::GeneratorConfig cfg;
  cfg.num_nodes = 500;
  cfg.num_edges = 3000;
  cfg.power_law_exponent = 2.0f;
  cfg.feature_dim = 8;
  cfg.seed = 11;
  const graph::SyntheticDataset ds = graph::GenerateDataset(cfg);
  const graph::Csr adj = graph::NormalizedAdjacency(ds.graph, 0.5f);
  const auto stack = models::PropagateStack(adj, ds.features, 2);
  const StationaryState state(ds.graph, ds.features, 0.5f);
  std::vector<std::int32_t> all;
  for (std::int32_t i = 0; i < 500; ++i) all.push_back(i);
  const tensor::Matrix inf = state.RowsForNodes(all);
  auto dist = tensor::RowL2Distance(stack[2], inf);
  for (std::size_t i = 0; i < dist.size(); ++i) {
    dist[i] /= std::sqrt(inf.RowSquaredNorm(i)) + 1e-12f;
  }

  // Compare mean distance of top-decile degree vs bottom-decile degree.
  std::vector<std::int32_t> order = all;
  std::sort(order.begin(), order.end(), [&](auto a, auto b) {
    return ds.graph.degree(a) < ds.graph.degree(b);
  });
  double low = 0.0, high = 0.0;
  const std::size_t decile = 50;
  for (std::size_t i = 0; i < decile; ++i) {
    low += dist[order[i]];
    high += dist[order[order.size() - 1 - i]];
  }
  EXPECT_LT(high, low);
}

TEST(StationaryTest, RowsForDegreesHandlesUnseenNodes) {
  const graph::Graph g = graph::CycleGraph(10);
  const tensor::Matrix x = RandomMatrix(10, 4, 13);
  const StationaryState state(g, x, 0.5f);
  // A hypothetical unseen node of degree 4 (d+1 = 5).
  const tensor::Matrix rows = state.RowsForDegrees({5.0f});
  EXPECT_EQ(rows.rows(), 1u);
  EXPECT_EQ(rows.cols(), 4u);
  // Scaling law: degree-weight scales like (d+1)^gamma.
  const tensor::Matrix rows2 = state.RowsForDegrees({20.0f});
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(rows2.at(0, j) / rows.at(0, j), std::sqrt(20.0f / 5.0f),
                1e-4f);
  }
}

TEST(StationaryTest, PooledVectorShape) {
  const graph::Graph g = graph::StarGraph(5);
  const tensor::Matrix x = RandomMatrix(6, 7, 17);
  const StationaryState state(g, x, 0.5f);
  EXPECT_EQ(state.pooled().rows(), 1u);
  EXPECT_EQ(state.pooled().cols(), 7u);
  EXPECT_FLOAT_EQ(state.gamma(), 0.5f);
}

TEST(StationaryTest, FromPooledReconstructsIdenticalState) {
  const graph::Graph g = graph::GridGraph(4, 4);
  const tensor::Matrix x = RandomMatrix(16, 5, 19);
  const StationaryState original(g, x, 0.5f);
  const StationaryState rebuilt =
      StationaryState::FromPooled(g, original.pooled(), 0.5f);
  std::vector<std::int32_t> all;
  for (std::int32_t i = 0; i < 16; ++i) all.push_back(i);
  EXPECT_EQ(original.RowsForNodes(all).CountDifferences(
                rebuilt.RowsForNodes(all), 0.0f),
            0u);
}

/// Engines build their stationary view from the snapshot store's pooled
/// vector; the direct StationaryState computation is the independent
/// reference it must match bit for bit (pooled vector and every row).
void ExpectSnapshotStationaryMatchesDirect(const graph::Graph& g,
                                           const tensor::Matrix& x,
                                           float gamma) {
  const StationaryState direct(g, x, gamma);
  const auto snapshot = graph::MakeSnapshot(g, x, gamma);
  const StationaryState via_snapshot = StationaryState::FromPooled(
      g, *snapshot->feature_store->stationary_pooled(), gamma);
  ASSERT_EQ(direct.pooled().size(), via_snapshot.pooled().size());
  EXPECT_EQ(std::memcmp(direct.pooled().data(), via_snapshot.pooled().data(),
                        direct.pooled().size() * sizeof(float)),
            0);
  std::vector<std::int32_t> all;
  for (std::int32_t i = 0; i < g.num_nodes(); ++i) all.push_back(i);
  const tensor::Matrix want = direct.RowsForNodes(all);
  const tensor::Matrix got = via_snapshot.RowsForNodes(all);
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
            0);
}

TEST(StationaryTest, SnapshotPooledVectorMatchesDirectComputation) {
  const auto w = nai::testing::MakeSmallWorld(3, models::ModelKind::kSgc, 400,
                                              /*train_epochs=*/1);
  ExpectSnapshotStationaryMatchesDirect(w.data.graph, w.data.features,
                                        w.config.gamma);
  // The isolated-node and edgeless graphs of inference_edge_test.
  ExpectSnapshotStationaryMatchesDirect(
      graph::Graph::FromEdges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
      RandomMatrix(6, 8, 3), 0.5f);
  ExpectSnapshotStationaryMatchesDirect(graph::Graph::FromEdges(12, {}),
                                        RandomMatrix(12, 8, 17), 0.5f);
}

}  // namespace
}  // namespace nai::core
