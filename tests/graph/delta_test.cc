// Tests of the delta log and the incremental SnapshotBuilder: every Apply
// must be bit-identical to a from-scratch rebuild of the merged graph
// (MergeFromScratch), validation must reject malformed deltas without
// touching the base, and the copy-vs-recompute accounting must match the
// dirty-row rule (a normalized row is rebuilt iff a degree in it changed).

#include "src/graph/delta.h"

#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/runtime/error.h"

namespace nai::graph {
namespace {

void ExpectCsrEq(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  ASSERT_EQ(a.row_ptr, b.row_ptr);
  ASSERT_EQ(a.col_idx, b.col_idx);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    ASSERT_EQ(a.values[i], b.values[i]) << "value " << i;
  }
}

void ExpectMatrixEq(const tensor::Matrix& a, const tensor::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  const std::size_t n = a.rows() * a.cols();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

void ExpectSnapshotEq(const GraphSnapshot& a, const GraphSnapshot& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.gamma, b.gamma);
  ExpectCsrEq(a.graph().adjacency(), b.graph().adjacency());
  ExpectMatrixEq(a.features(), b.features());
  ExpectCsrEq(a.norm_csr(), b.norm_csr());
  ExpectMatrixEq(a.stationary_pooled(), b.stationary_pooled());
}

std::shared_ptr<const GraphSnapshot> MakeBase(std::int64_t num_nodes = 120,
                                              std::uint64_t seed = 7) {
  GeneratorConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.num_edges = num_nodes * 4;
  cfg.feature_dim = 8;
  cfg.seed = seed;
  SyntheticDataset ds = GenerateDataset(cfg);
  return MakeSnapshot(std::move(ds.graph), std::move(ds.features), 0.5f);
}

std::vector<float> Row(std::size_t width, float fill) {
  return std::vector<float>(width, fill);
}

TEST(GraphDeltaTest, EmptyDeltaIsIdentityExceptVersion) {
  auto base = MakeBase();
  SnapshotBuilder builder(base);
  auto next = builder.Apply(GraphDelta{});
  EXPECT_EQ(next->version, base->version + 1);
  ExpectCsrEq(next->graph().adjacency(), base->graph().adjacency());
  ExpectMatrixEq(next->features(), base->features());
  ExpectCsrEq(next->norm_csr(), base->norm_csr());
  ExpectMatrixEq(next->stationary_pooled(), base->stationary_pooled());
  const SnapshotBuildStats& stats = builder.last_stats();
  EXPECT_EQ(stats.new_nodes, 0);
  EXPECT_EQ(stats.new_edges, 0);
  EXPECT_EQ(stats.norm_rows_recomputed, 0);
  EXPECT_EQ(stats.norm_rows_copied, base->graph().num_nodes());
}

TEST(GraphDeltaTest, EdgeInsertMatchesFromScratch) {
  auto base = MakeBase();
  GraphDelta delta;
  delta.AddEdge(3, 90);
  delta.AddEdge(17, 41);
  SnapshotBuilder builder(base);
  auto incremental = builder.Apply(delta);
  auto scratch = MergeFromScratch(*base, {delta});
  ExpectSnapshotEq(*incremental, *scratch);
}

TEST(GraphDeltaTest, NodeInsertAndFeatureUpdateMatchFromScratch) {
  auto base = MakeBase();
  const std::size_t f = base->features().cols();
  const std::int64_t n = base->graph().num_nodes();
  GraphDelta delta;
  const std::int32_t a = delta.AddNode(Row(f, 0.25f), n);
  const std::int32_t b = delta.AddNode(Row(f, -1.5f), n);
  delta.AddEdge(a, 5);
  delta.AddEdge(a, b);  // edge between two new nodes
  delta.UpdateFeatures(12, Row(f, 3.0f));
  // An update may also target a node inserted by the same delta; it wins
  // over the insert row.
  delta.UpdateFeatures(b, Row(f, 9.0f));
  SnapshotBuilder builder(base);
  auto incremental = builder.Apply(delta);
  auto scratch = MergeFromScratch(*base, {delta});
  ExpectSnapshotEq(*incremental, *scratch);
  EXPECT_EQ(incremental->graph().num_nodes(), n + 2);
  EXPECT_EQ(incremental->features().data()[static_cast<std::size_t>(b) * f],
            9.0f);
  EXPECT_TRUE(incremental->graph().HasEdge(a, b));
}

TEST(GraphDeltaTest, ChainedAppliesMatchOneFromScratchMerge) {
  auto base = MakeBase(150, 21);
  const std::size_t f = base->features().cols();
  std::vector<GraphDelta> deltas;
  std::int64_t n = base->graph().num_nodes();
  for (int d = 0; d < 4; ++d) {
    GraphDelta delta;
    const std::int32_t fresh = delta.AddNode(Row(f, 0.1f * (d + 1)), n);
    delta.AddEdge(fresh, d * 7);
    delta.AddEdge(d * 3 + 1, d * 11 + 2);
    delta.UpdateFeatures(d * 5, Row(f, static_cast<float>(d)));
    n += 1;
    deltas.push_back(std::move(delta));
  }
  SnapshotBuilder builder(base);
  std::shared_ptr<const GraphSnapshot> incremental;
  for (const GraphDelta& delta : deltas) incremental = builder.Apply(delta);
  EXPECT_EQ(incremental->version, base->version + deltas.size());
  auto scratch = MergeFromScratch(*base, deltas);
  ExpectSnapshotEq(*incremental, *scratch);
}

TEST(GraphDeltaTest, DropsSelfLoopsDuplicatesAndExistingEdges) {
  auto base = MakeBase();
  // Find one existing edge to re-insert.
  std::int32_t u = 0;
  while (base->graph().degree(u) == 0) ++u;
  const std::int32_t v = *base->graph().neighbors_begin(u);
  GraphDelta delta;
  delta.AddEdge(8, 8);    // self-loop: dropped
  delta.AddEdge(u, v);    // already present: dropped
  delta.AddEdge(v, u);    // same, reversed: dropped
  delta.AddEdge(2, 97);   // kept
  delta.AddEdge(97, 2);   // duplicate of the kept one: dropped
  SnapshotBuilder builder(base);
  auto next = builder.Apply(delta);
  EXPECT_EQ(builder.last_stats().new_edges, 1);
  EXPECT_EQ(next->graph().num_edges(), base->graph().num_edges() + 1);
  ExpectSnapshotEq(*next, *MergeFromScratch(*base, {delta}));
}

TEST(GraphDeltaTest, ValidationThrowsAndLeavesBaseUntouched) {
  auto base = MakeBase();
  const std::size_t f = base->features().cols();
  const std::int32_t n = static_cast<std::int32_t>(base->graph().num_nodes());
  SnapshotBuilder builder(base);

  GraphDelta bad_edge;
  bad_edge.AddEdge(0, n);  // out of range with no node insert
  EXPECT_THROW(builder.Apply(bad_edge), std::invalid_argument);

  GraphDelta bad_width;
  bad_width.AddNode(Row(f + 1, 1.0f), n);
  EXPECT_THROW(builder.Apply(bad_width), std::invalid_argument);

  GraphDelta bad_update;
  bad_update.UpdateFeatures(n + 3, Row(f, 1.0f));
  EXPECT_THROW(builder.Apply(bad_update), std::invalid_argument);

  GraphDelta bad_update_width;
  bad_update_width.UpdateFeatures(0, Row(f - 1, 1.0f));
  EXPECT_THROW(builder.Apply(bad_update_width), std::invalid_argument);

  // The builder's base is unchanged: a valid empty apply still starts from
  // the original snapshot.
  EXPECT_EQ(builder.base().get(), base.get());
  auto next = builder.Apply(GraphDelta{});
  EXPECT_EQ(next->version, base->version + 1);
  ExpectCsrEq(next->norm_csr(), base->norm_csr());
}

TEST(GraphDeltaTest, NonFiniteFeaturesThrowBeforeAnythingChanges) {
  // One NaN feature would make the pooled stationary vector NaN, and with
  // it every NAPd distance check false: serving would silently fall back to
  // fixed-depth propagation. Apply refuses such rows up front.
  auto base = MakeBase();  // 120 nodes, dim 8
  const std::size_t f = base->features().cols();
  const std::int32_t n = static_cast<std::int32_t>(base->graph().num_nodes());
  SnapshotBuilder builder(base);

  std::vector<float> nan_row = Row(f, 1.0f);
  nan_row[3] = std::numeric_limits<float>::quiet_NaN();
  GraphDelta nan_update;
  nan_update.AddEdge(0, 5);
  nan_update.UpdateFeatures(7, nan_row);
  EXPECT_THROW(builder.Apply(nan_update), ValidationError);

  for (const float bad : {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    std::vector<float> row = Row(f, 0.5f);
    row[f - 1] = bad;
    GraphDelta insert;
    insert.AddNode(row, n);
    EXPECT_THROW(builder.Apply(insert), ValidationError) << bad;
    GraphDelta update;
    update.UpdateFeatures(0, row);
    EXPECT_THROW(builder.Apply(update), ValidationError) << bad;
  }

  EXPECT_EQ(builder.base().get(), base.get());
  auto next = builder.Apply(GraphDelta{});
  EXPECT_EQ(next->version, base->version + 1);
  ExpectMatrixEq(next->features(), base->features());
}

TEST(GraphDeltaTest, RecomputesExactlyDirtyRowsOnPathGraph) {
  // Path 0-1-...-19, insert edge {2, 10}: degrees of 2 and 10 change, so
  // the dirty set is {2, 10} plus their merged-graph neighbors
  // {1, 3, 9, 11} — 6 recomputed rows, the rest copied verbatim.
  Graph path = PathGraph(20);
  tensor::Matrix feats(20, 4);
  for (std::size_t i = 0; i < 20 * 4; ++i) {
    feats.data()[i] = static_cast<float>(i) * 0.01f;
  }
  auto base = MakeSnapshot(std::move(path), std::move(feats), 0.5f);
  GraphDelta delta;
  delta.AddEdge(2, 10);
  SnapshotBuilder builder(base);
  auto next = builder.Apply(delta);
  const SnapshotBuildStats& stats = builder.last_stats();
  EXPECT_EQ(stats.norm_rows_recomputed, 6);
  EXPECT_EQ(stats.norm_rows_copied, 14);
  EXPECT_EQ(stats.norm_rows_recomputed + stats.norm_rows_copied,
            next->graph().num_nodes());
  ExpectSnapshotEq(*next, *MergeFromScratch(*base, {delta}));
}

TEST(GraphDeltaTest, StaleNodesCoverTheHorizonNeighborhood) {
  // Path graph, edge inserted at {4, 5}... already exists; use {0, 9} on a
  // 10-path. Touched set {0, 9}; with horizon 2 the stale set is
  // {0, 1, 2} from 0 and {9, 8, 7} from 9 = 6 nodes.
  auto base = MakeSnapshot(PathGraph(10), tensor::Matrix(10, 2), 0.5f);
  GraphDelta delta;
  delta.AddEdge(0, 9);
  SnapshotBuilder builder(base, /*stale_horizon=*/2);
  builder.Apply(delta);
  // BFS runs on the *merged* graph, where 0 and 9 are adjacent: from {0, 9}
  // two hops reach {0,1,2,9,8,7} (the new edge adds no extra nodes).
  EXPECT_EQ(builder.last_stats().stale_nodes, 6);
}

TEST(GraphDeltaTest, NullBaseThrows) {
  EXPECT_THROW(SnapshotBuilder(nullptr), std::invalid_argument);
}

TEST(GraphDeltaTest, MakeSnapshotBuildsVersionZeroArtifacts) {
  auto base = MakeBase();
  EXPECT_EQ(base->version, 0u);
  EXPECT_EQ(base->norm_csr().rows, base->graph().num_nodes());
  EXPECT_EQ(base->stationary_pooled().rows(), 1u);
  EXPECT_EQ(base->stationary_pooled().cols(), base->features().cols());
}

}  // namespace
}  // namespace nai::graph
