#include "src/graph/sampler.h"

#include <numeric>
#include <set>

#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/normalize.h"
#include "src/tensor/ops.h"
#include "src/runtime/error.h"
#include "tests/test_util.h"

namespace nai::graph {
namespace {

TEST(SamplerTest, StarHubReachesEverythingInOneHop) {
  const Graph g = StarGraph(9);  // hub 0, leaves 1..9
  const Csr adj = NormalizedAdjacency(g, 0.5f);
  SupportSampler sampler(adj);
  const BatchSupport s = sampler.Sample({0}, 1);
  ASSERT_EQ(s.layer_counts.size(), 2u);
  EXPECT_EQ(s.layer_counts[0], 1);
  EXPECT_EQ(s.layer_counts[1], 10);  // the whole graph
}

TEST(SamplerTest, DepthZeroIsJustTheBatch) {
  const Graph g = PathGraph(5);
  const Csr adj = NormalizedAdjacency(g, 0.5f);
  SupportSampler sampler(adj);
  const BatchSupport s = sampler.Sample({2, 4}, 0);
  EXPECT_EQ(s.num_supporting(), 2);
  EXPECT_EQ(s.batch_size(), 2);
  EXPECT_EQ(s.nodes[0], 2);
  EXPECT_EQ(s.nodes[1], 4);
}

TEST(SamplerTest, LayersGrowByHop) {
  // Path 0-1-2-3-4-5-6, batch {3}: layers 1, 3, 5, 7.
  const Graph g = PathGraph(7);
  const Csr adj = NormalizedAdjacency(g, 0.5f);
  SupportSampler sampler(adj);
  const BatchSupport s = sampler.Sample({3}, 3);
  ASSERT_EQ(s.layer_counts.size(), 4u);
  EXPECT_EQ(s.layer_counts[0], 1);
  EXPECT_EQ(s.layer_counts[1], 3);
  EXPECT_EQ(s.layer_counts[2], 5);
  EXPECT_EQ(s.layer_counts[3], 7);
}

TEST(SamplerTest, PrefixProperty) {
  // Neighbors (incl. self) of every node within t hops lie within t+1 hops,
  // i.e. in the next prefix — the invariant the propagation engine uses.
  GeneratorConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_edges = 1200;
  cfg.seed = 11;
  const SyntheticDataset ds = GenerateDataset(cfg);
  const Csr adj = NormalizedAdjacency(ds.graph, 0.5f);
  SupportSampler sampler(adj);
  const BatchSupport s = sampler.Sample({0, 5, 9}, 3);
  ASSERT_TRUE(s.sub_adj.Validate());
  for (std::size_t t = 0; t + 1 < s.layer_counts.size(); ++t) {
    for (std::int64_t v = 0; v < s.layer_counts[t]; ++v) {
      for (std::int64_t p = s.sub_adj.row_ptr[v];
           p < s.sub_adj.row_ptr[v + 1]; ++p) {
        EXPECT_LT(s.sub_adj.col_idx[p], s.layer_counts[t + 1]);
      }
    }
  }
}

TEST(SamplerTest, SubmatrixRowsCompleteForInnerLayers) {
  // For nodes within depth-1 hops, the induced row must contain every
  // neighbor the full normalized adjacency has (nothing clipped).
  GeneratorConfig cfg;
  cfg.num_nodes = 200;
  cfg.num_edges = 700;
  cfg.seed = 13;
  const SyntheticDataset ds = GenerateDataset(cfg);
  const Csr adj = NormalizedAdjacency(ds.graph, 0.5f);
  SupportSampler sampler(adj);
  const int depth = 3;
  const BatchSupport s = sampler.Sample({1, 2, 3}, depth);
  for (std::int64_t v = 0; v < s.layer_counts[depth - 1]; ++v) {
    const std::int32_t global = s.nodes[v];
    EXPECT_EQ(s.sub_adj.RowNnz(v), adj.RowNnz(global))
        << "row clipped for inner node " << global;
  }
}

TEST(SamplerTest, PropagationOnSubgraphMatchesGlobal) {
  // One hop of SpMM on the induced subgraph equals the global SpMM for all
  // nodes within depth-1 hops.
  GeneratorConfig cfg;
  cfg.num_nodes = 250;
  cfg.num_edges = 900;
  cfg.feature_dim = 8;
  cfg.seed = 17;
  const SyntheticDataset ds = GenerateDataset(cfg);
  const Csr adj = NormalizedAdjacency(ds.graph, 0.5f);
  SupportSampler sampler(adj);
  const int depth = 2;
  const BatchSupport s = sampler.Sample({7, 8}, depth);

  const tensor::Matrix global_x1 = SpMM(adj, ds.features);
  const tensor::Matrix local_x0 = ds.features.GatherRows(s.nodes);
  const tensor::Matrix local_x1 = SpMM(s.sub_adj, local_x0);
  for (std::int64_t v = 0; v < s.layer_counts[depth - 1]; ++v) {
    for (std::size_t j = 0; j < ds.features.cols(); ++j) {
      EXPECT_NEAR(local_x1.at(v, j), global_x1.at(s.nodes[v], j), 1e-4f);
    }
  }
}

TEST(SamplerTest, ScratchResetsAcrossBatches) {
  const Graph g = CycleGraph(10);
  const Csr adj = NormalizedAdjacency(g, 0.5f);
  SupportSampler sampler(adj);
  const BatchSupport a = sampler.Sample({0, 1}, 2);
  const BatchSupport b = sampler.Sample({5}, 2);
  // Second batch must be independent of the first.
  EXPECT_EQ(b.nodes[0], 5);
  std::set<std::int32_t> bset(b.nodes.begin(), b.nodes.end());
  EXPECT_EQ(bset.size(), b.nodes.size());
  EXPECT_TRUE(bset.count(5));
  EXPECT_TRUE(bset.count(4));
  EXPECT_TRUE(bset.count(6));
  EXPECT_TRUE(bset.count(3));
  EXPECT_TRUE(bset.count(7));
  EXPECT_EQ(b.num_supporting(), 5);
  (void)a;
}

TEST(SamplerTest, WholeGraphSaturation) {
  // Once the BFS covers the whole graph, deeper layers stop growing.
  const Graph g = CompleteGraph(12);
  const Csr adj = NormalizedAdjacency(g, 0.5f);
  SupportSampler sampler(adj);
  const BatchSupport s = sampler.Sample({0}, 3);
  EXPECT_EQ(s.layer_counts[1], 12);
  EXPECT_EQ(s.layer_counts[2], 12);
  EXPECT_EQ(s.layer_counts[3], 12);
}

}  // namespace
}  // namespace nai::graph

namespace nai::graph {
namespace {

TEST(SamplerTest, SampleMappedMatchesSample) {
  GeneratorConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_edges = 1100;
  cfg.seed = 19;
  const SyntheticDataset ds = GenerateDataset(cfg);
  const Csr adj = NormalizedAdjacency(ds.graph, 0.5f);
  SupportSampler a(adj), b(adj);
  const BatchSupport full = a.Sample({4, 9, 40}, 3);
  const BatchSupport mapped = b.SampleMapped({4, 9, 40}, 3);
  EXPECT_EQ(full.nodes, mapped.nodes);
  EXPECT_EQ(full.layer_counts, mapped.layer_counts);
  EXPECT_EQ(mapped.sub_adj.nnz(), 0);
  // Mapping is consistent with the node list.
  const auto& g2l = b.global_to_local();
  for (std::size_t i = 0; i < mapped.nodes.size(); ++i) {
    EXPECT_EQ(g2l[mapped.nodes[i]], static_cast<std::int32_t>(i));
  }
}

TEST(SamplerTest, MappedPropagationMatchesSubmatrix) {
  GeneratorConfig cfg;
  cfg.num_nodes = 250;
  cfg.num_edges = 1000;
  cfg.feature_dim = 6;
  cfg.seed = 23;
  const SyntheticDataset ds = GenerateDataset(cfg);
  const Csr adj = NormalizedAdjacency(ds.graph, 0.5f);
  SupportSampler a(adj), b(adj);
  const int depth = 2;
  const BatchSupport full = a.Sample({3, 14}, depth);
  const BatchSupport mapped = b.SampleMapped({3, 14}, depth);

  const tensor::Matrix x0 = ds.features.GatherRows(mapped.nodes);
  const std::int64_t limit = mapped.layer_counts[depth - 1];
  tensor::Matrix via_sub(mapped.nodes.size(), 6);
  SpMMPrefix(full.sub_adj, x0, limit, via_sub);
  tensor::Matrix via_map(mapped.nodes.size(), 6);
  SpMMMappedPrefix(adj, mapped.nodes, b.global_to_local(), x0, limit,
                   via_map);
  for (std::int64_t r = 0; r < limit; ++r) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(via_sub.at(r, j), via_map.at(r, j), 1e-5f);
    }
  }
}

TEST(SamplerTest, MappedResetAcrossBatches) {
  const Graph g = CycleGraph(20);
  const Csr adj = NormalizedAdjacency(g, 0.5f);
  SupportSampler sampler(adj);
  sampler.SampleMapped({0, 1}, 2);
  const BatchSupport second = sampler.SampleMapped({10}, 1);
  const auto& g2l = sampler.global_to_local();
  // Previous batch's entries must be cleared.
  EXPECT_EQ(g2l[0], -1);
  EXPECT_EQ(g2l[1], -1);
  EXPECT_EQ(g2l[10], 0);
  EXPECT_EQ(second.nodes[0], 10);
}

TEST(SamplerTest, RingGrowthMatchesSampleMapped) {
  // Seeding the whole batch and growing one ring per hop must reach the
  // same nodes, local ids and layer counts as the all-at-once BFS —
  // duplicate batch ids included.
  GeneratorConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_edges = 1100;
  cfg.seed = 31;
  const SyntheticDataset ds = GenerateDataset(cfg);
  const Csr adj = NormalizedAdjacency(ds.graph, 0.5f);
  SupportSampler rings(adj), whole(adj);
  for (const std::vector<std::int32_t>& batch :
       {std::vector<std::int32_t>{4}, std::vector<std::int32_t>{4, 9, 40},
        std::vector<std::int32_t>{7, 7, 120, 7, 3}}) {
    for (int depth = 0; depth <= 3; ++depth) {
      rings.BeginSupport(batch);
      for (int r = 0; r < depth; ++r) rings.GrowRing();
      const BatchSupport ref = whole.SampleMapped(batch, depth);
      EXPECT_EQ(rings.radius(), depth);
      EXPECT_EQ(rings.support_nodes(), ref.nodes) << "depth " << depth;
      EXPECT_EQ(rings.ring_counts(), ref.layer_counts) << "depth " << depth;
      std::vector<std::int32_t> identity(ref.nodes.size());
      std::iota(identity.begin(), identity.end(), 0);
      EXPECT_EQ(rings.ring(), identity) << "depth " << depth;
      for (std::size_t i = 0; i < ref.nodes.size(); ++i) {
        EXPECT_EQ(rings.global_to_local()[ref.nodes[i]],
                  whole.global_to_local()[ref.nodes[i]]);
      }
    }
  }
}

TEST(SamplerTest, ReseededRingCoversSeedNeighborhoodOnly) {
  // After re-seeding at a subset of the batch, ring r holds exactly the
  // nodes within r hops of that subset (the support keeps every node
  // mapped so far, and grows past it where the ring needs to).
  const Graph g = PathGraph(12);
  const Csr adj = NormalizedAdjacency(g, 0.5f);
  SupportSampler sampler(adj), ref(adj);
  sampler.BeginSupport({0, 11});
  sampler.GrowRing();
  sampler.SeedRings({1});  // local 1 = global 11
  EXPECT_EQ(sampler.ring_counts(), std::vector<std::int64_t>{1});
  for (int r = 1; r <= 3; ++r) {
    sampler.GrowRing();
    std::set<std::int32_t> got;
    for (const std::int32_t local : sampler.ring()) {
      got.insert(sampler.support_nodes()[local]);
    }
    const BatchSupport want = ref.Sample({11}, r);
    EXPECT_EQ(got, std::set<std::int32_t>(want.nodes.begin(),
                                          want.nodes.end()))
        << "radius " << r;
    EXPECT_EQ(sampler.ring_counts(), want.layer_counts);
  }
  // Nodes near global 0 mapped before the re-seed stay mapped.
  EXPECT_EQ(sampler.global_to_local()[0], 0);
  EXPECT_GE(sampler.global_to_local()[1], 0);
}

TEST(SamplerTest, BeginSupportRejectsBadIdsAndStaysUsable) {
  const Graph g = CycleGraph(10);
  const Csr adj = NormalizedAdjacency(g, 0.5f);
  SupportSampler sampler(adj);
  sampler.BeginSupport({3});
  sampler.GrowRing();
  EXPECT_THROW(sampler.BeginSupport({1, 10}), nai::ValidationError);
  EXPECT_TRUE(sampler.support_nodes().empty());
  for (const std::int32_t g2l : sampler.global_to_local()) {
    EXPECT_EQ(g2l, -1);
  }
  sampler.BeginSupport({5});
  sampler.GrowRing();
  EXPECT_EQ(sampler.support_nodes(), (std::vector<std::int32_t>{5, 4, 6}));
}

}  // namespace
}  // namespace nai::graph
