// Property tests for the serving-graph partitioner: the default partition
// is balanced and contiguous, and every shard's id map is the identity
// (every engine serves the whole snapshot).

#include "src/graph/shard.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "gtest/gtest.h"
#include "src/graph/generators.h"

namespace nai::graph {
namespace {

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig cfg;
    cfg.num_nodes = 300;
    cfg.num_edges = 1200;
    cfg.seed = 11;
    ds_ = GenerateDataset(cfg);
  }

  SyntheticDataset ds_;
};

TEST_F(ShardTest, DefaultPartitionIsBalancedContiguous) {
  const ShardedGraph sharded = MakeShards(ds_.graph, 7);  // 300 = 7*42 + 6
  ASSERT_EQ(sharded.num_shards(), 7u);
  ASSERT_EQ(sharded.owner.size(), 300u);
  // owner is non-decreasing from shard 0 and never skips a shard id, so
  // each shard holds one contiguous range.
  EXPECT_EQ(sharded.owner.front(), 0);
  EXPECT_EQ(sharded.owner.back(), 6);
  std::vector<std::size_t> sizes(7, 0);
  for (std::size_t v = 0; v < sharded.owner.size(); ++v) {
    if (v > 0) {
      const std::int32_t step = sharded.owner[v] - sharded.owner[v - 1];
      EXPECT_TRUE(step == 0 || step == 1) << "node " << v;
    }
    ++sizes[sharded.owner[v]];
  }
  const auto [min_size, max_size] =
      std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_LE(*max_size - *min_size, 1u);
}

TEST_F(ShardTest, GlobalToLocalIsIdentity) {
  const ShardedGraph sharded = MakeShards(ds_.graph, 4);
  std::vector<std::int32_t> identity(300);
  std::iota(identity.begin(), identity.end(), 0);
  for (const GraphShard& shard : sharded.shards) {
    EXPECT_EQ(shard.global_to_local, identity);
  }
}

TEST_F(ShardTest, SingleShardEqualsIdentityShards) {
  const ShardedGraph sharded = MakeShards(ds_.graph, 1);
  const ShardedGraph identity = IdentityShards(300);
  ASSERT_EQ(sharded.num_shards(), 1u);
  ASSERT_EQ(identity.num_shards(), 1u);
  EXPECT_EQ(sharded.owner, std::vector<std::int32_t>(300, 0));
  EXPECT_EQ(sharded.owner, identity.owner);
  EXPECT_EQ(sharded.shards[0].global_to_local,
            identity.shards[0].global_to_local);
}

TEST_F(ShardTest, DeterministicAcrossCalls) {
  const ShardedGraph a = MakeShards(ds_.graph, 4);
  const ShardedGraph b = MakeShards(ds_.graph, 4);
  ASSERT_EQ(a.num_shards(), b.num_shards());
  EXPECT_EQ(a.owner, b.owner);
}

TEST_F(ShardTest, InvalidArgumentsThrow) {
  EXPECT_THROW(MakeShards(ds_.graph, 0), std::invalid_argument);
  EXPECT_THROW(MakeShards(ds_.graph, -2), std::invalid_argument);
  EXPECT_THROW(MakeShards(ds_.graph, 301), std::invalid_argument);
  EXPECT_THROW(MakeShards(Graph(), 1), std::invalid_argument);
  EXPECT_THROW(IdentityShards(0), std::invalid_argument);
}

}  // namespace
}  // namespace nai::graph
