// Property tests for the serving-graph partitioner: owned sets partition V,
// the default partition is balanced and contiguous, and every shard's id
// map is the identity (shard engines serve the whole snapshot).

#include "src/graph/shard.h"

#include <algorithm>
#include <numeric>
#include <set>
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

TEST_F(ShardTest, OwnedSetsPartitionAllNodes) {
  const ShardedGraph sharded = MakeShards(ds_.graph, 4);
  ASSERT_EQ(sharded.num_shards(), 4u);
  std::set<std::int32_t> seen;
  std::size_t total = 0;
  for (const GraphShard& shard : sharded.shards) {
    total += shard.owned.size();
    seen.insert(shard.owned.begin(), shard.owned.end());
  }
  EXPECT_EQ(total, 300u);
  EXPECT_EQ(seen.size(), 300u);  // no node owned twice
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    for (const std::int32_t v : sharded.shards[s].owned) {
      EXPECT_EQ(sharded.owner[v], static_cast<std::int32_t>(s));
    }
  }
}

TEST_F(ShardTest, DefaultPartitionIsBalancedContiguous) {
  const ShardedGraph sharded = MakeShards(ds_.graph, 7);  // 300 = 7*42 + 6
  std::size_t min_size = 301, max_size = 0;
  std::int32_t expected_start = 0;
  for (const GraphShard& shard : sharded.shards) {
    min_size = std::min(min_size, shard.owned.size());
    max_size = std::max(max_size, shard.owned.size());
    // Contiguous range starting where the previous shard ended.
    EXPECT_EQ(shard.owned.front(), expected_start);
    EXPECT_EQ(shard.owned.back(),
              expected_start + static_cast<std::int32_t>(shard.owned.size()) - 1);
    expected_start += static_cast<std::int32_t>(shard.owned.size());
  }
  EXPECT_EQ(expected_start, 300);
  EXPECT_LE(max_size - min_size, 1u);
}

TEST_F(ShardTest, GlobalToLocalIsIdentityAndOwnedSorted) {
  const ShardedGraph sharded = MakeShards(ds_.graph, 4);
  std::vector<std::int32_t> identity(300);
  std::iota(identity.begin(), identity.end(), 0);
  for (const GraphShard& shard : sharded.shards) {
    EXPECT_TRUE(std::is_sorted(shard.owned.begin(), shard.owned.end()));
    EXPECT_EQ(shard.global_to_local, identity);
  }
}

TEST_F(ShardTest, CustomOwnerVectorRoundRobin) {
  std::vector<std::int32_t> owner(300);
  for (int v = 0; v < 300; ++v) owner[v] = v % 3;
  const ShardedGraph sharded = MakeShards(ds_.graph, owner);
  ASSERT_EQ(sharded.num_shards(), 3u);
  EXPECT_EQ(sharded.owner, owner);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(sharded.shards[s].owned.size(), 100u);
    for (const std::int32_t v : sharded.shards[s].owned) {
      EXPECT_EQ(v % 3, static_cast<std::int32_t>(s));
    }
  }
}

TEST_F(ShardTest, SingleShardEqualsIdentityShards) {
  const ShardedGraph sharded = MakeShards(ds_.graph, 1);
  const ShardedGraph identity = IdentityShards(300);
  ASSERT_EQ(sharded.num_shards(), 1u);
  ASSERT_EQ(identity.num_shards(), 1u);
  EXPECT_EQ(sharded.shards[0].owned.size(), 300u);
  EXPECT_EQ(sharded.owner, identity.owner);
  EXPECT_EQ(sharded.shards[0].owned, identity.shards[0].owned);
  EXPECT_EQ(sharded.shards[0].global_to_local,
            identity.shards[0].global_to_local);
}

TEST_F(ShardTest, DeterministicAcrossCalls) {
  const ShardedGraph a = MakeShards(ds_.graph, 4);
  const ShardedGraph b = MakeShards(ds_.graph, 4);
  ASSERT_EQ(a.num_shards(), b.num_shards());
  EXPECT_EQ(a.owner, b.owner);
  for (std::size_t s = 0; s < a.num_shards(); ++s) {
    EXPECT_EQ(a.shards[s].owned, b.shards[s].owned);
  }
}

TEST_F(ShardTest, InvalidArgumentsThrow) {
  EXPECT_THROW(MakeShards(ds_.graph, 0), std::invalid_argument);
  EXPECT_THROW(MakeShards(ds_.graph, -2), std::invalid_argument);
  EXPECT_THROW(MakeShards(ds_.graph, 301), std::invalid_argument);
  EXPECT_THROW(MakeShards(Graph(), 1), std::invalid_argument);
  EXPECT_THROW(IdentityShards(0), std::invalid_argument);
  std::vector<std::int32_t> short_owner(299, 0);
  EXPECT_THROW(MakeShards(ds_.graph, short_owner), std::invalid_argument);
  std::vector<std::int32_t> negative_owner(300, 0);
  negative_owner[7] = -1;
  EXPECT_THROW(MakeShards(ds_.graph, negative_owner), std::invalid_argument);
}

TEST_F(ShardTest, EmptyShardFromCustomOwnerIsAllowed) {
  // Shard 1 owns nothing (ids 0 and 2 only): it must come out empty but
  // well-formed, not crash.
  std::vector<std::int32_t> owner(300);
  for (int v = 0; v < 300; ++v) owner[v] = (v % 2) * 2;
  const ShardedGraph sharded = MakeShards(ds_.graph, owner);
  ASSERT_EQ(sharded.num_shards(), 3u);
  EXPECT_EQ(sharded.shards[1].owned.size(), 0u);
  EXPECT_EQ(sharded.shards[1].num_owned(), 0);
}

}  // namespace
}  // namespace nai::graph
