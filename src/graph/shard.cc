#include "src/graph/shard.h"

#include <numeric>
#include <string>
#include <utility>

#include "src/runtime/error.h"

namespace nai::graph {

namespace {

ShardedGraph BuildSharded(std::vector<std::int32_t> owner,
                          std::int32_t num_shards) {
  ShardedGraph sharded;
  sharded.owner = std::move(owner);
  sharded.shards.resize(num_shards);
  for (GraphShard& shard : sharded.shards) {
    shard.global_to_local.resize(sharded.owner.size());
    std::iota(shard.global_to_local.begin(), shard.global_to_local.end(), 0);
  }
  return sharded;
}

}  // namespace

ShardedGraph MakeShards(CsrView adj, int num_shards, int /*unused*/) {
  const std::int64_t n = adj.rows;
  if (n == 0) {
    throw ValidationError("MakeShards: graph has no nodes");
  }
  if (num_shards < 1 || static_cast<std::int64_t>(num_shards) > n) {
    throw ValidationError(
        "MakeShards: num_shards must be in [1, num_nodes], got " +
        std::to_string(num_shards) + " for " + std::to_string(n) + " nodes");
  }

  // Balanced contiguous ranges: the first (n % num_shards) shards hold one
  // node more.
  std::vector<std::int32_t> owner(n);
  const std::int64_t base = n / num_shards;
  const std::int64_t extra = n % num_shards;
  std::int64_t v = 0;
  for (std::int32_t s = 0; s < num_shards; ++s) {
    const std::int64_t size = base + (s < extra ? 1 : 0);
    for (std::int64_t i = 0; i < size; ++i) {
      owner[v++] = s;
    }
  }
  return BuildSharded(std::move(owner), num_shards);
}

ShardedGraph IdentityShards(std::int64_t num_nodes, int /*unused*/) {
  if (num_nodes < 1) {
    throw ValidationError("IdentityShards: num_nodes must be >= 1, got " +
                          std::to_string(num_nodes));
  }
  return BuildSharded(std::vector<std::int32_t>(num_nodes, 0), 1);
}

}  // namespace nai::graph
