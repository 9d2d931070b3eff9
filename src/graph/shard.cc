#include "src/graph/shard.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "src/runtime/error.h"

namespace nai::graph {

namespace {

ShardedGraph BuildSharded(std::vector<std::int32_t> owner,
                          std::int32_t num_shards) {
  ShardedGraph sharded;
  sharded.owner = std::move(owner);
  const std::int64_t n = static_cast<std::int64_t>(sharded.owner.size());
  sharded.shards.resize(num_shards);
  for (std::int64_t v = 0; v < n; ++v) {
    sharded.shards[sharded.owner[v]].owned.push_back(
        static_cast<std::int32_t>(v));
  }
  for (GraphShard& shard : sharded.shards) {
    shard.global_to_local.resize(n);
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

  // Balanced contiguous ranges: the first (n % num_shards) shards own one
  // node more. Contiguity keeps owner lookup trivial and the routed order
  // of an ascending query list identical to its original order.
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

ShardedGraph MakeShards(CsrView adj, std::vector<std::int32_t> owner) {
  const std::int64_t n = adj.rows;
  if (n == 0) {
    throw ValidationError("MakeShards: graph has no nodes");
  }
  if (static_cast<std::int64_t>(owner.size()) != n) {
    throw ValidationError("MakeShards: owner vector size " +
                          std::to_string(owner.size()) +
                          " does not match node count " + std::to_string(n));
  }
  std::int32_t max_owner = 0;
  for (const std::int32_t s : owner) {
    if (s < 0) {
      throw ValidationError("MakeShards: negative shard id in owner");
    }
    max_owner = std::max(max_owner, s);
  }
  return BuildSharded(std::move(owner), max_owner + 1);
}

ShardedGraph IdentityShards(std::int64_t num_nodes, int /*unused*/) {
  if (num_nodes < 1) {
    throw ValidationError("IdentityShards: num_nodes must be >= 1, got " +
                          std::to_string(num_nodes));
  }
  return BuildSharded(std::vector<std::int32_t>(num_nodes, 0), 1);
}

}  // namespace nai::graph
