#ifndef NAI_GRAPH_SHARD_H_
#define NAI_GRAPH_SHARD_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

namespace nai::graph {

/// One serving shard of a partitioned graph. A shard holds no graph data:
/// every engine of core::ShardedNaiEngine serves the whole snapshot, and
/// the shard count only sets how many engines there are.
struct GraphShard {
  /// The identity map over the full graph (global id -> itself). Kept
  /// because perfbench/nai_perfbench.cc reads it.
  std::vector<std::int32_t> global_to_local;
};

/// A partition of a graph's nodes into contiguous shard ranges.
struct ShardedGraph {
  /// owner[v] = shard whose range holds global node v (size = num_nodes of
  /// the source). Kept because perfbench/nai_perfbench.cc reads it.
  std::vector<std::int32_t> owner;
  std::vector<GraphShard> shards;

  std::size_t num_shards() const { return shards.size(); }
};

/// Partitions the nodes of the graph behind `adj` (any storage backend;
/// only its node count is read) into `num_shards` balanced contiguous
/// ranges of node ids (sizes differ by at most one). The trailing int is
/// ignored; it is kept so the calls in perfbench/nai_perfbench.cc compile.
///
/// Throws nai::ValidationError when num_shards < 1, num_shards exceeds the
/// node count, or the graph is empty.
ShardedGraph MakeShards(CsrView adj, int num_shards, int /*unused*/ = 0);
inline ShardedGraph MakeShards(const Graph& graph, int num_shards) {
  return MakeShards(graph.adjacency().view(), num_shards);
}

/// The single-shard partition of a `num_nodes`-node graph. Needs no
/// adjacency, which suits a memory-mapped store. The trailing int is
/// ignored; it is kept so the call in perfbench/nai_perfbench.cc compiles.
/// Throws nai::ValidationError when num_nodes < 1.
ShardedGraph IdentityShards(std::int64_t num_nodes, int /*unused*/ = 0);

}  // namespace nai::graph

#endif  // NAI_GRAPH_SHARD_H_
