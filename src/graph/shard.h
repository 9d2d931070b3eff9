#ifndef NAI_GRAPH_SHARD_H_
#define NAI_GRAPH_SHARD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace nai::graph {

/// One serving shard of a partitioned graph: the set of nodes it owns.
///
/// A shard is an ownership set, not a subgraph. Queries route to the shard
/// owning their node, and every shard engine serves the whole graph
/// snapshot, reading each query's supporting set on demand — so a shard
/// needs no halo and no private copy of its neighborhood, and local ids
/// are global ids.
struct GraphShard {
  /// Global ids owned by this shard (sorted). Queries route here.
  std::vector<std::int32_t> owned;
  /// The identity map over the full graph (global id -> itself). Kept
  /// because perfbench/nai_perfbench.cc reads it.
  std::vector<std::int32_t> global_to_local;

  std::int64_t num_owned() const {
    return static_cast<std::int64_t>(owned.size());
  }
};

/// A disjoint partition of a graph's nodes into shards. Owned sets
/// partition V; `owner[v]` names v's shard.
struct ShardedGraph {
  /// owner[v] = shard owning global node v (size = num_nodes of the source).
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

/// Same, but with an explicit owner assignment (e.g. by connected component
/// or a min-cut partitioner): owner[v] in [0, num_shards) with
/// num_shards = max(owner) + 1. Empty shards are permitted. Throws
/// nai::ValidationError when owner's size mismatches the graph or an entry
/// is negative.
ShardedGraph MakeShards(CsrView adj, std::vector<std::int32_t> owner);
inline ShardedGraph MakeShards(const Graph& graph,
                               std::vector<std::int32_t> owner) {
  return MakeShards(graph.adjacency().view(), std::move(owner));
}

/// The single-shard partition of a `num_nodes`-node graph: one shard owning
/// every node. Needs no adjacency, which suits a memory-mapped store. The
/// trailing int is ignored; it is kept so the call in
/// perfbench/nai_perfbench.cc compiles. Throws nai::ValidationError when
/// num_nodes < 1.
ShardedGraph IdentityShards(std::int64_t num_nodes, int /*unused*/ = 0);

}  // namespace nai::graph

#endif  // NAI_GRAPH_SHARD_H_
