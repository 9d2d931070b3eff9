#ifndef NAI_GRAPH_SAMPLER_H_
#define NAI_GRAPH_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "src/graph/csr.h"

namespace nai::graph {

/// Supporting-node set of one inference batch (Algorithm 1, line 3).
///
/// Local node ids are ordered by BFS discovery layer, so "all nodes within
/// t hops of the batch" is exactly the local-id prefix [0, layer_counts[t]).
/// The batch itself is the prefix [0, layer_counts[0]).
///
/// This prefix property is what makes fixed-depth propagation cheap: to
/// obtain X^(l) on the nodes still needed after hop l, only the prefix
/// [0, layer_counts[depth - l]) must be recomputed, and every in-neighbor it
/// references lies inside the next-larger prefix.
struct BatchSupport {
  /// local id -> global id, BFS-layer order (batch first).
  std::vector<std::int32_t> nodes;
  /// layer_counts[t] = number of local nodes within t hops, t = 0..depth.
  std::vector<std::int64_t> layer_counts;
  /// Induced normalized adjacency over `nodes`, local ids.
  Csr sub_adj;

  std::int64_t batch_size() const { return layer_counts.empty() ? 0 : layer_counts[0]; }
  std::int64_t num_supporting() const {
    return static_cast<std::int64_t>(nodes.size());
  }
};

/// Extracts k-hop supporting-node sets for inference batches against a fixed
/// (already normalized) adjacency. Reusable scratch buffers make repeated
/// batch sampling allocation-light. Reads the adjacency through a CsrView,
/// so the same BFS runs over in-memory and memory-mapped storage.
///
/// Two ways to sample a batch:
///   * Sample / SampleMapped: the whole `depth`-hop support at once.
///   * BeginSupport + SeedRings / GrowRing: the support grows on demand,
///     one BFS ring at a time around a seed set that may shrink — the
///     inference engine's schedule, which only maps the hops its exit
///     checks actually need.
class SupportSampler {
 public:
  /// The buffers behind `norm_adj` must outlive the sampler.
  explicit SupportSampler(CsrView norm_adj);
  explicit SupportSampler(const Csr& norm_adj)
      : SupportSampler(norm_adj.view()) {}

  /// BFS out to `depth` hops from `batch` (global ids; duplicates are legal
  /// — each occurrence gets its own support row, so batch element i is
  /// always support row i) and builds the induced submatrix. depth >= 0.
  /// Throws nai::ValidationError on out-of-range batch ids or negative
  /// depth (release-mode safe).
  BatchSupport Sample(const std::vector<std::int32_t>& batch, int depth);

  /// Like Sample but skips the induced-submatrix materialization (the
  /// returned support has an empty sub_adj). The sampler's global->local
  /// mapping stays populated for this batch until the next Sample /
  /// SampleMapped / BeginSupport call, so callers can run SpMMMapped*
  /// against the global matrix.
  BatchSupport SampleMapped(const std::vector<std::int32_t>& batch,
                            int depth);

  /// Starts an on-demand support holding just `batch` as local rows
  /// [0, B) — same validation and duplicate rule as Sample — seeded as a
  /// radius-0 ring. Later nodes join only as GrowRing discovers them, with
  /// local ids in discovery order. The mapping (global_to_local(),
  /// support_nodes()) stays live until the next Sample / SampleMapped /
  /// BeginSupport call. On a throw the sampler holds an empty support.
  void BeginSupport(const std::vector<std::int32_t>& batch);

  /// Restarts the ring at `seeds` (local ids of the current support;
  /// repeated ids are kept once): radius 0, ring() == the distinct seeds in
  /// order.
  void SeedRings(const std::vector<std::int32_t>& seeds);

  /// Widens the ring by one hop: appends every node adjacent to the
  /// outermost layer that is not yet in the ring, mapping nodes new to the
  /// support to fresh local ids. Seeding the whole batch and growing t
  /// times reaches exactly SampleMapped(batch, t)'s nodes, local ids and
  /// layer_counts.
  void GrowRing();

  /// Local ids of the current ring in BFS order from its seeds; the ones
  /// within r hops are the prefix [0, ring_counts()[r]).
  const std::vector<std::int32_t>& ring() const { return ring_; }
  /// ring_counts()[r] for r = 0..radius().
  const std::vector<std::int64_t>& ring_counts() const { return ring_counts_; }
  int radius() const { return static_cast<int>(ring_counts_.size()) - 1; }

  /// local id -> global id of the on-demand support.
  const std::vector<std::int32_t>& support_nodes() const {
    return mapped_nodes_;
  }

  /// Mapping of the most recent mapped batch (-1 = not in support).
  const std::vector<std::int32_t>& global_to_local() const {
    return global_to_local_;
  }

 private:
  /// Clears the previous mapping, then maps `batch` to local rows [0, B)
  /// of `nodes`. Throws (with the mapping rolled back) on bad ids.
  void MapBatch(const std::vector<std::int32_t>& batch,
                std::vector<std::int32_t>& nodes);
  BatchSupport Collect(const std::vector<std::int32_t>& batch, int depth);

  CsrView adj_;
  std::vector<std::int32_t> global_to_local_;  // -1 when not in current batch
  std::vector<std::int32_t> mapped_nodes_;     // local -> global; reset lazily
  // Ring state of the on-demand support. ring_mark_[local] == ring_epoch_
  // marks ring members; bumping the epoch empties the ring in O(1).
  std::vector<std::int32_t> ring_;
  std::vector<std::int64_t> ring_counts_;
  std::vector<std::uint32_t> ring_mark_;
  std::uint32_t ring_epoch_ = 0;
};

}  // namespace nai::graph

#endif  // NAI_GRAPH_SAMPLER_H_
