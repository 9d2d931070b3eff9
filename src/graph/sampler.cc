#include "src/graph/sampler.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/runtime/error.h"

namespace nai::graph {

SupportSampler::SupportSampler(CsrView norm_adj)
    : adj_(norm_adj), global_to_local_(norm_adj.rows, -1) {}

void SupportSampler::MapBatch(const std::vector<std::int32_t>& batch,
                              std::vector<std::int32_t>& nodes) {
  // Lazily reset the mapping of the previous mapped batch.
  for (const std::int32_t v : mapped_nodes_) global_to_local_[v] = -1;
  mapped_nodes_.clear();
  nodes.clear();
  nodes.reserve(batch.size() * 4);
  for (const std::int32_t v : batch) {
    if (v < 0 || v >= adj_.rows) {
      // Roll back the partial mapping before throwing so the sampler stays
      // usable after a rejected batch.
      for (const std::int32_t u : nodes) global_to_local_[u] = -1;
      nodes.clear();
      throw ValidationError("SupportSampler: batch node " + std::to_string(v) +
                            " out of range [0, " + std::to_string(adj_.rows) +
                            ")");
    }
    // Duplicates are legal (a Zipf-skewed serving batch can carry the same
    // node twice): each occurrence gets its own support row, so batch
    // element i always lands on row i, and the mapping points at the last
    // occurrence. Duplicate rows propagate identical values (same global
    // row, same neighbor accumulation order), so results stay bit-exact no
    // matter which occurrence neighbors resolve to.
    global_to_local_[v] = static_cast<std::int32_t>(nodes.size());
    nodes.push_back(v);
  }
}

BatchSupport SupportSampler::Collect(const std::vector<std::int32_t>& batch,
                                     int depth) {
  if (depth < 0) {
    throw ValidationError("SupportSampler: depth must be >= 0, got " +
                          std::to_string(depth));
  }
  BatchSupport out;
  MapBatch(batch, out.nodes);
  out.layer_counts.reserve(depth + 1);
  out.layer_counts.push_back(static_cast<std::int64_t>(out.nodes.size()));

  std::size_t frontier_begin = 0;
  for (int hop = 1; hop <= depth; ++hop) {
    const std::size_t frontier_end = out.nodes.size();
    for (std::size_t i = frontier_begin; i < frontier_end; ++i) {
      const std::int32_t v = out.nodes[i];
      for (std::int64_t p = adj_.row_ptr[v]; p < adj_.row_ptr[v + 1]; ++p) {
        const std::int32_t u = adj_.col_idx[p];
        if (global_to_local_[u] == -1) {
          global_to_local_[u] = static_cast<std::int32_t>(out.nodes.size());
          out.nodes.push_back(u);
        }
      }
    }
    frontier_begin = frontier_end;
    out.layer_counts.push_back(static_cast<std::int64_t>(out.nodes.size()));
  }
  return out;
}

BatchSupport SupportSampler::Sample(const std::vector<std::int32_t>& batch,
                                    int depth) {
  BatchSupport out = Collect(batch, depth);
  out.sub_adj = InducedSubmatrix(adj_, out.nodes, global_to_local_);
  // Eagerly reset: the mapping is not exposed on this path.
  for (const std::int32_t v : out.nodes) global_to_local_[v] = -1;
  return out;
}

BatchSupport SupportSampler::SampleMapped(
    const std::vector<std::int32_t>& batch, int depth) {
  BatchSupport out = Collect(batch, depth);
  // Keep the mapping live for SpMMMapped*; remember what to reset later.
  mapped_nodes_ = out.nodes;
  return out;
}

void SupportSampler::BeginSupport(const std::vector<std::int32_t>& batch) {
  ring_.clear();
  ring_counts_.clear();
  MapBatch(batch, mapped_nodes_);
  std::vector<std::int32_t> all(mapped_nodes_.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<std::int32_t>(i);
  }
  SeedRings(all);
}

void SupportSampler::SeedRings(const std::vector<std::int32_t>& seeds) {
  if (ring_mark_.size() < mapped_nodes_.size()) {
    ring_mark_.resize(mapped_nodes_.size(), 0);
  }
  // Marks from older rings hold smaller epochs; on wrap-around clear them.
  if (++ring_epoch_ == 0) {
    std::fill(ring_mark_.begin(), ring_mark_.end(), 0);
    ring_epoch_ = 1;
  }
  ring_.clear();
  ring_counts_.clear();
  for (const std::int32_t s : seeds) {
    assert(s >= 0 && static_cast<std::size_t>(s) < mapped_nodes_.size());
    if (ring_mark_[s] != ring_epoch_) {
      ring_mark_[s] = ring_epoch_;
      ring_.push_back(s);
    }
  }
  ring_counts_.push_back(static_cast<std::int64_t>(ring_.size()));
}

void SupportSampler::GrowRing() {
  assert(!ring_counts_.empty() && "GrowRing before BeginSupport");
  const std::size_t frontier_begin =
      ring_counts_.size() >= 2
          ? static_cast<std::size_t>(ring_counts_[ring_counts_.size() - 2])
          : 0;
  const std::size_t frontier_end = ring_.size();
  for (std::size_t i = frontier_begin; i < frontier_end; ++i) {
    const std::int32_t v = mapped_nodes_[ring_[i]];
    for (std::int64_t p = adj_.row_ptr[v]; p < adj_.row_ptr[v + 1]; ++p) {
      const std::int32_t u = adj_.col_idx[p];
      std::int32_t local = global_to_local_[u];
      if (local == -1) {
        local = static_cast<std::int32_t>(mapped_nodes_.size());
        global_to_local_[u] = local;
        mapped_nodes_.push_back(u);
        if (ring_mark_.size() < mapped_nodes_.size()) ring_mark_.push_back(0);
      }
      if (ring_mark_[local] != ring_epoch_) {
        ring_mark_[local] = ring_epoch_;
        ring_.push_back(local);
      }
    }
  }
  ring_counts_.push_back(static_cast<std::int64_t>(ring_.size()));
}

}  // namespace nai::graph
