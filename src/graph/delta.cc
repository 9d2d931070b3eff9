#include "src/graph/delta.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>

#include "src/graph/normalize.h"
#include "src/runtime/error.h"

namespace nai::graph {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// True iff no value of `row` is NaN or infinite. One such feature would
/// turn the pooled stationary vector NaN, and every NAPd distance check
/// with it.
bool AllFinite(const std::vector<float>& row) {
  return std::all_of(row.begin(), row.end(),
                     [](float x) { return std::isfinite(x); });
}

/// True iff {u, v} is an edge of the adjacency view (sorted rows).
bool ViewHasEdge(CsrView adj, std::int32_t u, std::int32_t v) {
  const std::int32_t* begin = adj.col_idx + adj.row_ptr[u];
  const std::int32_t* end = adj.col_idx + adj.row_ptr[u + 1];
  return std::binary_search(begin, end, v);
}

std::shared_ptr<const GraphSnapshot> WrapMemStore(
    std::uint64_t version, float gamma,
    std::shared_ptr<const storage::MemStore> store) {
  auto snap = std::make_shared<GraphSnapshot>();
  snap->version = version;
  snap->gamma = gamma;
  snap->graph_store = store;
  snap->feature_store = std::move(store);
  return snap;
}

std::shared_ptr<const GraphSnapshot> FinishSnapshot(std::uint64_t version,
                                                    Graph graph,
                                                    tensor::Matrix features,
                                                    float gamma) {
  return WrapMemStore(version, gamma,
                      std::make_shared<storage::MemStore>(
                          std::move(graph), std::move(features), gamma));
}

}  // namespace

const storage::MemStore& GraphSnapshot::RequireMem() const {
  const storage::MemStore* store = mem();
  if (store == nullptr) {
    throw ValidationError(
        "GraphSnapshot: concrete container access requires the mem backend; "
        "this snapshot is backed by '" +
        std::string(storage::BackendName(backend())) +
        "' — read through adj()/norm_adj()/feature_store instead");
  }
  return *store;
}

std::shared_ptr<const GraphSnapshot> MakeSnapshot(Graph graph,
                                                  tensor::Matrix features,
                                                  float gamma) {
  if (static_cast<std::int64_t>(features.rows()) != graph.num_nodes()) {
    throw ValidationError(
        "MakeSnapshot: features have " + std::to_string(features.rows()) +
        " rows but the graph has " + std::to_string(graph.num_nodes()) +
        " nodes");
  }
  return FinishSnapshot(0, std::move(graph), std::move(features), gamma);
}

std::shared_ptr<const GraphSnapshot> MakeSnapshotFromStore(
    std::shared_ptr<const storage::GraphStore> graph_store,
    std::shared_ptr<const storage::FeatureStore> feature_store,
    std::uint64_t version) {
  if (graph_store == nullptr || feature_store == nullptr) {
    throw ValidationError("MakeSnapshotFromStore: null store");
  }
  if (feature_store->num_rows() != graph_store->num_nodes()) {
    throw ValidationError("MakeSnapshotFromStore: feature store has " +
                          std::to_string(feature_store->num_rows()) +
                          " rows but the graph store has " +
                          std::to_string(graph_store->num_nodes()) + " nodes");
  }
  auto snap = std::make_shared<GraphSnapshot>();
  snap->version = version;
  snap->gamma = graph_store->gamma();
  snap->graph_store = std::move(graph_store);
  snap->feature_store = std::move(feature_store);
  return snap;
}

SnapshotBuilder::SnapshotBuilder(std::shared_ptr<const GraphSnapshot> base,
                                 int stale_horizon)
    : base_(std::move(base)), stale_horizon_(std::max(0, stale_horizon)) {
  if (base_ == nullptr) {
    throw ValidationError("SnapshotBuilder: null base snapshot");
  }
}

std::shared_ptr<const GraphSnapshot> SnapshotBuilder::Apply(
    const GraphDelta& delta) {
  const auto start = Clock::now();
  const GraphSnapshot& base = *base_;
  const CsrView old_adj = base.adj();
  const CsrView old_norm = base.norm_adj();
  const storage::FeatureStore& old_features = *base.feature_store;
  const std::int64_t n_old = base.num_nodes();
  const std::size_t f = base.feature_dim();
  const std::int64_t n_new =
      n_old + static_cast<std::int64_t>(delta.node_inserts.size());

  // ---- Validation (nothing is mutated until everything passed). ----
  for (const std::vector<float>& row : delta.node_inserts) {
    if (row.size() != f) {
      throw ValidationError(
          "SnapshotBuilder: node insert has " + std::to_string(row.size()) +
          " features, snapshot width is " + std::to_string(f));
    }
    if (!AllFinite(row)) {
      throw ValidationError(
          "SnapshotBuilder: node insert has a NaN or infinite feature");
    }
  }
  for (const auto& [u, v] : delta.edge_inserts) {
    if (u < 0 || v < 0 || u >= n_new || v >= n_new) {
      throw ValidationError(
          "SnapshotBuilder: edge (" + std::to_string(u) + ", " +
          std::to_string(v) + ") outside the merged id range [0, " +
          std::to_string(n_new) + ")");
    }
  }
  for (const auto& [node, row] : delta.feature_updates) {
    if (node < 0 || node >= n_new) {
      throw ValidationError(
          "SnapshotBuilder: feature update for node " + std::to_string(node) +
          " outside the merged id range [0, " + std::to_string(n_new) + ")");
    }
    if (row.size() != f) {
      throw ValidationError(
          "SnapshotBuilder: feature update for node " + std::to_string(node) +
          " has " + std::to_string(row.size()) + " features, snapshot width is " +
          std::to_string(f));
    }
    if (!AllFinite(row)) {
      throw ValidationError("SnapshotBuilder: feature update for node " +
                            std::to_string(node) +
                            " has a NaN or infinite feature");
    }
  }

  // ---- Edge dedup: simple graph, so self-loops, duplicates within the
  // delta, and edges already present in the base are dropped. ----
  std::vector<std::pair<std::int32_t, std::int32_t>> kept;
  kept.reserve(delta.edge_inserts.size());
  for (auto [u, v] : delta.edge_inserts) {
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    kept.push_back({u, v});
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  kept.erase(std::remove_if(kept.begin(), kept.end(),
                            [&](const auto& e) {
                              return e.first < n_old && e.second < n_old &&
                                     ViewHasEdge(old_adj, e.first, e.second);
                            }),
             kept.end());

  // Per-node adjacency additions (sorted below; `touched` = rows whose
  // neighbor list — and therefore degree — changes).
  std::vector<std::vector<std::int32_t>> adds(n_new);
  for (const auto& [u, v] : kept) {
    adds[u].push_back(v);
    adds[v].push_back(u);
  }
  for (auto& a : adds) std::sort(a.begin(), a.end());

  // ---- Merged adjacency: untouched rows copied by span, touched rows
  // merge-sorted with their additions, new-node rows are their additions. ----
  Csr adj;
  adj.rows = n_new;
  adj.cols = n_new;
  adj.row_ptr.assign(n_new + 1, 0);
  for (std::int64_t v = 0; v < n_new; ++v) {
    const std::int64_t old_nnz = v < n_old ? old_adj.RowNnz(v) : 0;
    adj.row_ptr[v + 1] =
        adj.row_ptr[v] + old_nnz + static_cast<std::int64_t>(adds[v].size());
  }
  adj.col_idx.resize(adj.row_ptr.back());
  adj.values.assign(adj.row_ptr.back(), 1.0f);
  for (std::int64_t v = 0; v < n_new; ++v) {
    std::int32_t* out = adj.col_idx.data() + adj.row_ptr[v];
    if (v < n_old) {
      const std::int32_t* old_begin = old_adj.col_idx + old_adj.row_ptr[v];
      const std::int32_t* old_end = old_adj.col_idx + old_adj.row_ptr[v + 1];
      if (adds[v].empty()) {
        std::copy(old_begin, old_end, out);
      } else {
        std::merge(old_begin, old_end, adds[v].begin(), adds[v].end(), out);
      }
    } else {
      std::copy(adds[v].begin(), adds[v].end(), out);
    }
  }
  Graph merged = Graph::FromCsr(std::move(adj));

  // ---- Merged features: base block, inserted rows, then updates. ----
  tensor::Matrix features(n_new, f);
  for (std::int64_t v = 0; v < n_old; ++v) {
    if (f > 0) features.SetRow(static_cast<std::size_t>(v), old_features.row(v));
  }
  for (std::size_t i = 0; i < delta.node_inserts.size(); ++i) {
    features.SetRow(static_cast<std::size_t>(n_old) + i,
                    delta.node_inserts[i].data());
  }
  for (const auto& [node, row] : delta.feature_updates) {
    features.SetRow(static_cast<std::size_t>(node), row.data());
  }

  // ---- Normalized adjacency, incrementally. A base row is dirty iff its
  // own degree changed (touched) or any neighbor's did (the row's entry for
  // that neighbor carries the neighbor's degree scaler); new rows always.
  // Everything else is copied verbatim — bit-identical by the shared
  // WriteNormalizedRow formula. ----
  std::vector<float> left, right;
  NormalizedDegreeScalers(merged.adjacency(), left, right, base.gamma);
  std::vector<char> dirty(n_new, 0);
  for (std::int64_t v = 0; v < n_new; ++v) {
    if (v >= n_old || !adds[v].empty()) {
      dirty[v] = 1;
      for (const std::int32_t* it = merged.neighbors_begin(
               static_cast<std::int32_t>(v));
           it != merged.neighbors_end(static_cast<std::int32_t>(v)); ++it) {
        dirty[*it] = 1;
      }
    }
  }

  Csr norm;
  norm.rows = n_new;
  norm.cols = n_new;
  norm.row_ptr.assign(n_new + 1, 0);
  for (std::int64_t v = 0; v < n_new; ++v) {
    norm.row_ptr[v + 1] = norm.row_ptr[v] + merged.adjacency().RowNnz(v) + 1;
  }
  norm.col_idx.resize(norm.row_ptr.back());
  norm.values.resize(norm.row_ptr.back());
  std::int64_t recomputed = 0;
  for (std::int64_t v = 0; v < n_new; ++v) {
    if (dirty[v]) {
      WriteNormalizedRow(merged.adjacency(), v, left, right,
                         norm.col_idx.data() + norm.row_ptr[v],
                         norm.values.data() + norm.row_ptr[v]);
      ++recomputed;
    } else {
      const std::int64_t len = norm.row_ptr[v + 1] - norm.row_ptr[v];
      std::memcpy(norm.col_idx.data() + norm.row_ptr[v],
                  old_norm.col_idx + old_norm.row_ptr[v],
                  static_cast<std::size_t>(len) * sizeof(std::int32_t));
      std::memcpy(norm.values.data() + norm.row_ptr[v],
                  old_norm.values + old_norm.row_ptr[v],
                  static_cast<std::size_t>(len) * sizeof(float));
    }
  }

  // ---- Staleness frontier: BFS from every delta-touched node out to the
  // stale horizon (symmetric graph, so out- and in-neighborhoods agree). ----
  std::vector<char> stale(n_new, 0);
  std::vector<std::int32_t> frontier;
  auto seed = [&](std::int64_t v) {
    if (!stale[v]) {
      stale[v] = 1;
      frontier.push_back(static_cast<std::int32_t>(v));
    }
  };
  for (const auto& [u, v] : kept) {
    seed(u);
    seed(v);
  }
  for (std::int64_t v = n_old; v < n_new; ++v) seed(v);
  for (const auto& [node, row] : delta.feature_updates) seed(node);
  std::int64_t stale_count = static_cast<std::int64_t>(frontier.size());
  for (int hop = 0; hop < stale_horizon_ && !frontier.empty(); ++hop) {
    std::vector<std::int32_t> next;
    for (const std::int32_t u : frontier) {
      for (const std::int32_t* it = merged.neighbors_begin(u);
           it != merged.neighbors_end(u); ++it) {
        if (!stale[*it]) {
          stale[*it] = 1;
          next.push_back(*it);
          ++stale_count;
        }
      }
    }
    frontier = std::move(next);
  }

  // ---- Pooled stationary vector: re-reduced from scratch in the canonical
  // node order — bit-identical to a cold build, and still only O(n f). ----
  tensor::Matrix pooled = PooledStationaryVector(merged, features, base.gamma);

  auto snap = WrapMemStore(
      base.version + 1, base.gamma,
      std::make_shared<storage::MemStore>(std::move(merged),
                                          std::move(features), base.gamma,
                                          std::move(norm), std::move(pooled)));

  stats_ = SnapshotBuildStats{};
  stats_.new_nodes = static_cast<std::int64_t>(delta.node_inserts.size());
  stats_.new_edges = static_cast<std::int64_t>(kept.size());
  stats_.feature_updates =
      static_cast<std::int64_t>(delta.feature_updates.size());
  stats_.norm_rows_recomputed = recomputed;
  stats_.norm_rows_copied = n_new - recomputed;
  stats_.stale_nodes = stale_count;
  stats_.build_ms = MsSince(start);

  base_ = snap;
  return snap;
}

std::shared_ptr<const GraphSnapshot> MergeFromScratch(
    const GraphSnapshot& base, const std::vector<GraphDelta>& deltas) {
  std::int64_t n = base.num_nodes();
  const std::size_t f = base.feature_dim();
  const CsrView base_adj = base.adj();
  const storage::FeatureStore& base_features = *base.feature_store;

  // Full edge list: base edges (u < v once each) plus every delta insert.
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  edges.reserve(static_cast<std::size_t>(base.num_edges()));
  for (std::int32_t u = 0; u < n; ++u) {
    for (std::int64_t p = base_adj.row_ptr[u]; p < base_adj.row_ptr[u + 1];
         ++p) {
      if (base_adj.col_idx[p] > u) edges.push_back({u, base_adj.col_idx[p]});
    }
  }

  std::vector<std::vector<float>> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (std::int64_t v = 0; v < n; ++v) {
    rows.emplace_back(base_features.row(v), base_features.row(v) + f);
  }
  for (const GraphDelta& delta : deltas) {
    for (const std::vector<float>& row : delta.node_inserts) {
      rows.push_back(row);
      ++n;
    }
    for (const auto& [u, v] : delta.edge_inserts) edges.push_back({u, v});
    for (const auto& [node, row] : delta.feature_updates) rows[node] = row;
  }

  Graph merged = Graph::FromEdges(n, edges);
  tensor::Matrix features(n, f);
  for (std::int64_t v = 0; v < n; ++v) features.SetRow(v, rows[v].data());
  auto snap =
      FinishSnapshot(base.version + deltas.size(), std::move(merged),
                     std::move(features), base.gamma);
  return snap;
}

}  // namespace nai::graph
