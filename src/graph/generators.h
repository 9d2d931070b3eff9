#ifndef NAI_GRAPH_GENERATORS_H_
#define NAI_GRAPH_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/tensor/matrix.h"

namespace nai::graph {

/// A generated node-classification dataset: graph + features + labels.
struct SyntheticDataset {
  Graph graph;
  tensor::Matrix features;            // n x f
  std::vector<std::int32_t> labels;   // n, values in [0, num_classes)
  std::int32_t num_classes = 0;
};

/// Configuration of the degree-heterogeneous homophilous generator.
///
/// The generator is a Chung-Lu style model with planted classes:
///  * node weights w_i follow a truncated power law with exponent
///    `power_law_exponent` (heavier tail -> more degree heterogeneity, which
///    is what makes node-adaptive depth matter);
///  * each of `num_edges` edges picks its first endpoint proportional to w,
///    and its second endpoint proportional to w restricted to the same class
///    with probability `homophily`, otherwise unrestricted;
///  * features are Gaussian class centroids plus isotropic noise:
///    x_i = class_separation * mu_{y_i} + feature_noise * eps_i.
///
/// Homophily plus feature noise is exactly the regime in which feature
/// propagation (neighborhood averaging) denoises and deeper propagation
/// helps sparsely connected nodes — the regime the paper's datasets live in.
struct GeneratorConfig {
  std::int64_t num_nodes = 1000;
  std::int64_t num_edges = 5000;
  std::int32_t num_classes = 7;
  std::int32_t feature_dim = 32;
  float power_law_exponent = 2.2f;   // P(w) ~ w^-alpha, alpha in (2, 3]
  float max_weight_ratio = 100.0f;   // w_max / w_min truncation
  float homophily = 0.8f;            // P(edge endpoint is same-class)
  float class_separation = 1.0f;
  float feature_noise = 2.5f;
  /// Fraction of observed labels replaced by a uniformly random other
  /// class. Edges and features follow the *true* labels; only the observed
  /// label is corrupted. This sets an intrinsic accuracy ceiling of about
  /// (1 - label_noise), mimicking the irreducible error of the paper's
  /// real datasets (Flickr tops out near 50%, Ogbn-arxiv near 70%).
  float label_noise = 0.0f;
  std::uint64_t seed = 42;
};

/// Generates a dataset according to `config`. Deterministic given the seed.
SyntheticDataset GenerateDataset(const GeneratorConfig& config);

/// Configuration of the out-of-core scaled generator (GenerateScaled).
///
/// The graph is a ring (node i — i+1 mod n, so every node is servable and
/// the graph is connected) plus deterministic forward chords: node u draws
/// a truncated-Pareto chord count c_u ~ w^-alpha (the degree heterogeneity
/// that makes node-adaptive depth matter at scale) and c_u distinct offsets
/// in [2, n/2), each adding the undirected edge {u, (u+offset) mod n}.
/// Offsets below n/2 can never collide across nodes (the reverse offset
/// n-o would exceed n/2), so edges are unique by construction: the
/// generator writes CSR arrays straight into the on-disk layout without
/// ever building a Graph or deduplicating edges.
struct ScaledGraphConfig {
  std::int64_t num_nodes = 1'000'000;  ///< >= 8
  std::int32_t feature_dim = 32;
  float gamma = 0.5f;                ///< Eq. 1 normalization exponent
  float power_law_exponent = 2.2f;   ///< chord-count tail, alpha > 1
  std::int32_t min_chords = 1;
  std::int32_t max_chords = 256;     ///< truncation (also capped by n/2 - 2)
  std::uint64_t seed = 42;
};

/// Streams a ScaledGraphConfig graph — adjacency, normalized adjacency,
/// uniform [-1, 1) features and the pooled stationary vector — directly
/// into the storage::MmapStore on-disk layout at `path`. The heap holds
/// O(n) scalar arrays (chord counts, chord-array offsets, in-degrees,
/// degree scalers) and each node's chord ends with their reverse slots,
/// 8 bytes per chord (about 33 MB at 2^20 nodes and the default chord
/// settings). Every CSR array and the features are written in place in
/// the mapped file. Every per-node pass runs on
/// runtime::ThreadPool::Default() (pick the pool with ScopedDefaultPool
/// or SetDefaultThreads); the file is byte-identical for every thread
/// count. Returns the undirected edge count m. Deterministic given the
/// seed; throws nai::ValidationError on invalid configs and nai::IoError
/// on file errors.
std::int64_t GenerateScaled(const ScaledGraphConfig& config,
                            const std::string& path);

/// Deterministic toy graphs for tests.
Graph PathGraph(std::int64_t n);
Graph CycleGraph(std::int64_t n);
Graph StarGraph(std::int64_t leaves);     // node 0 is the hub
Graph CompleteGraph(std::int64_t n);
Graph GridGraph(std::int64_t rows, std::int64_t cols);

}  // namespace nai::graph

#endif  // NAI_GRAPH_GENERATORS_H_
