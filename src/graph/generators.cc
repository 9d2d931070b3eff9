#include "src/graph/generators.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "src/graph/normalize.h"
#include "src/runtime/error.h"
#include "src/runtime/thread_pool.h"
#include "src/storage/mmap_store.h"
#include "src/tensor/random.h"

namespace nai::graph {

namespace {

/// Samples an index from a cumulative weight table by binary search.
std::int32_t SampleFromCdf(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u * cdf.back());
  return static_cast<std::int32_t>(std::min<std::ptrdiff_t>(
      std::distance(cdf.begin(), it), static_cast<std::ptrdiff_t>(cdf.size()) - 1));
}

/// Counter-free splitmix64: one independent, reproducible stream per
/// (seed, node) pair, so every node's chords and feature row can be drawn
/// on any thread in any order.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double NextDouble() {  // uniform in [0, 1)
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
};

std::uint64_t NodeStream(std::uint64_t seed, std::int64_t node,
                         std::uint64_t salt) {
  SplitMix64 mix{seed ^ (static_cast<std::uint64_t>(node) * 0xd6e8feb86659fd93ULL) ^
                 salt};
  return mix.Next();
}

/// The chord stream of node u. Its first draw is the chord count, every
/// later draw a candidate offset.
SplitMix64 ChordStream(const ScaledGraphConfig& config, std::int64_t u) {
  return SplitMix64{NodeStream(config.seed, u, 0x5ca1ab1eULL)};
}

/// Offsets are drawn from [2, n/2).
std::int64_t OffsetRange(const ScaledGraphConfig& config) {
  return config.num_nodes / 2 - 2;
}

/// The chord count c_u: a truncated Pareto with exponent `alpha`, taken
/// from the first draw of u's chord stream.
std::int64_t ChordCount(const ScaledGraphConfig& config, std::int64_t u) {
  const std::int64_t range = OffsetRange(config);
  if (range <= 0) return 0;
  SplitMix64 rng = ChordStream(config, u);
  const double alpha = static_cast<double>(config.power_law_exponent);
  const double x = rng.NextDouble();
  // Inverse CDF of the Pareto tail P(c >= k) ~ k^-(alpha-1), truncated.
  const double draw = static_cast<double>(config.min_chords) *
                      std::pow(1.0 - x, -1.0 / (alpha - 1.0));
  const double cap = static_cast<double>(
      std::min<std::int64_t>(config.max_chords, range));
  return static_cast<std::int64_t>(std::min(draw, cap));
}

/// Draws node u's `count` distinct offsets (ChordCount) into `out` by
/// bounded rejection and returns how many it found; that is `count`
/// unless the attempts run out first.
std::int64_t DrawChords(const ScaledGraphConfig& config, std::int64_t u,
                        std::int64_t count, std::int32_t* out) {
  const double range = static_cast<double>(OffsetRange(config));
  SplitMix64 rng = ChordStream(config, u);
  rng.Next();  // the count draw
  std::int64_t found = 0;
  std::int64_t attempts = 0;
  const std::int64_t max_attempts = count * 16 + 16;
  while (found < count && attempts++ < max_attempts) {
    const auto offset = static_cast<std::int32_t>(
        2 + static_cast<std::int64_t>(rng.NextDouble() * range));
    if (std::find(out, out + found, offset) == out + found) {
      out[found++] = offset;
    }
  }
  return found;
}

/// ParallelFor grains (approximate scalar ops per node) of GenerateScaled's
/// node loops: a chord draw is a few hash steps and a pow, a row pass sorts
/// and normalizes about ten entries and draws `feature_dim` floats.
constexpr std::size_t kChordGrain = 64;
std::size_t RowGrain(std::int64_t feature_dim) {
  return 64 + 8 * static_cast<std::size_t>(feature_dim);
}

}  // namespace

SyntheticDataset GenerateDataset(const GeneratorConfig& config) {
  assert(config.num_nodes > 1);
  assert(config.num_classes >= 2);
  assert(config.power_law_exponent > 1.0f);
  tensor::Rng rng(config.seed);

  const std::int64_t n = config.num_nodes;
  const std::int32_t c = config.num_classes;

  // --- Class assignment (balanced, shuffled). -----------------------------
  std::vector<std::int32_t> labels(n);
  for (std::int64_t i = 0; i < n; ++i) {
    labels[i] = static_cast<std::int32_t>(i % c);
  }
  {
    std::vector<std::int32_t> perm(n);
    for (std::int64_t i = 0; i < n; ++i) perm[i] = static_cast<std::int32_t>(i);
    rng.Shuffle(perm);
    std::vector<std::int32_t> shuffled(n);
    for (std::int64_t i = 0; i < n; ++i) shuffled[perm[i]] = labels[i];
    labels = std::move(shuffled);
  }

  // --- Power-law node weights (inverse-CDF of truncated Pareto). ----------
  std::vector<double> weights(n);
  const double alpha = config.power_law_exponent;
  const double wmin = 1.0;
  const double wmax = static_cast<double>(config.max_weight_ratio);
  const double a = 1.0 - alpha;
  for (std::int64_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    // Inverse CDF of p(w) ~ w^-alpha on [wmin, wmax].
    const double wa = std::pow(wmin, a);
    const double wb = std::pow(wmax, a);
    weights[i] = std::pow(wa + u * (wb - wa), 1.0 / a);
  }

  // --- Cumulative tables: global and per class. ---------------------------
  std::vector<double> cdf_all(n);
  std::vector<std::vector<std::int32_t>> class_members(c);
  for (std::int64_t i = 0; i < n; ++i) {
    cdf_all[i] = weights[i] + (i > 0 ? cdf_all[i - 1] : 0.0);
    class_members[labels[i]].push_back(static_cast<std::int32_t>(i));
  }
  std::vector<std::vector<double>> cdf_class(c);
  for (std::int32_t k = 0; k < c; ++k) {
    cdf_class[k].resize(class_members[k].size());
    double acc = 0.0;
    for (std::size_t j = 0; j < class_members[k].size(); ++j) {
      acc += weights[class_members[k][j]];
      cdf_class[k][j] = acc;
    }
  }

  // --- Edge sampling with homophily. ---------------------------------------
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  edges.reserve(config.num_edges);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(config.num_edges * 2);
  const std::int64_t max_attempts = config.num_edges * 20;
  std::int64_t attempts = 0;
  while (static_cast<std::int64_t>(edges.size()) < config.num_edges &&
         attempts < max_attempts) {
    ++attempts;
    const std::int32_t u = SampleFromCdf(cdf_all, rng.NextDouble());
    std::int32_t v;
    if (rng.NextFloat() < config.homophily) {
      const std::int32_t k = labels[u];
      v = class_members[k][SampleFromCdf(cdf_class[k], rng.NextDouble())];
    } else {
      v = SampleFromCdf(cdf_all, rng.NextDouble());
    }
    if (u == v) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(std::min(u, v)) << 32) |
        static_cast<std::uint32_t>(std::max(u, v));
    if (!seen.insert(key).second) continue;
    edges.emplace_back(u, v);
  }

  SyntheticDataset out;
  out.graph = Graph::FromEdges(n, edges);
  out.labels = std::move(labels);
  out.num_classes = c;

  // --- Features: class centroid + noise. -----------------------------------
  tensor::Matrix centroids(c, config.feature_dim);
  tensor::FillGaussian(centroids, config.class_separation, rng);
  out.features.Resize(n, config.feature_dim);
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = out.features.row(i);
    const float* mu = centroids.row(out.labels[i]);
    for (std::int32_t j = 0; j < config.feature_dim; ++j) {
      row[j] = mu[j] + config.feature_noise * rng.NextGaussian();
    }
  }

  // --- Observed-label corruption (after edges and features, which follow
  // the true labels): sets the irreducible-error ceiling. ------------------
  if (config.label_noise > 0.0f) {
    for (std::int64_t i = 0; i < n; ++i) {
      if (rng.NextFloat() < config.label_noise) {
        const std::int32_t offset =
            1 + static_cast<std::int32_t>(rng.NextBounded(c - 1));
        out.labels[i] = (out.labels[i] + offset) % c;
      }
    }
  }
  return out;
}

std::int64_t GenerateScaled(const ScaledGraphConfig& config,
                            const std::string& path) {
  const std::int64_t n = config.num_nodes;
  if (n < 8) {
    throw ValidationError("GenerateScaled: num_nodes must be >= 8");
  }
  if (config.feature_dim <= 0) {
    throw ValidationError("GenerateScaled: feature_dim must be positive");
  }
  if (!(config.gamma >= 0.0f && config.gamma <= 1.0f)) {
    throw ValidationError("GenerateScaled: gamma must be in [0, 1]");
  }
  if (!(config.power_law_exponent > 1.0f)) {
    throw ValidationError("GenerateScaled: power_law_exponent must be > 1");
  }
  if (config.min_chords < 0 || config.max_chords < config.min_chords) {
    throw ValidationError(
        "GenerateScaled: need 0 <= min_chords <= max_chords");
  }

  // Every node has its two ring neighbors; chords add one endpoint each.
  // Each node's chords are drawn once, on whichever thread takes the node,
  // into a flat array (4 bytes per chord) that the degree count and the
  // column scatter both read. Rows are sorted before anything reads them,
  // so the order in which threads scatter into a row never shows.
  using runtime::ParallelFor;
  std::vector<std::int32_t> chord_count(n);
  ParallelFor(0, n, kChordGrain, [&](std::size_t u0, std::size_t u1) {
    for (std::size_t u = u0; u < u1; ++u) {
      chord_count[u] = static_cast<std::int32_t>(ChordCount(config, u));
    }
  });
  std::vector<std::int64_t> chord_ptr(n + 1, 0);
  for (std::int64_t u = 0; u < n; ++u) {
    chord_ptr[u + 1] = chord_ptr[u] + chord_count[u];
  }
  // chords[chord_ptr[u] + i] is the i-th chord end of node u: drawn as an
  // offset, stored as the node (u + offset) mod n.
  std::vector<std::int32_t> chords(chord_ptr[n]);
  // in_degree[v] counts the chords that end at v. The count a chord's
  // increment returns is its slot among v's reverse entries, kept so the
  // scatter below needs no atomics.
  std::vector<std::int32_t> in_degree(n, 0);
  std::vector<std::int32_t> reverse_slot(chord_ptr[n]);
  ParallelFor(0, n, kChordGrain, [&](std::size_t u0, std::size_t u1) {
    for (std::size_t u = u0; u < u1; ++u) {
      std::int32_t* ends = chords.data() + chord_ptr[u];
      const std::int64_t found = DrawChords(config, u, chord_count[u], ends);
      chord_count[u] = static_cast<std::int32_t>(found);
      for (std::int64_t i = 0; i < found; ++i) {
        std::int64_t v = static_cast<std::int64_t>(u) + ends[i];
        if (v >= n) v -= n;  // offsets are below n/2
        ends[i] = static_cast<std::int32_t>(v);
        reverse_slot[chord_ptr[u] + i] =
            std::atomic_ref<std::int32_t>(in_degree[v]).fetch_add(
                1, std::memory_order_relaxed);
      }
    }
  });
  std::int64_t adj_nnz = 0;
  std::int64_t max_degree = 0;
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t degree = 2 + chord_count[v] + in_degree[v];
    adj_nnz += degree;
    max_degree = std::max(max_degree, degree);
  }

  storage::MmapStoreWriter writer(path, n, adj_nnz, config.feature_dim,
                                  config.gamma);

  // Row pointers (adjacency and normalized, which gains one self-loop per
  // row) as prefix sums over the degrees.
  std::int64_t* adj_row_ptr = writer.adj_row_ptr();
  std::int64_t* norm_row_ptr = writer.norm_row_ptr();
  adj_row_ptr[0] = 0;
  norm_row_ptr[0] = 0;
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t degree = 2 + chord_count[v] + in_degree[v];
    adj_row_ptr[v + 1] = adj_row_ptr[v] + degree;
    norm_row_ptr[v + 1] = norm_row_ptr[v] + degree + 1;
  }

  // The degree scalers of Eq. 1 and the stationary weights
  // v_j = (d_j+1)^(1-γ) / (2m+n) depend on the degree alone, and degrees
  // repeat, so each is evaluated once per degree value.
  const double denom = static_cast<double>(adj_nnz + n);  // 2m + n
  std::vector<float> left_of(max_degree + 1), right_of(max_degree + 1),
      weight_of(max_degree + 1);
  for (std::int64_t d = 0; d <= max_degree; ++d) {
    DegreeScalers(d, config.gamma, left_of[d], right_of[d]);
    weight_of[d] = static_cast<float>(
        std::pow(static_cast<double>(d + 1), 1.0 - config.gamma) / denom);
  }

  // Scatter: node u writes its ring neighbors and chord ends at the head
  // of its own row, and itself into its reverse slot in the tail of each
  // chord end's row.
  std::int32_t* adj_col_idx = writer.adj_col_idx();
  std::vector<float> left(n), right(n);
  ParallelFor(0, n, kChordGrain, [&](std::size_t u0, std::size_t u1) {
    for (auto u = static_cast<std::int64_t>(u0);
         u < static_cast<std::int64_t>(u1); ++u) {
      std::int32_t* row = adj_col_idx + adj_row_ptr[u];
      row[0] = static_cast<std::int32_t>(u + 1 < n ? u + 1 : 0);
      row[1] = static_cast<std::int32_t>(u > 0 ? u - 1 : n - 1);
      const std::int32_t* ends = chords.data() + chord_ptr[u];
      const std::int32_t* slot = reverse_slot.data() + chord_ptr[u];
      for (std::int32_t i = 0; i < chord_count[u]; ++i) {
        const std::int32_t v = ends[i];
        row[2 + i] = v;
        adj_col_idx[adj_row_ptr[v + 1] - in_degree[v] + slot[i]] =
            static_cast<std::int32_t>(u);
      }
      const std::int64_t degree = adj_row_ptr[u + 1] - adj_row_ptr[u];
      left[u] = left_of[degree];
      right[u] = right_of[degree];
    }
  });

  // Row pass: sort each adjacency row in place in the map, write its
  // normalized row with the exact row writer the in-memory build uses,
  // and draw its features (uniform [-1, 1), one hash stream per node).
  CsrView adj_view;
  adj_view.rows = n;
  adj_view.cols = n;
  adj_view.row_ptr = adj_row_ptr;
  adj_view.col_idx = adj_col_idx;
  adj_view.values = nullptr;
  std::int32_t* norm_col_idx = writer.norm_col_idx();
  float* norm_values = writer.norm_values();
  const std::int64_t dim = config.feature_dim;
  float* features = writer.features();
  ParallelFor(0, n, RowGrain(dim), [&](std::size_t v0, std::size_t v1) {
    for (std::size_t v = v0; v < v1; ++v) {
      std::sort(adj_col_idx + adj_row_ptr[v],
                adj_col_idx + adj_row_ptr[v + 1]);
      WriteNormalizedRow(adj_view, v, left, right,
                         norm_col_idx + norm_row_ptr[v],
                         norm_values + norm_row_ptr[v]);
      SplitMix64 rng{NodeStream(config.seed, v, 0xfea70125ULL)};
      float* row = features + v * dim;
      for (std::int64_t f = 0; f < dim; ++f) {
        row[f] = static_cast<float>(rng.NextDouble()) * 2.0f - 1.0f;
      }
    }
  });

  // The pooled stationary vector, accumulated in the same ascending-node
  // order as PooledStationaryVector: bit-identical to what a from-RAM
  // build would store.
  float* stationary = writer.stationary();
  std::fill(stationary, stationary + dim, 0.0f);
  for (std::int64_t j = 0; j < n; ++j) {
    const float vj = weight_of[adj_row_ptr[j + 1] - adj_row_ptr[j]];
    const float* row = features + j * dim;
    for (std::int64_t f = 0; f < dim; ++f) stationary[f] += vj * row[f];
  }

  writer.Finalize();
  return adj_nnz / 2;
}

Graph PathGraph(std::int64_t n) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::FromEdges(n, edges);
}

Graph CycleGraph(std::int64_t n) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  if (n > 2) edges.emplace_back(static_cast<std::int32_t>(n - 1), 0);
  return Graph::FromEdges(n, edges);
}

Graph StarGraph(std::int64_t leaves) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t i = 1; i <= leaves; ++i) edges.emplace_back(0, i);
  return Graph::FromEdges(leaves + 1, edges);
}

Graph CompleteGraph(std::int64_t n) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return Graph::FromEdges(n, edges);
}

Graph GridGraph(std::int64_t rows, std::int64_t cols) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  auto id = [cols](std::int64_t r, std::int64_t c) {
    return static_cast<std::int32_t>(r * cols + c);
  };
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph::FromEdges(rows * cols, edges);
}

}  // namespace nai::graph
