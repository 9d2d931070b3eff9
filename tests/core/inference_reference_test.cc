// Reference suite for NAP inference: every engine answer must equal, bit
// for bit, Algorithm 1 run node by node over full-graph propagation. The
// reference never samples a supporting set and never batches, so it pins
// the engine's predictions and exit depths independently of how (and in
// what order) the engine schedules its propagation work.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/inference.h"
#include "src/core/nap_distance.h"
#include "src/core/nap_gate.h"
#include "src/tensor/ops.h"
#include "tests/core/core_fixtures.h"
#include "tests/test_util.h"

namespace nai::core {
namespace {

using nai::testing::MakeSmallWorld;
using nai::testing::MakeTestEngine;
using nai::testing::MakeTestShardedEngine;
using nai::testing::SmallWorld;

struct Answers {
  std::vector<std::int32_t> predictions;
  std::vector<std::int32_t> exit_depths;
};

/// Everything Algorithm 1 reads, over the whole graph: X^(0..k) from
/// full-graph propagation, the stationary state and the classifier banks.
struct FullGraph {
  const std::vector<tensor::Matrix>* stack;
  const StationaryState* stationary;
  ClassifierStack* classifiers;
  QuantizedClassifierStack* quantized = nullptr;
  const GateStack* gates = nullptr;
};

/// Algorithm 1 for one node at a time: check the exit criterion at depths
/// T_min..T_max-1 on the node's full-graph rows, then classify with the
/// head of the exit depth (T_max when it never exits).
Answers RunAlgorithm1(const FullGraph& g, const InferenceConfig& cfg,
                      const std::vector<std::int32_t>& nodes) {
  const int t_max = cfg.effective_t_max(g.classifiers->depth());
  const int t_min = std::clamp(cfg.t_min, 1, t_max);
  Answers out;
  for (const std::int32_t v : nodes) {
    const std::vector<std::int32_t> row = {v};
    int depth = t_max;
    if (cfg.nap != NapKind::kNone) {
      const tensor::Matrix x_inf = g.stationary->RowsForNodes(row);
      for (int l = t_min; l < t_max; ++l) {
        const tensor::Matrix x_l = (*g.stack)[l].GatherRows(row);
        const bool exit =
            cfg.nap == NapKind::kDistance
                ? NapDistance(cfg.threshold, cfg.relative_distance)
                      .ShouldExit(x_l, x_inf)[0]
                : g.gates->ShouldExit(l, x_l, x_inf, cfg.gate_bias)[0];
        if (exit) {
          depth = l;
          break;
        }
      }
    }
    GatheredStack gathered;
    for (int t = 0; t <= depth; ++t) {
      gathered.mats.push_back((*g.stack)[t].GatherRows(row));
    }
    const tensor::Matrix logits =
        cfg.int8_classifier ? g.quantized->Logits(depth, gathered)
                            : g.classifiers->Logits(depth, gathered);
    out.predictions.push_back(tensor::ArgmaxRows(logits)[0]);
    out.exit_depths.push_back(depth);
  }
  return out;
}

FullGraph FullGraphOf(SmallWorld& w, const GateStack* gates = nullptr) {
  return FullGraph{&w.stack, w.stationary.get(), w.classifiers.get(),
                   w.quantized.get(), gates};
}

template <typename Engine>
void ExpectMatchesReference(Engine& engine, const FullGraph& g,
                            const InferenceConfig& cfg,
                            const std::vector<std::int32_t>& nodes,
                            const std::string& label) {
  const InferenceResult got = engine.Infer(nodes, cfg);
  const Answers want = RunAlgorithm1(g, cfg, nodes);
  ASSERT_EQ(got.predictions.size(), nodes.size()) << label;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(got.predictions[i], want.predictions[i])
        << label << ": node " << nodes[i];
    EXPECT_EQ(got.exit_depths[i], want.exit_depths[i])
        << label << ": node " << nodes[i];
  }
}

/// Exit-depth histogram of the reference (index l-1 = depth l).
std::vector<int> DepthHistogram(const Answers& a, int t_max) {
  std::vector<int> hist(t_max, 0);
  for (const std::int32_t d : a.exit_depths) ++hist[d - 1];
  return hist;
}

/// The median NAPd distance at `depth`: as a threshold, about half the
/// nodes that reach `depth` exit there and the rest propagate further.
float MedianDistance(const FullGraph& g, const std::vector<std::int32_t>& nodes,
                     int depth, bool relative) {
  const tensor::Matrix x_l = (*g.stack)[depth].GatherRows(nodes);
  const tensor::Matrix x_inf = g.stationary->RowsForNodes(nodes);
  std::vector<float> d =
      NapDistance(0.0f, relative).ComputeDistances(x_l, x_inf);
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return d[d.size() / 2];
}

/// The batch sizes every schedule must be exact for: single node, a few,
/// a typical serving batch and everything in one batch.
std::vector<std::size_t> BatchSizes(std::size_t n) { return {1, 3, 64, n}; }

TEST(InferenceReferenceTest, FixedDepthMatchesFullGraph) {
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  const FullGraph g = FullGraphOf(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kNone;
  for (const std::size_t bs : BatchSizes(w.all_nodes.size())) {
    cfg.batch_size = bs;
    ExpectMatchesReference(engine, g, cfg, w.all_nodes,
                           "kNone bs=" + std::to_string(bs));
  }
}

TEST(InferenceReferenceTest, DistanceExitsMatchAtEveryThresholdRegime) {
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  const FullGraph g = FullGraphOf(w);
  for (const bool relative : {false, true}) {
    InferenceConfig cfg;
    cfg.nap = NapKind::kDistance;
    cfg.relative_distance = relative;
    cfg.t_min = 1;
    const float some = MedianDistance(g, w.all_nodes, 1, relative);
    // No node exits (Δ < 0 never holds), some do, every node exits at T_min.
    for (const float threshold : {0.0f, some, 1e9f}) {
      cfg.threshold = threshold;
      const Answers ref = RunAlgorithm1(g, cfg, w.all_nodes);
      const std::vector<int> hist = DepthHistogram(ref, 4);
      if (threshold == some) {
        // The "some" regime must really mix early and late exits.
        EXPECT_GT(hist[0], 0);
        EXPECT_LT(hist[0], static_cast<int>(w.all_nodes.size()));
      }
      for (const std::size_t bs : BatchSizes(w.all_nodes.size())) {
        cfg.batch_size = bs;
        ExpectMatchesReference(
            engine, g, cfg, w.all_nodes,
            std::string(relative ? "relative" : "absolute") +
                " T_s=" + std::to_string(threshold) +
                " bs=" + std::to_string(bs));
      }
    }
  }
}

TEST(InferenceReferenceTest, ExitsSpreadOverEveryDepth) {
  // A threshold that lets nodes leave at several different depths, with
  // T_min > 1, so active sets shrink more than once within a batch.
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  const FullGraph g = FullGraphOf(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.relative_distance = true;
  cfg.t_min = 2;
  cfg.threshold = MedianDistance(g, w.all_nodes, 3, true);
  const Answers ref = RunAlgorithm1(g, cfg, w.all_nodes);
  const std::vector<int> hist = DepthHistogram(ref, 4);
  EXPECT_EQ(hist[0], 0);
  EXPECT_GT(hist[1], 0);
  EXPECT_GT(hist[2], 0);
  EXPECT_GT(hist[3], 0);
  for (const std::size_t bs : BatchSizes(w.all_nodes.size())) {
    cfg.batch_size = bs;
    ExpectMatchesReference(engine, g, cfg, w.all_nodes,
                           "spread bs=" + std::to_string(bs));
  }
}

TEST(InferenceReferenceTest, GateExitsMatch) {
  auto w = MakeSmallWorld(4);
  GateStack gates(4, w.config.feature_dim, 77);
  NaiEngine engine = MakeTestEngine(w, {.gates = &gates});
  const FullGraph g = FullGraphOf(w, &gates);
  InferenceConfig cfg;
  cfg.nap = NapKind::kGate;
  for (const float bias : {-0.2f, 0.0f, 0.2f}) {
    cfg.gate_bias = bias;
    const std::vector<int> hist =
        DepthHistogram(RunAlgorithm1(g, cfg, w.all_nodes), 4);
    EXPECT_LT(hist[3], static_cast<int>(w.all_nodes.size())) << bias;
    for (const std::size_t bs : BatchSizes(w.all_nodes.size())) {
      cfg.batch_size = bs;
      ExpectMatchesReference(engine, g, cfg, w.all_nodes,
                             "NAPg bias=" + std::to_string(bias) +
                                 " bs=" + std::to_string(bs));
    }
  }
}

TEST(InferenceReferenceTest, Int8ClassifierMatches) {
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w, {.quantized = w.quantized.get()});
  const FullGraph g = FullGraphOf(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.relative_distance = true;
  cfg.threshold = MedianDistance(g, w.all_nodes, 1, true);
  cfg.int8_classifier = true;
  for (const std::size_t bs : BatchSizes(w.all_nodes.size())) {
    cfg.batch_size = bs;
    ExpectMatchesReference(engine, g, cfg, w.all_nodes,
                           "int8 bs=" + std::to_string(bs));
  }
}

TEST(InferenceReferenceTest, DepthWindowEdgesMatch) {
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  const FullGraph g = FullGraphOf(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.relative_distance = true;
  cfg.threshold = MedianDistance(g, w.all_nodes, 1, true);
  // T_min == T_max: no exit check runs at all.
  for (const int t : {1, 2, 4}) {
    cfg.t_min = t;
    cfg.t_max = t;
    for (const std::size_t bs : BatchSizes(w.all_nodes.size())) {
      cfg.batch_size = bs;
      ExpectMatchesReference(engine, g, cfg, w.all_nodes,
                             "T_min=T_max=" + std::to_string(t) +
                                 " bs=" + std::to_string(bs));
    }
  }
  // T_max = 1 with the default T_min.
  cfg.t_min = 1;
  cfg.t_max = 1;
  cfg.batch_size = 64;
  ExpectMatchesReference(engine, g, cfg, w.all_nodes, "T_max=1");
}

TEST(InferenceReferenceTest, DuplicateIdsInOneBatch) {
  auto w = MakeSmallWorld(4);
  NaiEngine engine = MakeTestEngine(w);
  const FullGraph g = FullGraphOf(w);
  const std::vector<std::int32_t> nodes = {7,  7,   120, 3,   7,  120,
                                           55, 399, 3,   0,   55, 200};
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.relative_distance = true;
  cfg.threshold = MedianDistance(g, w.all_nodes, 1, true);
  for (const std::size_t bs : {std::size_t{3}, nodes.size()}) {
    cfg.batch_size = bs;
    ExpectMatchesReference(engine, g, cfg, nodes,
                           "duplicates bs=" + std::to_string(bs));
  }
  cfg.nap = NapKind::kNone;
  ExpectMatchesReference(engine, g, cfg, nodes, "duplicates kNone");
}

TEST(InferenceReferenceTest, TwoShardsMatch) {
  auto w = MakeSmallWorld(4);
  ShardedNaiEngine engine =
      MakeTestShardedEngine(w, /*num_shards=*/2);
  const FullGraph g = FullGraphOf(w);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.relative_distance = true;
  cfg.threshold = MedianDistance(g, w.all_nodes, 1, true);
  for (const std::size_t bs : BatchSizes(w.all_nodes.size())) {
    cfg.batch_size = bs;
    ExpectMatchesReference(engine, g, cfg, w.all_nodes,
                           "2 shards bs=" + std::to_string(bs));
  }
  cfg.nap = NapKind::kNone;
  cfg.batch_size = 64;
  ExpectMatchesReference(engine, g, cfg, w.all_nodes, "2 shards kNone");
}

/// Tiny handmade graph (edgeless or with an isolated node) with its own
/// full-graph stack, stationary state and untrained classifier bank.
void ExpectTinyGraphMatches(const graph::Graph& graph,
                            const std::string& label) {
  const std::int64_t n = graph.num_nodes();
  const tensor::Matrix x = nai::testing::RandomMatrix(n, 8, 17);
  models::ModelConfig mcfg;
  mcfg.kind = models::ModelKind::kSgc;
  mcfg.depth = 3;
  mcfg.gamma = 0.5f;
  mcfg.feature_dim = 8;
  mcfg.num_classes = 3;
  mcfg.hidden_dims = {4};
  mcfg.dropout = 0.0f;
  ClassifierStack classifiers(mcfg, 5);
  const graph::Csr norm = graph::NormalizedAdjacency(graph, mcfg.gamma);
  const std::vector<tensor::Matrix> stack =
      models::PropagateStack(norm, x, mcfg.depth);
  const StationaryState stationary(graph, x, mcfg.gamma);
  NaiEngine engine = NaiEngine::FromSnapshot(
      graph::MakeSnapshot(graph, x, mcfg.gamma), classifiers);
  const FullGraph g{&stack, &stationary, &classifiers};

  std::vector<std::int32_t> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);
  InferenceConfig cfg;
  cfg.nap = NapKind::kDistance;
  cfg.relative_distance = true;
  cfg.threshold = MedianDistance(g, nodes, 1, true);
  for (const std::size_t bs : {std::size_t{1}, std::size_t{3}, nodes.size()}) {
    cfg.batch_size = bs;
    ExpectMatchesReference(engine, g, cfg, nodes,
                           label + " bs=" + std::to_string(bs));
  }
  cfg.nap = NapKind::kNone;
  ExpectMatchesReference(engine, g, cfg, nodes, label + " kNone");
}

TEST(InferenceReferenceTest, EdgelessGraphMatches) {
  ExpectTinyGraphMatches(graph::Graph::FromEdges(12, {}), "edgeless");
}

TEST(InferenceReferenceTest, IsolatedNodeMatches) {
  ExpectTinyGraphMatches(
      graph::Graph::FromEdges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
      "isolated");
}

}  // namespace
}  // namespace nai::core
