// End-to-end deployment round trip through the io module: export a graph
// to plain-text files (the format a user's own data would arrive in), load
// it back, train, checkpoint the trained model to disk, reload it in a
// "fresh serving process", and verify the restored deployment predicts
// identically.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/core/sharded_inference.h"
#include "src/eval/datasets.h"
#include "src/eval/harness.h"
#include "src/graph/delta.h"
#include "src/graph/normalize.h"
#include "src/graph/shard.h"
#include "src/io/checkpoint.h"
#include "src/io/graph_io.h"
#include "src/runtime/flags.h"
#include "src/storage/mem_store.h"

int main(int argc, char** argv) {
  using namespace nai;
  runtime::ApplyThreadsFlag(argc, argv);  // shared --threads flag (or NAI_THREADS)
  const int num_shards = runtime::ShardsFlag(argc, argv);  // --shards N (default 1)
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "nai_example";
  fs::create_directories(dir);

  // --- Export a dataset to the plain-text formats. -------------------------
  const eval::PreparedDataset ds = eval::Prepare(eval::ArxivSim(0.15));
  {
    std::ofstream edges(dir / "graph.edges");
    io::WriteEdgeList(edges, ds.data.graph);
    std::ofstream feats(dir / "features.txt");
    io::WriteFeatures(feats, ds.data.features);
    std::ofstream labels(dir / "labels.txt");
    io::WriteLabels(labels, ds.data.labels);
  }
  std::printf("exported graph to %s\n", dir.c_str());

  // --- A user would start here: load their own files. ----------------------
  const graph::Graph graph = io::ReadEdgeListFile((dir / "graph.edges").string(),
                                                  ds.data.graph.num_nodes());
  const tensor::Matrix features =
      io::ReadFeaturesFile((dir / "features.txt").string());
  const std::vector<std::int32_t> labels =
      io::ReadLabelsFile((dir / "labels.txt").string());
  std::printf("loaded %lld nodes / %lld edges / %zu-dim features\n",
              static_cast<long long>(graph.num_nodes()),
              static_cast<long long>(graph.num_edges()), features.cols());

  // --- Train and checkpoint. -----------------------------------------------
  eval::PipelineConfig config;
  config.distill.base_epochs = 80;
  config.distill.single_epochs = 50;
  config.distill.multi_epochs = 30;
  eval::TrainedPipeline pipeline = eval::TrainPipeline(ds, config);
  {
    std::ofstream cls(dir / "classifiers.nai", std::ios::binary);
    io::SaveClassifierStack(cls, *pipeline.classifiers);
    std::ofstream st(dir / "stationary.nai", std::ios::binary);
    io::SaveStationaryState(st, *pipeline.full_stationary);
    std::ofstream gt(dir / "gates.nai", std::ios::binary);
    io::SaveGateStack(gt, *pipeline.gates);
  }
  std::printf("checkpointed classifiers + stationary state + gates\n");

  // --- "Fresh serving process": reload and serve. --------------------------
  core::ClassifierStack restored_cls(pipeline.model_config, /*seed=*/0);
  {
    std::ifstream cls(dir / "classifiers.nai", std::ios::binary);
    io::LoadClassifierStack(cls, restored_cls);
  }
  std::ifstream st(dir / "stationary.nai", std::ios::binary);
  core::StationaryState restored_st = io::LoadStationaryState(st, graph);
  core::GateStack restored_gates(pipeline.model_config.depth,
                                 pipeline.model_config.feature_dim, 0);
  {
    std::ifstream gt(dir / "gates.nai", std::ios::binary);
    io::LoadGateStack(gt, restored_gates);
  }

  // The restored deployment serves the loaded files through an in-memory
  // store that carries the checkpointed stationary vector.
  const float gamma = pipeline.model_config.gamma;
  auto store = std::make_shared<storage::MemStore>(
      graph, features, gamma, graph::NormalizedAdjacency(graph, gamma),
      restored_st.pooled());
  const auto snapshot = graph::MakeSnapshotFromStore(store, store);
  core::EngineOptions restored_options;
  restored_options.gates = &restored_gates;
  auto original = eval::MakeEngine(pipeline, ds);
  core::NaiEngine restored =
      core::NaiEngine::FromSnapshot(snapshot, restored_cls, restored_options);

  core::InferenceConfig icfg;
  icfg.nap = core::NapKind::kGate;
  const auto a = original->Infer(ds.split.test_nodes, icfg);
  const auto b = restored.Infer(ds.split.test_nodes, icfg);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    if (a.predictions[i] == b.predictions[i]) ++agree;
  }
  std::printf("restored deployment agrees on %zu / %zu predictions (%s)\n",
              agree, a.predictions.size(),
              agree == a.predictions.size() ? "exact" : "MISMATCH");
  std::printf("accuracy on unseen nodes: %.2f%%\n",
              100.0f * eval::AccuracyOnNodes(b.predictions, labels,
                                             ds.split.test_nodes));

  // --- Optional: shard the restored deployment (--shards N). ---------------
  // The same checkpointed artifacts serve from a partitioned graph: each
  // shard holds an induced subgraph with a k-hop halo and its own thread
  // pool, and the merged predictions must stay bit-identical.
  std::size_t sharded_agree = a.predictions.size();
  if (num_shards > 1) {
    core::ShardedNaiEngine sharded(
        snapshot,
        graph::MakeShards(snapshot->adj(), num_shards,
                          pipeline.model_config.depth),
        restored_cls, &restored_gates);
    const auto c = sharded.Infer(ds.split.test_nodes, icfg);
    sharded_agree = 0;
    for (std::size_t i = 0; i < a.predictions.size(); ++i) {
      if (a.predictions[i] == c.predictions[i]) ++sharded_agree;
    }
    std::printf("%d-shard serving agrees on %zu / %zu predictions (%s)\n",
                num_shards, sharded_agree, a.predictions.size(),
                sharded_agree == a.predictions.size() ? "exact" : "MISMATCH");
  }
  return agree == a.predictions.size() &&
                 sharded_agree == a.predictions.size()
             ? 0
             : 1;
}
