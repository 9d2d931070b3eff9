// Unit tests for the experiment harness on a miniature dataset: pipeline
// training wiring, default-setting construction, and the method runners.

#include "src/eval/harness.h"

#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "src/storage/store.h"

namespace nai::eval {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = ArxivSim(0.05);
    spec.gen.num_classes = 6;
    ds_ = new PreparedDataset(Prepare(spec));
    PipelineConfig cfg;
    cfg.depth = 3;
    cfg.distill.base_epochs = 40;
    cfg.distill.single_epochs = 30;
    cfg.distill.multi_epochs = 20;
    cfg.gate.epochs = 20;
    pipeline_ = new TrainedPipeline(TrainPipeline(*ds_, cfg));
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete ds_;
  }
  static PreparedDataset* ds_;
  static TrainedPipeline* pipeline_;
};

PreparedDataset* HarnessTest::ds_ = nullptr;
TrainedPipeline* HarnessTest::pipeline_ = nullptr;

TEST_F(HarnessTest, PipelineShapes) {
  EXPECT_EQ(pipeline_->model_config.depth, 3);
  EXPECT_EQ(pipeline_->classifiers->depth(), 3);
  EXPECT_EQ(pipeline_->train_stack.size(), 4u);  // X^(0..3)
  EXPECT_NE(pipeline_->gates, nullptr);
  EXPECT_NE(pipeline_->full_stationary, nullptr);
  const tensor::Matrix teacher = pipeline_->TeacherLogits();
  EXPECT_EQ(teacher.rows(), ds_->split.train_nodes.size());
  EXPECT_EQ(teacher.cols(), 6u);
}

TEST_F(HarnessTest, DefaultSettingsAreOrdered) {
  const auto settings =
      MakeDefaultSettings(*pipeline_, *ds_, core::NapKind::kDistance);
  ASSERT_EQ(settings.size(), 3u);
  // Speed-first has the shallowest window and the loosest threshold.
  EXPECT_LE(settings[0].config.t_max, settings[1].config.t_max);
  EXPECT_LE(settings[1].config.t_max, settings[2].config.t_max);
  EXPECT_GE(settings[0].config.threshold, settings[1].config.threshold);
  EXPECT_GE(settings[1].config.threshold, settings[2].config.threshold);
  EXPECT_EQ(settings[2].config.t_max, 3);
}

TEST_F(HarnessTest, RunVanillaProducesFullCoverage) {
  auto engine = MakeEngine(*pipeline_, *ds_);
  const MethodResult r =
      RunVanilla(*engine, *ds_, ds_->split.test_nodes, 100, "vanilla");
  EXPECT_EQ(r.predictions.size(), ds_->split.test_nodes.size());
  EXPECT_GT(r.row.mmacs_per_node, 0.0);
  EXPECT_GE(r.row.accuracy, 0.0f);
  // All exits at depth k for the vanilla run.
  EXPECT_EQ(r.stats.exits_at_depth.back(),
            static_cast<std::int64_t>(ds_->split.test_nodes.size()));
}

TEST_F(HarnessTest, RunNaiCostBelowVanilla) {
  auto engine = MakeEngine(*pipeline_, *ds_);
  const MethodResult vanilla =
      RunVanilla(*engine, *ds_, ds_->split.test_nodes, 100, "vanilla");
  const auto settings =
      MakeDefaultSettings(*pipeline_, *ds_, core::NapKind::kDistance);
  core::InferenceConfig cfg = settings[0].config;
  cfg.batch_size = 100;
  const MethodResult nai =
      RunNai(*engine, *ds_, ds_->split.test_nodes, cfg, "nai");
  EXPECT_LT(nai.stats.propagation_macs, vanilla.stats.propagation_macs);
}

TEST_F(HarnessTest, BaselineRunnersProduceRows) {
  const MethodResult glnn =
      RunGlnn(*pipeline_, *ds_, ds_->split.test_nodes, 2);
  EXPECT_EQ(glnn.row.method, "GLNN");
  EXPECT_EQ(glnn.predictions.size(), ds_->split.test_nodes.size());
  const MethodResult quant =
      RunQuantized(*pipeline_, *ds_, ds_->split.test_nodes, 100);
  EXPECT_EQ(quant.row.method, "Quantization");
  EXPECT_GT(quant.row.fp_mmacs_per_node, 0.0);
}

TEST_F(HarnessTest, RunNaiGateProducesFullCoverage) {
  // The NAPg path through the harness: every test node classified, exits
  // within the depth window.
  auto engine = MakeEngine(*pipeline_, *ds_);
  const auto settings =
      MakeDefaultSettings(*pipeline_, *ds_, core::NapKind::kGate);
  core::InferenceConfig cfg = settings[1].config;
  cfg.batch_size = 100;
  const MethodResult r =
      RunNai(*engine, *ds_, ds_->split.test_nodes, cfg, "napg");
  EXPECT_EQ(r.predictions.size(), ds_->split.test_nodes.size());
  std::int64_t exited = 0;
  for (const std::int64_t c : r.stats.exits_at_depth) exited += c;
  EXPECT_EQ(exited, static_cast<std::int64_t>(ds_->split.test_nodes.size()));
}

TEST_F(HarnessTest, MakeQosPolicyTableMirrorsDefaultSettings) {
  const auto settings =
      MakeDefaultSettings(*pipeline_, *ds_, core::NapKind::kDistance);
  const serve::QosPolicyTable table =
      MakeQosPolicyTable(*pipeline_, *ds_, core::NapKind::kDistance,
                         /*speed_deadline_ms=*/15.0,
                         /*accuracy_deadline_ms=*/150.0);
  const serve::QosPolicy& speed =
      table.For(serve::QosClass::kSpeedFirst);
  const serve::QosPolicy& accuracy =
      table.For(serve::QosClass::kAccuracyFirst);
  EXPECT_EQ(speed.config.t_max, settings.front().config.t_max);
  EXPECT_EQ(accuracy.config.t_max, settings.back().config.t_max);
  EXPECT_FLOAT_EQ(speed.config.threshold, settings.front().config.threshold);
  EXPECT_FLOAT_EQ(accuracy.config.threshold,
                  settings.back().config.threshold);
  EXPECT_FLOAT_EQ(speed.default_deadline_ms, 15.0);
  EXPECT_FLOAT_EQ(accuracy.default_deadline_ms, 150.0);
}

TEST_F(HarnessTest, RunServingClosedLoopServesEveryNodeBitExact) {
  auto sharded = MakeShardedEngine(*pipeline_, *ds_, 2);
  const serve::QosPolicyTable table =
      MakeQosPolicyTable(*pipeline_, *ds_, core::NapKind::kDistance);
  const core::InferenceResult ref_speed = sharded->Infer(
      ds_->split.test_nodes, table.For(serve::QosClass::kSpeedFirst).config);
  const core::InferenceResult ref_accuracy = sharded->Infer(
      ds_->split.test_nodes,
      table.For(serve::QosClass::kAccuracyFirst).config);

  serve::ServingEngine server(*sharded, table);
  ServingLoadConfig load;
  load.closed_loop_clients = 4;
  load.speed_first_fraction = 0.5;
  const ServingRunReport report =
      RunServing(server, ds_->split.test_nodes, load);

  ASSERT_EQ(report.predictions.size(), ds_->split.test_nodes.size());
  ASSERT_EQ(report.classes.size(), ds_->split.test_nodes.size());
  for (std::size_t i = 0; i < report.predictions.size(); ++i) {
    const core::InferenceResult& ref =
        report.classes[i] == serve::QosClass::kSpeedFirst ? ref_speed
                                                          : ref_accuracy;
    EXPECT_EQ(report.predictions[i], ref.predictions[i]) << "node " << i;
  }
  EXPECT_EQ(report.stats.completed,
            static_cast<std::int64_t>(ds_->split.test_nodes.size()));
  EXPECT_EQ(report.stats.rejected, 0);  // closed loop never sheds
  EXPECT_GT(report.achieved_qps, 0.0);
  // Both classes actually appeared (seeded mix at 0.5 over 100+ nodes).
  EXPECT_GT(report.stats.per_class[0].count, 0);
  EXPECT_GT(report.stats.per_class[1].count, 0);
}

/// Sets NAI_STORE for one scope and restores the caller's value after.
class ScopedNaiStore {
 public:
  explicit ScopedNaiStore(const char* value) {
    const char* saved = std::getenv("NAI_STORE");
    had_value_ = saved != nullptr;
    if (had_value_) saved_ = saved;
    ::setenv("NAI_STORE", value, 1);
  }
  ~ScopedNaiStore() {
    if (had_value_) {
      ::setenv("NAI_STORE", saved_.c_str(), 1);
    } else {
      ::unsetenv("NAI_STORE");
    }
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

TEST_F(HarnessTest, MakeShardedEngineServesFromMmapStore) {
  // NAI_STORE=mmap (the --store flag's env form) must reach the sharded
  // factory: the engine serves out of the mapping, bit-identical to the
  // in-memory run, and the front-end reports the backend it serves from.
  const serve::QosPolicyTable table =
      MakeQosPolicyTable(*pipeline_, *ds_, core::NapKind::kDistance);
  const std::vector<std::int32_t>& nodes = ds_->split.test_nodes;
  for (const int shards : {1, 2}) {
    std::unique_ptr<core::ShardedNaiEngine> mem;
    std::unique_ptr<core::ShardedNaiEngine> mapped;
    {
      ScopedNaiStore store("mem");
      mem = MakeShardedEngine(*pipeline_, *ds_, shards);
    }
    {
      ScopedNaiStore store("mmap");
      mapped = MakeShardedEngine(*pipeline_, *ds_, shards);
    }
    EXPECT_EQ(mem->PinState()->snapshot->backend(),
              storage::StoreBackend::kMem);
    EXPECT_EQ(mapped->PinState()->snapshot->backend(),
              storage::StoreBackend::kMmap)
        << "shards=" << shards;
    for (const serve::QosClass qos :
         {serve::QosClass::kSpeedFirst, serve::QosClass::kThroughputFirst,
          serve::QosClass::kAccuracyFirst}) {
      const core::InferenceConfig& cfg = table.For(qos).config;
      const core::InferenceResult want = mem->Infer(nodes, cfg);
      const core::InferenceResult got = mapped->Infer(nodes, cfg);
      EXPECT_EQ(got.predictions, want.predictions) << "shards=" << shards;
      EXPECT_EQ(got.exit_depths, want.exit_depths) << "shards=" << shards;
    }
    serve::ServingEngine server(*mapped, table);
    EXPECT_EQ(server.Stats().store_backend, "mmap") << "shards=" << shards;
  }
}

TEST_F(HarnessTest, RunServingOpenLoopPacesAndReportsOfferedLoad) {
  auto sharded = MakeShardedEngine(*pipeline_, *ds_, 2);
  const serve::QosPolicyTable table =
      MakeQosPolicyTable(*pipeline_, *ds_, core::NapKind::kDistance);
  serve::ServingEngine server(*sharded, table);

  // A modest rate over a small node list keeps the pass under a second
  // while still exercising the Poisson pacing + TrySubmit path.
  const std::vector<std::int32_t> nodes(ds_->split.test_nodes.begin(),
                                        ds_->split.test_nodes.begin() + 50);
  ServingLoadConfig load;
  load.arrival_rate_qps = 500.0;
  load.speed_first_fraction = 1.0;
  const ServingRunReport report = RunServing(server, nodes, load);

  EXPECT_FLOAT_EQ(report.offered_qps, 500.0);
  EXPECT_EQ(report.stats.completed + report.stats.rejected +
                report.stats.dropped,
            static_cast<std::int64_t>(nodes.size()));
  // Poisson pacing means the run takes at least in the order of n/rate.
  EXPECT_GT(report.duration_ms, 10.0);
}

TEST_F(HarnessTest, RunServingBurstyLoadStaysBitExact) {
  // The on/off bursts modulate the Poisson clock — that may not change a
  // prediction, and every request is still accounted for.
  auto sharded = MakeShardedEngine(*pipeline_, *ds_, 2);
  const serve::QosPolicyTable table =
      MakeQosPolicyTable(*pipeline_, *ds_, core::NapKind::kDistance);
  const core::InferenceResult ref_speed = sharded->Infer(
      ds_->split.test_nodes, table.For(serve::QosClass::kSpeedFirst).config);
  serve::ServingEngine server(*sharded, table);

  const std::vector<std::int32_t> nodes(ds_->split.test_nodes.begin(),
                                        ds_->split.test_nodes.begin() + 60);
  ServingLoadConfig load;
  load.arrival_rate_qps = 2000.0;
  load.speed_first_fraction = 1.0;
  load.burst_on_ms = 5.0;
  load.burst_off_ms = 5.0;
  const ServingRunReport report = RunServing(server, nodes, load);

  EXPECT_EQ(report.stats.completed + report.stats.rejected +
                report.stats.dropped,
            static_cast<std::int64_t>(nodes.size()));
  std::int64_t served = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (report.predictions[i] < 0) continue;  // shed under burst overload
    ++served;
    // predictions[i] answers nodes[i] (= test_nodes[i]).
    EXPECT_EQ(report.predictions[i], ref_speed.predictions[i])
        << "node index " << i;
  }
  EXPECT_EQ(served, report.stats.completed);
  // The off periods at least double the schedule relative to steady
  // arrivals at the same rate (60 requests at 2k q/s ≈ 30ms busy time).
  EXPECT_GT(report.duration_ms, 30.0);
}

TEST_F(HarnessTest, RunServingZipfLoadRepeatsHotNodesBitExact) {
  // Zipf sampling draws nodes with replacement, so hot nodes repeat and
  // report rows become request-aligned: request_indices[t] maps row t back
  // to its node. Every repeated answer must still be bit-exact.
  auto sharded = MakeShardedEngine(*pipeline_, *ds_, 2);
  const serve::QosPolicyTable table =
      MakeQosPolicyTable(*pipeline_, *ds_, core::NapKind::kDistance);
  const core::InferenceResult ref_speed = sharded->Infer(
      ds_->split.test_nodes, table.For(serve::QosClass::kSpeedFirst).config);
  serve::ServingEngine server(*sharded, table);

  const std::vector<std::int32_t> nodes(ds_->split.test_nodes.begin(),
                                        ds_->split.test_nodes.begin() + 60);
  ServingLoadConfig load;
  load.closed_loop_clients = 4;
  load.speed_first_fraction = 1.0;
  load.zipf_alpha = 1.0;
  load.num_requests = 3 * nodes.size();
  const ServingRunReport report = RunServing(server, nodes, load);

  ASSERT_EQ(report.request_indices.size(), load.num_requests);
  ASSERT_EQ(report.predictions.size(), load.num_requests);
  ASSERT_EQ(report.classes.size(), load.num_requests);
  std::vector<std::int64_t> draws(nodes.size(), 0);
  for (std::size_t t = 0; t < load.num_requests; ++t) {
    const std::size_t i = report.request_indices[t];
    ASSERT_LT(i, nodes.size()) << "request " << t;
    ++draws[i];
    EXPECT_EQ(report.predictions[t], ref_speed.predictions[i])
        << "request " << t << " node index " << i;
  }
  EXPECT_EQ(report.stats.completed,
            static_cast<std::int64_t>(load.num_requests));
  // Skew direction: at alpha=1 over 60 nodes the head third of the
  // caller's ordering must out-draw the tail third (expected ~2.9x; even
  // an unlucky seed clears a plain >).
  std::int64_t head = 0;
  std::int64_t tail = 0;
  for (std::size_t i = 0; i < 20; ++i) head += draws[i];
  for (std::size_t i = 40; i < 60; ++i) tail += draws[i];
  EXPECT_GT(head, tail);
}

TEST_F(HarnessTest, RunServingWithoutZipfReportsIdentityIndices) {
  // The request-aligned contract degrades to the historical node-aligned
  // one when Zipf is off: request_indices is the identity, so existing
  // consumers that index reports by node stay valid.
  auto sharded = MakeShardedEngine(*pipeline_, *ds_, 2);
  const serve::QosPolicyTable table =
      MakeQosPolicyTable(*pipeline_, *ds_, core::NapKind::kDistance);
  serve::ServingEngine server(*sharded, table);

  const std::vector<std::int32_t> nodes(ds_->split.test_nodes.begin(),
                                        ds_->split.test_nodes.begin() + 40);
  ServingLoadConfig load;
  load.closed_loop_clients = 4;
  const ServingRunReport report = RunServing(server, nodes, load);

  ASSERT_EQ(report.request_indices.size(), nodes.size());
  for (std::size_t t = 0; t < nodes.size(); ++t) {
    EXPECT_EQ(report.request_indices[t], t);
  }
}

}  // namespace
}  // namespace nai::eval
