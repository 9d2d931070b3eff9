// ServingEngine contract: QoS-config routing must be bit-exact against
// direct Infer calls (the serving stack may batch and interleave however it
// likes, but never change an answer), deadline misses and drops are
// accounted per class, shutdown is graceful for in-flight requests, and the
// stats snapshot is internally consistent. Runs under TSan in
// scripts/check.sh (client threads + shard pumps + shard pools).

#include "src/serve/serving_engine.h"

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/sharded_inference.h"
#include "src/graph/shard.h"
#include "tests/core/core_fixtures.h"

namespace nai::serve {
namespace {

using nai::testing::MakeSmallWorld;
using nai::testing::SmallWorld;

constexpr int kDepth = 3;

/// One trained world shared by every test (engines only borrow from it).
SmallWorld& World() {
  static SmallWorld w = MakeSmallWorld(kDepth);
  return w;
}

std::unique_ptr<core::ShardedNaiEngine> MakeSharded(int num_shards) {
  SmallWorld& w = World();
  auto engine = std::make_unique<core::ShardedNaiEngine>(
      nai::testing::MakeTestSnapshot(w),
      graph::MakeShards(w.data.graph, num_shards), *w.classifiers, nullptr);
  engine->AttachQuantizedClassifiers(w.quantized.get());
  return engine;
}

/// Speed-first: NAPd with a shallow cap; accuracy-first: fixed full depth
/// (NAP off), so the two classes provably produce different exit depths.
QosPolicyTable MakePolicies(double speed_deadline_ms = 1000.0,
                            double accuracy_deadline_ms = 1000.0) {
  QosPolicyTable table;
  QosPolicy& speed = table.For(QosClass::kSpeedFirst);
  speed.config.nap = core::NapKind::kDistance;
  speed.config.relative_distance = true;
  speed.config.threshold = 0.3f;
  speed.config.t_max = 2;
  speed.default_deadline_ms = speed_deadline_ms;
  QosPolicy& accuracy = table.For(QosClass::kAccuracyFirst);
  accuracy.config.nap = core::NapKind::kNone;
  accuracy.config.t_max = 0;  // full depth k
  accuracy.default_deadline_ms = accuracy_deadline_ms;
  return table;
}

TEST(ServingEngineTest, SingleClassBitExactVsDirectInfer) {
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  for (const QosClass qos :
       {QosClass::kSpeedFirst, QosClass::kAccuracyFirst}) {
    const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
    const core::InferenceResult ref =
        engine->Infer(w.all_nodes, policies.For(qos).config);

    ServingEngine server(*engine, policies);
    std::vector<std::future<Response>> futures;
    futures.reserve(w.all_nodes.size());
    for (const std::int32_t node : w.all_nodes) {
      futures.push_back(server.Submit(node, qos));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Response r = futures[i].get();
      EXPECT_TRUE(r.served);
      EXPECT_EQ(r.qos, qos);
      EXPECT_EQ(r.prediction, ref.predictions[i]) << "node " << i;
      EXPECT_EQ(r.exit_depth, ref.exit_depths[i]) << "node " << i;
    }
  }
}

TEST(ServingEngineTest, MixedClassesServedConcurrentlyAndBitExact) {
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  const core::InferenceResult ref_speed =
      engine->Infer(w.all_nodes, policies.For(QosClass::kSpeedFirst).config);
  const core::InferenceResult ref_accuracy = engine->Infer(
      w.all_nodes, policies.For(QosClass::kAccuracyFirst).config);

  ServingEngine server(*engine, policies);
  std::vector<std::future<Response>> futures;
  std::vector<QosClass> classes;
  for (std::size_t i = 0; i < w.all_nodes.size(); ++i) {
    classes.push_back(i % 2 == 0 ? QosClass::kSpeedFirst
                                 : QosClass::kAccuracyFirst);
    futures.push_back(server.Submit(w.all_nodes[i], classes.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    const core::InferenceResult& ref =
        classes[i] == QosClass::kSpeedFirst ? ref_speed : ref_accuracy;
    EXPECT_TRUE(r.served);
    EXPECT_EQ(r.prediction, ref.predictions[i]);
    EXPECT_EQ(r.exit_depth, ref.exit_depths[i]);
  }

  const ServingStatsSnapshot stats = server.Stats();
  const auto speed_idx = static_cast<std::size_t>(QosClass::kSpeedFirst);
  const auto acc_idx = static_cast<std::size_t>(QosClass::kAccuracyFirst);
  EXPECT_EQ(stats.per_class[speed_idx].count,
            static_cast<std::int64_t>((w.all_nodes.size() + 1) / 2));
  EXPECT_EQ(stats.per_class[acc_idx].count,
            static_cast<std::int64_t>(w.all_nodes.size() / 2));
  EXPECT_EQ(stats.completed,
            static_cast<std::int64_t>(w.all_nodes.size()));
}

TEST(ServingEngineTest, DeadlineMissesAccountedPerClass) {
  SmallWorld& w = World();
  // A deadline that has effectively passed at admission: every speed-first
  // request must complete (drop_expired is off) but be flagged missed.
  const QosPolicyTable policies =
      MakePolicies(/*speed_deadline_ms=*/1e-6, /*accuracy_deadline_ms=*/1e9);
  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  ServingEngine server(*engine, policies);

  constexpr std::size_t kSpeed = 20;
  constexpr std::size_t kAccuracy = 10;
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < kSpeed; ++i) {
    futures.push_back(
        server.Submit(w.all_nodes[i], QosClass::kSpeedFirst));
  }
  for (std::size_t i = 0; i < kAccuracy; ++i) {
    futures.push_back(
        server.Submit(w.all_nodes[kSpeed + i], QosClass::kAccuracyFirst));
  }
  std::size_t missed = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_TRUE(r.served);  // still answered, just late
    if (r.deadline_missed) ++missed;
  }
  EXPECT_EQ(missed, kSpeed);

  const ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.deadline_misses, static_cast<std::int64_t>(kSpeed));
  EXPECT_EQ(stats.per_class_misses[static_cast<std::size_t>(
                QosClass::kSpeedFirst)],
            static_cast<std::int64_t>(kSpeed));
  EXPECT_EQ(stats.per_class_misses[static_cast<std::size_t>(
                QosClass::kAccuracyFirst)],
            0);
  EXPECT_EQ(stats.dropped, 0);
}

TEST(ServingEngineTest, DropExpiredShedsInsteadOfServing) {
  SmallWorld& w = World();
  const QosPolicyTable policies =
      MakePolicies(/*speed_deadline_ms=*/1e-6, /*accuracy_deadline_ms=*/1e9);
  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  ServingOptions options;
  options.drop_expired = true;
  ServingEngine server(*engine, policies, options);

  constexpr std::size_t kCount = 25;
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < kCount; ++i) {
    futures.push_back(server.Submit(w.all_nodes[i], QosClass::kSpeedFirst));
  }
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_FALSE(r.served);
    EXPECT_TRUE(r.deadline_missed);
    EXPECT_EQ(r.prediction, -1);
  }
  const ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.dropped, static_cast<std::int64_t>(kCount));
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.deadline_misses, static_cast<std::int64_t>(kCount));
}

TEST(ServingEngineTest, GracefulShutdownServesEverythingInFlight) {
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  const core::InferenceResult ref =
      engine->Infer(w.all_nodes, policies.For(QosClass::kSpeedFirst).config);

  auto server = std::make_unique<ServingEngine>(*engine, policies);
  constexpr std::size_t kCount = 100;
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < kCount; ++i) {
    futures.push_back(server->Submit(w.all_nodes[i], QosClass::kSpeedFirst));
  }
  // Shut down with the queues still full: every admitted request must be
  // served before the pumps exit.
  server->Shutdown();
  for (std::size_t i = 0; i < kCount; ++i) {
    const Response r = futures[i].get();
    EXPECT_TRUE(r.served);
    EXPECT_EQ(r.prediction, ref.predictions[i]);
  }
  EXPECT_EQ(server->Stats().completed, static_cast<std::int64_t>(kCount));
  EXPECT_EQ(server->Stats().queue_depth, 0u);
  server.reset();  // double shutdown via destructor must be a no-op
}

TEST(ServingEngineTest, SubmissionAfterShutdownIsRejected) {
  SmallWorld& w = World();
  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  ServingEngine server(*engine, MakePolicies());
  server.Shutdown();

  std::future<Response> fut =
      server.Submit(w.all_nodes[0], QosClass::kSpeedFirst);
  const Response r = fut.get();  // immediately ready
  EXPECT_FALSE(r.served);
  EXPECT_FALSE(
      server.TrySubmit(w.all_nodes[1], QosClass::kAccuracyFirst).has_value());
  std::atomic<int> callbacks{0};
  EXPECT_FALSE(server.SubmitWithCallback(
      w.all_nodes[2], QosClass::kSpeedFirst,
      [&](const Response& resp) {
        EXPECT_FALSE(resp.served);
        callbacks.fetch_add(1);
      }));
  EXPECT_EQ(callbacks.load(), 1);
  EXPECT_EQ(server.Stats().rejected, 3);
}

TEST(ServingEngineTest, CallbackCompletionMatchesDirectInfer) {
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  const core::InferenceResult ref =
      engine->Infer(w.all_nodes, policies.For(QosClass::kSpeedFirst).config);
  ServingEngine server(*engine, policies);

  constexpr std::size_t kCount = 32;
  std::vector<std::promise<Response>> done(kCount);
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < kCount; ++i) {
    futures.push_back(done[i].get_future());
    ASSERT_TRUE(server.SubmitWithCallback(
        w.all_nodes[i], QosClass::kSpeedFirst,
        [&done, i](const Response& r) { done[i].set_value(r); }));
  }
  for (std::size_t i = 0; i < kCount; ++i) {
    const Response r = futures[i].get();
    EXPECT_TRUE(r.served);
    EXPECT_EQ(r.prediction, ref.predictions[i]);
  }
}

TEST(ServingEngineTest, OutOfRangeNodeThrowsAtAdmission) {
  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  ServingEngine server(*engine, MakePolicies());
  EXPECT_THROW(server.Submit(-1, QosClass::kSpeedFirst), std::out_of_range);
  EXPECT_THROW(
      server.Submit(static_cast<std::int32_t>(World().all_nodes.size()),
                    QosClass::kSpeedFirst),
      std::out_of_range);
}

TEST(ServingEngineTest, StatsSnapshotInternallyConsistent) {
  SmallWorld& w = World();
  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  ServingEngine server(*engine, MakePolicies());
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < w.all_nodes.size(); ++i) {
    futures.push_back(server.Submit(
        w.all_nodes[i], i % 3 == 0 ? QosClass::kAccuracyFirst
                                   : QosClass::kSpeedFirst));
  }
  for (auto& f : futures) f.get();
  const ServingStatsSnapshot stats = server.Stats();

  EXPECT_EQ(stats.submitted,
            static_cast<std::int64_t>(w.all_nodes.size()));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_LE(stats.latency.p50_ms, stats.latency.p95_ms);
  EXPECT_LE(stats.latency.p95_ms, stats.latency.p99_ms);
  EXPECT_LE(stats.latency.p99_ms, stats.latency.max_ms);
  EXPECT_GT(stats.latency.mean_ms, 0.0);

  // The batch-size histogram is the engine-call log: counts sum to
  // num_batches, sizes sum to every completed request.
  std::int64_t batches = 0;
  std::int64_t requests = 0;
  for (std::size_t s = 0; s < stats.batch_size_hist.size(); ++s) {
    batches += stats.batch_size_hist[s];
    requests += static_cast<std::int64_t>(s + 1) * stats.batch_size_hist[s];
  }
  EXPECT_EQ(batches, stats.num_batches);
  EXPECT_EQ(requests, stats.completed);
  // Engine counters followed the same requests.
  EXPECT_EQ(stats.engine_stats.num_nodes, stats.completed);
  EXPECT_GT(stats.engine_stats.total_macs(), 0);
}

TEST(ServingEngineTest, DegenerateOptionsThrowFromConstructor) {
  // A bad queue capacity or batcher config must throw on the caller's
  // thread, never abort a pump thread mid-spawn.
  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  ServingOptions zero_queue;
  zero_queue.queue_capacity = 0;
  EXPECT_THROW(ServingEngine(*engine, MakePolicies(), zero_queue),
               std::invalid_argument);
  ServingOptions zero_batch;
  zero_batch.batcher.max_batch = 0;
  EXPECT_THROW(ServingEngine(*engine, MakePolicies(), zero_batch),
               std::invalid_argument);
  ServingOptions negative_wait;
  negative_wait.batcher.max_wait_us = -1;
  EXPECT_THROW(ServingEngine(*engine, MakePolicies(), negative_wait),
               std::invalid_argument);
}

TEST(ServingEngineTest, DefaultQosPolicyTableShapesAndServes) {
  // The structure-only fallback table: speed-first caps the depth at
  // min(2, k) with the permissive threshold, accuracy-first runs the full
  // bank under a stricter one, throughput-first is the speed shape with the
  // INT8 classifier and a nonzero accuracy budget, and the result serves
  // bit-exactly.
  const QosPolicyTable k1 = DefaultQosPolicyTable(1);
  EXPECT_EQ(k1.For(QosClass::kSpeedFirst).config.t_max, 1);
  EXPECT_EQ(k1.For(QosClass::kAccuracyFirst).config.t_min, 1);

  SmallWorld& w = World();
  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  const QosPolicyTable table = DefaultQosPolicyTable(engine->depth());
  EXPECT_EQ(table.For(QosClass::kSpeedFirst).config.t_max, 2);
  EXPECT_EQ(table.For(QosClass::kAccuracyFirst).config.t_max, 0);  // = k
  EXPECT_LT(table.For(QosClass::kAccuracyFirst).config.threshold,
            table.For(QosClass::kSpeedFirst).config.threshold);
  EXPECT_LT(table.For(QosClass::kSpeedFirst).default_deadline_ms,
            table.For(QosClass::kAccuracyFirst).default_deadline_ms);
  const QosPolicy& throughput = table.For(QosClass::kThroughputFirst);
  EXPECT_TRUE(throughput.config.int8_classifier);
  EXPECT_EQ(throughput.config.t_max,
            table.For(QosClass::kSpeedFirst).config.t_max);
  EXPECT_GT(throughput.accuracy_delta_budget, 0.0);
  EXPECT_EQ(table.For(QosClass::kSpeedFirst).accuracy_delta_budget, 0.0);
  EXPECT_EQ(table.For(QosClass::kAccuracyFirst).accuracy_delta_budget, 0.0);

  const core::InferenceResult ref =
      engine->Infer(w.all_nodes, table.For(QosClass::kSpeedFirst).config);
  ServingEngine server(*engine, table);
  std::vector<std::future<Response>> futures;
  for (const std::int32_t node : w.all_nodes) {
    futures.push_back(server.Submit(node, QosClass::kSpeedFirst));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().prediction, ref.predictions[i]);
  }
}

TEST(ServingEngineTest, Int8PolicyRejectedWithoutQuantizedStack) {
  // A table carrying the INT8 throughput class must be refused at
  // front-end construction when the engine has no quantized bank attached
  // — not discovered on the first throughput-first request.
  SmallWorld& w = World();
  core::ShardedNaiEngine bare = nai::testing::MakeTestShardedEngine(w, 2);
  EXPECT_THROW(ServingEngine(bare, DefaultQosPolicyTable(kDepth)),
               std::invalid_argument);
  // Float-only tables keep working on the same bare engine.
  ServingEngine server(bare, MakePolicies());
  EXPECT_TRUE(server.Submit(w.all_nodes[0], QosClass::kSpeedFirst)
                  .get()
                  .served);
}

TEST(ServingEngineTest, ThroughputFirstCoBatchedBitExactAcrossClasses) {
  // All three classes interleaved through one front-end: every answer must
  // equal the direct InferMixed-style reference of its class's config, and
  // the per-class stats must account each stream separately.
  SmallWorld& w = World();
  QosPolicyTable policies = MakePolicies();
  QosPolicy& throughput = policies.For(QosClass::kThroughputFirst);
  throughput.config = policies.For(QosClass::kSpeedFirst).config;
  throughput.config.int8_classifier = true;
  throughput.default_deadline_ms = 1000.0;
  throughput.accuracy_delta_budget = 0.05;

  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  const core::InferenceResult ref_speed =
      engine->Infer(w.all_nodes, policies.For(QosClass::kSpeedFirst).config);
  const core::InferenceResult ref_accuracy = engine->Infer(
      w.all_nodes, policies.For(QosClass::kAccuracyFirst).config);
  const core::InferenceResult ref_throughput =
      engine->Infer(w.all_nodes, throughput.config);

  ServingEngine server(*engine, policies);
  const QosClass cycle[] = {QosClass::kSpeedFirst, QosClass::kThroughputFirst,
                            QosClass::kAccuracyFirst};
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < w.all_nodes.size(); ++i) {
    futures.push_back(server.Submit(w.all_nodes[i], cycle[i % 3]));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    const core::InferenceResult& ref = i % 3 == 0   ? ref_speed
                                       : i % 3 == 1 ? ref_throughput
                                                    : ref_accuracy;
    EXPECT_TRUE(r.served);
    EXPECT_EQ(r.qos, cycle[i % 3]);
    EXPECT_EQ(r.prediction, ref.predictions[i]) << "node " << i;
    EXPECT_EQ(r.exit_depth, ref.exit_depths[i]) << "node " << i;
  }
  const ServingStatsSnapshot stats = server.Stats();
  const std::size_t n = w.all_nodes.size();
  EXPECT_EQ(stats.per_class[static_cast<std::size_t>(
                QosClass::kThroughputFirst)]
                .count,
            static_cast<std::int64_t>(n / 3 + (n % 3 >= 2 ? 1 : 0)));
  EXPECT_EQ(stats.completed, static_cast<std::int64_t>(n));
}

TEST(ServingEngineTest, ThroughputFirstStaysWithinAccuracyDeltaBudget) {
  // The serving exactness gate's per-class contract: the INT8 class may
  // disagree with its float twin (same config, int8_classifier cleared) on
  // at most accuracy_delta_budget of predictions; float classes on none.
  SmallWorld& w = World();
  QosPolicyTable policies = MakePolicies();
  QosPolicy& throughput = policies.For(QosClass::kThroughputFirst);
  throughput.config = policies.For(QosClass::kSpeedFirst).config;
  throughput.config.int8_classifier = true;
  throughput.default_deadline_ms = 1000.0;
  throughput.accuracy_delta_budget = 0.05;

  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  core::InferenceConfig float_twin = throughput.config;
  float_twin.int8_classifier = false;
  const core::InferenceResult twin = engine->Infer(w.all_nodes, float_twin);

  ServingEngine server(*engine, policies);
  std::vector<std::future<Response>> futures;
  for (const std::int32_t node : w.all_nodes) {
    futures.push_back(server.Submit(node, QosClass::kThroughputFirst));
  }
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    EXPECT_TRUE(r.served);
    if (r.prediction != twin.predictions[i]) ++flipped;
  }
  EXPECT_LE(static_cast<double>(flipped),
            throughput.accuracy_delta_budget *
                static_cast<double>(w.all_nodes.size()))
      << flipped << " of " << w.all_nodes.size()
      << " predictions differ from the float twin";
}

TEST(ServingEngineTest, EngineErrorCompletesBatchUnservedAndKeepsServing) {
  // An engine exception fails its batch, not the server. Detaching the
  // INT8 bank after construction makes every throughput-first batch throw
  // inside a pump: each future must still resolve, unserved and counted,
  // and once the bank is back the same pumps must serve bit-exactly.
  SmallWorld& w = World();
  QosPolicyTable policies = MakePolicies();
  QosPolicy& throughput = policies.For(QosClass::kThroughputFirst);
  throughput.config = policies.For(QosClass::kSpeedFirst).config;
  throughput.config.int8_classifier = true;
  throughput.default_deadline_ms = 1000.0;

  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(2);
  const core::InferenceResult ref =
      engine->Infer(w.all_nodes, throughput.config);
  ServingOptions options;
  options.cache.enabled = false;
  ServingEngine server(*engine, policies, options);
  engine->AttachQuantizedClassifiers(nullptr);

  const std::size_t failing = 16;
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < failing; ++i) {
    futures.push_back(
        server.Submit(w.all_nodes[i], QosClass::kThroughputFirst));
  }
  for (std::future<Response>& future : futures) {
    const Response r = future.get();
    EXPECT_FALSE(r.served);
    EXPECT_EQ(r.prediction, -1);
    EXPECT_EQ(r.qos, QosClass::kThroughputFirst);
  }
  ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.engine_errors, static_cast<std::int64_t>(failing));
  EXPECT_EQ(stats.completed, 0);

  engine->AttachQuantizedClassifiers(w.quantized.get());
  const std::int32_t node = w.all_nodes[failing];
  const Response r = server.Submit(node, QosClass::kThroughputFirst).get();
  ASSERT_TRUE(r.served);
  EXPECT_EQ(r.prediction, ref.predictions[failing]);
  EXPECT_EQ(r.exit_depth, ref.exit_depths[failing]);
  stats = server.Stats();
  EXPECT_EQ(stats.engine_errors, static_cast<std::int64_t>(failing));
  EXPECT_EQ(stats.completed, 1);
}

TEST(ServingEngineTest, SingleShardEngineIsServableToo) {
  // The front-end must not require real partitioning: one shard = one
  // queue + one pump over the whole graph.
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  const std::unique_ptr<core::ShardedNaiEngine> engine = MakeSharded(1);
  const core::InferenceResult ref = engine->Infer(
      w.all_nodes, policies.For(QosClass::kAccuracyFirst).config);
  ServingEngine server(*engine, policies);
  std::vector<std::future<Response>> futures;
  for (const std::int32_t node : w.all_nodes) {
    futures.push_back(server.Submit(node, QosClass::kAccuracyFirst));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().prediction, ref.predictions[i]);
  }
}

}  // namespace
}  // namespace nai::serve
