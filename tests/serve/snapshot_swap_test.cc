// ApplyDeltas contract of the serving front-end: after a swap every query —
// any shard count, either QoS class, cache on or off — answers
// bit-identically to a from-scratch engine on the merged graph; epochs are
// stamped into responses and the stats snapshot; the steal-eligibility halo
// data is rebuilt when a delta changes shard halos; and queries racing a
// swap stay safe (runs under TSan in scripts/check.sh).

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/sharded_inference.h"
#include "src/graph/delta.h"
#include "src/graph/generators.h"
#include "src/graph/shard.h"
#include "src/serve/serving_engine.h"
#include "tests/core/core_fixtures.h"

namespace nai::serve {
namespace {

using nai::testing::MakeSmallWorld;
using nai::testing::SmallWorld;

constexpr int kDepth = 3;

SmallWorld& World() {
  static SmallWorld w = MakeSmallWorld(kDepth);
  return w;
}

std::shared_ptr<const graph::GraphSnapshot> BaseSnapshot() {
  return nai::testing::MakeTestSnapshot(World());
}

QosPolicyTable MakePolicies() {
  QosPolicyTable table;
  QosPolicy& speed = table.For(QosClass::kSpeedFirst);
  speed.config.nap = core::NapKind::kDistance;
  speed.config.relative_distance = true;
  speed.config.threshold = 0.3f;
  speed.config.t_max = 2;
  speed.default_deadline_ms = 1000.0;
  QosPolicy& accuracy = table.For(QosClass::kAccuracyFirst);
  accuracy.config.nap = core::NapKind::kNone;
  accuracy.config.t_max = 0;  // full depth k
  accuracy.default_deadline_ms = 1000.0;
  return table;
}

graph::GraphDelta ChurnDelta(const graph::GraphSnapshot& base) {
  const std::size_t f = base.features().cols();
  const std::int64_t n = base.graph().num_nodes();
  graph::GraphDelta delta;
  const std::int32_t a = delta.AddNode(std::vector<float>(f, 0.6f), n);
  const std::int32_t b = delta.AddNode(std::vector<float>(f, -0.2f), n);
  delta.AddEdge(a, 7);
  delta.AddEdge(b, 120);
  delta.AddEdge(a, b);
  delta.AddEdge(15, 301);
  delta.UpdateFeatures(64, std::vector<float>(f, 2.0f));
  return delta;
}

// The PR's acceptance gate: after ApplyDeltas + swap, every query matches a
// from-scratch engine on the merged graph — per shard count, per QoS class,
// cache on and off.
TEST(SnapshotSwapTest, ApplyDeltasBitExactAcrossShardsQosAndCache) {
  SmallWorld& w = World();
  auto base = BaseSnapshot();
  const graph::GraphDelta delta = ChurnDelta(*base);
  const QosPolicyTable policies = MakePolicies();

  const auto merged = graph::MergeFromScratch(*base, {delta});
  core::NaiEngine reference =
      core::NaiEngine::FromSnapshot(merged, *w.classifiers);
  std::vector<std::int32_t> all_merged(merged->num_nodes());
  for (std::size_t i = 0; i < all_merged.size(); ++i) {
    all_merged[i] = static_cast<std::int32_t>(i);
  }

  for (const int shards : {1, 2, 4}) {
    for (const bool cache_on : {false, true}) {
      core::ShardedNaiEngine engine(
          base, graph::MakeShards(base->adj(), shards, kDepth),
          *w.classifiers, nullptr);
      ServingOptions options;
      options.cache.enabled = cache_on;
      ServingEngine server(engine, policies, options);

      // Warm the pre-swap state (and, when enabled, the cache) so the swap
      // has something to invalidate.
      for (std::int32_t v = 0; v < 50; ++v) {
        ASSERT_TRUE(server.Submit(v, QosClass::kSpeedFirst).get().served);
      }

      const DeltaApplyReport applied = server.ApplyDeltas(delta).get();
      EXPECT_EQ(applied.version, 1u);
      EXPECT_EQ(applied.build.new_nodes, 2);

      for (const QosClass qos :
           {QosClass::kSpeedFirst, QosClass::kAccuracyFirst}) {
        const core::InferenceResult want =
            reference.Infer(all_merged, policies.For(qos).config);
        std::vector<std::future<Response>> futures;
        futures.reserve(all_merged.size());
        for (const std::int32_t v : all_merged) {
          futures.push_back(server.Submit(v, qos));
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
          const Response r = futures[i].get();
          ASSERT_TRUE(r.served);
          EXPECT_EQ(r.prediction, want.predictions[i])
              << "shards=" << shards << " cache=" << cache_on << " node "
              << i;
          EXPECT_EQ(r.exit_depth, want.exit_depths[i])
              << "shards=" << shards << " cache=" << cache_on << " node "
              << i;
          // Post-swap answers — engine-served or cache-replayed — all carry
          // the new graph version.
          EXPECT_EQ(r.epoch, 1u);
        }
      }
      server.Shutdown();
      const ServingStatsSnapshot stats = server.Stats();
      EXPECT_EQ(stats.epoch, 1u);
      EXPECT_EQ(stats.snapshot_swaps, 1);
    }
  }
}

TEST(SnapshotSwapTest, InvalidDeltaSurfacesThroughFutureAndKeepsServing) {
  SmallWorld& w = World();
  auto base = BaseSnapshot();
  core::ShardedNaiEngine engine(base,
                                graph::MakeShards(base->adj(), 2, kDepth),
                                *w.classifiers, nullptr);
  ServingEngine server(engine, MakePolicies());
  graph::GraphDelta bad;
  bad.AddEdge(0, static_cast<std::int32_t>(base->num_nodes()));
  EXPECT_THROW(server.ApplyDeltas(bad).get(), std::invalid_argument);
  // Serving state unchanged: still epoch 0, still answering.
  EXPECT_EQ(server.Stats().epoch, 0u);
  EXPECT_TRUE(server.Submit(3, QosClass::kSpeedFirst).get().served);
}

// Satellite 1: the serving epoch is stamped into the completion path and
// exposed in the stats snapshot, so staleness is measurable.
TEST(SnapshotSwapTest, EpochStampedInResponsesAndStats) {
  SmallWorld& w = World();
  auto base = BaseSnapshot();
  core::ShardedNaiEngine engine(base,
                                graph::MakeShards(base->adj(), 2, kDepth),
                                *w.classifiers, nullptr);
  ServingEngine server(engine, MakePolicies());

  EXPECT_EQ(server.Submit(11, QosClass::kSpeedFirst).get().epoch, 0u);
  EXPECT_EQ(server.Stats().epoch, 0u);
  EXPECT_EQ(server.Stats().snapshot_swaps, 0);

  server.ApplyDeltas(ChurnDelta(*base)).get();
  EXPECT_EQ(server.Submit(11, QosClass::kSpeedFirst).get().epoch, 1u);
  const ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.snapshot_swaps, 1);
  EXPECT_GE(stats.stale_served, 0);
}

// Satellite 2: the halo-depth BFS behind CanServeFromShard is rebuilt when
// a swap changes shard halos. On a 10-path split [0..4 | 5..9] with a
// 2-hop halo, node 2 is outside shard 1's halo until the inserted edge
// {7, 2} pulls it to halo depth 1 — steal-eligible for a 1-hop config.
TEST(SnapshotSwapTest, HaloDepthsRecomputedAfterSwapChangesHalos) {
  graph::Graph path = graph::PathGraph(10);
  tensor::Matrix feats(10, World().config.feature_dim);
  for (std::size_t i = 0; i < feats.rows() * feats.cols(); ++i) {
    feats.data()[i] = 0.01f * static_cast<float>(i);
  }
  auto base = graph::MakeSnapshot(std::move(path), std::move(feats),
                                  World().config.gamma);
  std::vector<std::int32_t> owner = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  core::ShardedNaiEngine engine(
      base, graph::MakeShards(base->adj(), owner, /*halo=*/2),
      *World().classifiers, nullptr, /*use_stationary=*/false);

  core::InferenceConfig cfg;
  cfg.t_max = 1;
  EXPECT_TRUE(engine.CanServeFromShard(1, 4, cfg));   // depth 1 in halo
  EXPECT_FALSE(engine.CanServeFromShard(1, 3, cfg));  // depth 2: row inexact
  EXPECT_FALSE(engine.CanServeFromShard(1, 2, cfg));  // outside the halo

  const auto pinned = engine.PinState();
  graph::GraphDelta delta;
  delta.AddEdge(7, 2);
  graph::SnapshotBuilder builder(base);
  engine.SwapSnapshot(builder.Apply(delta));

  // New halo: 2 is adjacent to owned node 7 -> depth 1, eligible; 1 and 3
  // land at depth 2 (still too shallow for an exact 1-hop BFS).
  EXPECT_TRUE(engine.CanServeFromShard(1, 2, cfg));
  EXPECT_FALSE(engine.CanServeFromShard(1, 1, cfg));
  EXPECT_FALSE(engine.CanServeFromShard(1, 3, cfg));
  // The pinned pre-swap state still answers with the old halo — the state
  // overload is what keeps an in-flight steal check consistent.
  EXPECT_FALSE(engine.CanServeFromShard(*pinned, 1, 2, cfg));
}

// Queries racing ApplyDeltas: client threads hammer Submit while several
// swaps land. Every response must be served and stamped with some epoch the
// engine actually passed through; stats stay consistent. (The interesting
// checking happens under TSan.)
TEST(SnapshotSwapTest, ConcurrentQueriesAcrossSwapsStaySafe) {
  SmallWorld& w = World();
  auto base = BaseSnapshot();
  core::ShardedNaiEngine engine(base,
                                graph::MakeShards(base->adj(), 2, kDepth),
                                *w.classifiers, nullptr);
  ServingOptions options;
  options.scheduler.stealing = true;
  ServingEngine server(engine, MakePolicies(), options);

  constexpr int kSwaps = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::int32_t v = 37 * (c + 1);
      while (!stop.load(std::memory_order_acquire)) {
        const Response r =
            server
                .Submit(v % static_cast<std::int32_t>(
                                w.data.graph.num_nodes()),
                        c % 2 == 0 ? QosClass::kSpeedFirst
                                   : QosClass::kAccuracyFirst)
                .get();
        ASSERT_TRUE(r.served);
        ASSERT_LE(r.epoch, static_cast<std::uint64_t>(kSwaps));
        served.fetch_add(1, std::memory_order_relaxed);
        v += 13;
      }
    });
  }

  std::shared_ptr<const graph::GraphSnapshot> current = base;
  for (int d = 0; d < kSwaps; ++d) {
    const DeltaApplyReport applied =
        server.ApplyDeltas(ChurnDelta(*engine.PinState()->snapshot)).get();
    EXPECT_EQ(applied.version, static_cast<std::uint64_t>(d + 1));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  server.Shutdown();
  const ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.epoch, static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(stats.snapshot_swaps, kSwaps);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(stats.rejected, 0);
}

}  // namespace
}  // namespace nai::serve
