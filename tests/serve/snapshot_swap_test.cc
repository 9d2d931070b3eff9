// ApplyDeltas contract of the serving front-end: after a swap every query —
// any shard count, either QoS class, cache on or off — answers
// bit-identically to a from-scratch engine on the merged graph; epochs are
// stamped into responses and the stats snapshot; and queries racing a swap
// stay safe (runs under TSan in scripts/check.sh).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/sharded_inference.h"
#include "src/graph/delta.h"
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
          base, graph::MakeShards(base->adj(), shards),
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
  core::ShardedNaiEngine engine(base, graph::MakeShards(base->adj(), 2),
                                *w.classifiers, nullptr);
  ServingEngine server(engine, MakePolicies());
  graph::GraphDelta bad;
  bad.AddEdge(0, static_cast<std::int32_t>(base->num_nodes()));
  EXPECT_THROW(server.ApplyDeltas(bad).get(), std::invalid_argument);
  // Serving state unchanged: still epoch 0, still answering.
  EXPECT_EQ(server.Stats().epoch, 0u);
  EXPECT_TRUE(server.Submit(3, QosClass::kSpeedFirst).get().served);
}

// An apply that arrives after Shutdown fails its future and leaves the
// engine alone: no ingest thread outlives the server, and no swap lands on
// a server that no longer serves.
TEST(SnapshotSwapTest, ApplyDeltasAfterShutdownFailsItsFuture) {
  SmallWorld& w = World();
  auto base = BaseSnapshot();
  core::ShardedNaiEngine engine(base, graph::MakeShards(base->adj(), 2),
                                *w.classifiers, nullptr);
  {
    ServingEngine server(engine, MakePolicies());
    server.Shutdown();
    EXPECT_THROW(server.ApplyDeltas(ChurnDelta(*base)).get(),
                 std::runtime_error);
    EXPECT_EQ(server.Stats().snapshot_swaps, 0);
  }  // destroying the server must not meet an unjoined thread
  EXPECT_EQ(engine.version(), 0u);
  EXPECT_EQ(engine.PinState()->snapshot, base);
}

// The serving epoch is stamped into the completion path and
// exposed in the stats snapshot, so staleness is measurable.
TEST(SnapshotSwapTest, EpochStampedInResponsesAndStats) {
  SmallWorld& w = World();
  auto base = BaseSnapshot();
  core::ShardedNaiEngine engine(base, graph::MakeShards(base->adj(), 2),
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

// Queries racing ApplyDeltas: client threads hammer Submit while several
// swaps land. Every response must be served and stamped with some epoch the
// engine actually passed through; stats stay consistent. (The interesting
// checking happens under TSan.)
TEST(SnapshotSwapTest, ConcurrentQueriesAcrossSwapsStaySafe) {
  SmallWorld& w = World();
  auto base = BaseSnapshot();
  core::ShardedNaiEngine engine(base, graph::MakeShards(base->adj(), 2),
                                *w.classifiers, nullptr);
  ServingEngine server(engine, MakePolicies());

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

// Shutdown under load: three clients keep submitting through all three
// entry points while an ApplyDeltas is in flight, and Shutdown lands from
// the main thread. Every outcome must be defined: each future resolves
// (served or refused), each callback fires exactly once, the apply either
// completes or fails its future, and the counters balance. Runs under
// TSan in scripts/check.sh.
TEST(SnapshotSwapTest, ShutdownUnderLoadResolvesEverything) {
  using namespace std::chrono_literals;
  SmallWorld& w = World();
  auto base = BaseSnapshot();
  core::ShardedNaiEngine engine(base, graph::MakeShards(base->adj(), 2),
                                *w.classifiers, nullptr);
  ServingEngine server(engine, MakePolicies());
  const auto num_nodes = static_cast<std::int32_t>(w.data.graph.num_nodes());

  constexpr int kMaxPerClient = 4000;
  std::atomic<int> attempts{0};
  std::atomic<bool> shut_down{false};
  std::vector<std::future<Response>> submit_futures;
  std::vector<std::future<Response>> try_futures;
  int try_refused = 0;
  std::vector<std::shared_ptr<std::atomic<int>>> fired;
  std::atomic<int> callbacks_served{0};
  int callbacks_refused = 0;

  // Each client submits until Shutdown has returned (or its cap), then
  // once more, which must be refused.
  auto client = [&](int c, const std::function<void(std::int32_t)>& submit) {
    std::int32_t v = 37 * (c + 1);
    for (int i = 0; i < kMaxPerClient && !shut_down.load(); ++i) {
      submit(v % num_nodes);
      attempts.fetch_add(1);
      v += 13;
    }
    while (!shut_down.load()) std::this_thread::yield();
    submit(v % num_nodes);
    attempts.fetch_add(1);
  };
  std::vector<std::thread> clients;
  clients.emplace_back(client, 0, [&](std::int32_t node) {
    submit_futures.push_back(server.Submit(node, QosClass::kSpeedFirst));
  });
  clients.emplace_back(client, 1, [&](std::int32_t node) {
    auto f = server.TrySubmit(node, QosClass::kAccuracyFirst);
    if (f.has_value()) {
      try_futures.push_back(std::move(*f));
    } else {
      ++try_refused;
    }
  });
  clients.emplace_back(client, 2, [&](std::int32_t node) {
    auto count = std::make_shared<std::atomic<int>>(0);
    fired.push_back(count);
    const bool accepted = server.SubmitWithCallback(
        node, QosClass::kSpeedFirst,
        [count, &callbacks_served](const Response& r) {
          count->fetch_add(1);
          if (r.served) callbacks_served.fetch_add(1);
        });
    if (!accepted) ++callbacks_refused;
  });

  while (attempts.load() < 300) std::this_thread::yield();
  std::future<DeltaApplyReport> apply =
      server.ApplyDeltas(ChurnDelta(*engine.PinState()->snapshot));
  server.Shutdown();
  shut_down.store(true);
  for (std::thread& t : clients) t.join();

  // The apply was accepted before Shutdown, so Shutdown joined it: its
  // future is ready and holds either the new version or an error.
  ASSERT_EQ(apply.wait_for(10s), std::future_status::ready);
  bool applied = false;
  try {
    applied = apply.get().version == 1u;
  } catch (const std::exception&) {
  }
  EXPECT_TRUE(applied || engine.version() == 0u);

  std::int64_t served = callbacks_served.load();
  std::int64_t unserved = try_refused;
  for (auto* futures : {&submit_futures, &try_futures}) {
    for (std::future<Response>& f : *futures) {
      ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
      (f.get().served ? served : unserved) += 1;
    }
  }
  for (const auto& count : fired) EXPECT_EQ(count->load(), 1);
  unserved += static_cast<std::int64_t>(fired.size()) - callbacks_served.load();
  EXPECT_EQ(served + unserved, attempts.load());
  // The last submission of every client came after Shutdown.
  EXPECT_GE(unserved, 3);

  // Accounting identity: every admitted request (cache hits included) is
  // either served, dropped as expired, or failed by the engine, and every
  // attempt is admitted or rejected.
  const ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.dropped + stats.engine_errors);
  EXPECT_EQ(stats.submitted + stats.rejected, attempts.load());
  EXPECT_EQ(stats.completed, served);
  EXPECT_EQ(stats.rejected + stats.dropped + stats.engine_errors, unserved);
}

}  // namespace
}  // namespace nai::serve
