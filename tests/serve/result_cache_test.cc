// ResultCache contract: LRU eviction order, exact O(1) epoch invalidation
// (bump logically empties; in-flight fills for an older epoch are dropped),
// config-pointer keying — and, through the ServingEngine, the extended
// bit-exactness guarantee: a cache hit replays exactly the bits a cold
// Infer produces at the same epoch, any engine's fill makes the repeat a
// hit, and the hit path stays correct while clients, pumps and epoch
// bumps race. Runs under TSan in scripts/check.sh (the client hit path
// races the pump fill path by design).

#include "src/serve/result_cache.h"

#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/sharded_inference.h"
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

core::ShardedNaiEngine MakeSharded(int num_shards) {
  return nai::testing::MakeTestShardedEngine(World(), num_shards);
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

// ---------------------------------------------------------------------------
// Unit level: the cache data structure itself.
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, ZeroCapacityThrows) {
  EXPECT_THROW(ResultCache(0), std::invalid_argument);
}

TEST(ResultCacheTest, MissFillHitRoundTrip) {
  ResultCache cache(4);
  const core::InferenceConfig config;
  EXPECT_FALSE(cache.Lookup(7, &config).has_value());
  cache.Insert(7, &config, {3, 2}, cache.epoch());
  const std::optional<CachedResult> hit = cache.Lookup(7, &config);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->prediction, 3);
  EXPECT_EQ(hit->exit_depth, 2);
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.fills, 1);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_ratio, 0.5);
}

TEST(ResultCacheTest, ConfigPointerIdentityKeysDistinctEntries) {
  // Two configs with identical fields but different addresses are distinct
  // keys — the same conservative identity InferMixed groups by.
  ResultCache cache(4);
  const core::InferenceConfig a;
  const core::InferenceConfig b;
  cache.Insert(7, &a, {1, 1}, cache.epoch());
  EXPECT_FALSE(cache.Lookup(7, &b).has_value());
  cache.Insert(7, &b, {2, 3}, cache.epoch());
  EXPECT_EQ(cache.Lookup(7, &a)->prediction, 1);
  EXPECT_EQ(cache.Lookup(7, &b)->prediction, 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, CapacityEvictsInLruOrder) {
  ResultCache cache(3);
  const core::InferenceConfig config;
  cache.Insert(1, &config, {1, 0}, 0);
  cache.Insert(2, &config, {2, 0}, 0);
  cache.Insert(3, &config, {3, 0}, 0);
  // Touch node 1: node 2 becomes the LRU entry.
  ASSERT_TRUE(cache.Lookup(1, &config).has_value());
  cache.Insert(4, &config, {4, 0}, 0);  // at capacity: evicts node 2
  EXPECT_FALSE(cache.Lookup(2, &config).has_value());
  EXPECT_TRUE(cache.Lookup(1, &config).has_value());
  EXPECT_TRUE(cache.Lookup(3, &config).has_value());
  EXPECT_TRUE(cache.Lookup(4, &config).has_value());
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.size, 3u);
  // Refreshing a resident key must not evict or grow.
  cache.Insert(4, &config, {40, 1}, 0);
  EXPECT_EQ(cache.Stats().evictions, 1);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup(4, &config)->prediction, 40);
}

TEST(ResultCacheTest, BumpEpochLogicallyEmptiesWithoutTouchingEntries) {
  ResultCache cache(4);
  const core::InferenceConfig config;
  cache.Insert(1, &config, {1, 0}, 0);
  cache.Insert(2, &config, {2, 0}, 0);
  cache.BumpEpoch();
  EXPECT_EQ(cache.epoch(), 1u);
  // The bump itself is O(1): entries are still resident...
  EXPECT_EQ(cache.size(), 2u);
  // ...but logically gone: a lookup misses and lazily reclaims the slot.
  EXPECT_FALSE(cache.Lookup(1, &config).has_value());
  EXPECT_EQ(cache.size(), 1u);
  // A current-epoch refill under the same key serves again.
  cache.Insert(2, &config, {20, 1}, cache.epoch());
  EXPECT_EQ(cache.Lookup(2, &config)->prediction, 20);
}

TEST(ResultCacheTest, InFlightFillForAnOlderEpochIsDropped) {
  // The mid-flight contract: a miss captures the epoch, computes, then
  // fills. If the epoch moved while it computed, the fill must be dropped
  // — caching it would serve a logically invalidated answer forever.
  ResultCache cache(4);
  const core::InferenceConfig config;
  const std::uint64_t before = cache.epoch();
  cache.BumpEpoch();  // lands while the "engine call" is in flight
  cache.Insert(9, &config, {5, 1}, before);
  EXPECT_FALSE(cache.Lookup(9, &config).has_value());
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.stale_fills_dropped, 1);
  EXPECT_EQ(stats.fills, 0);
  EXPECT_EQ(stats.size, 0u);
}

// ---------------------------------------------------------------------------
// Engine level: the hit path through the serving front-end.
// ---------------------------------------------------------------------------

TEST(ResultCacheServingTest, WarmHitsReplayColdBitsExactly) {
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  core::ShardedNaiEngine engine = MakeSharded(2);
  const core::InferenceResult ref_speed =
      engine.Infer(w.all_nodes, policies.For(QosClass::kSpeedFirst).config);
  const core::InferenceResult ref_accuracy = engine.Infer(
      w.all_nodes, policies.For(QosClass::kAccuracyFirst).config);

  ServingEngine server(engine, policies);
  const std::int64_t n = static_cast<std::int64_t>(w.all_nodes.size());
  // Wave 1 (cold): every request misses and fills at batch completion.
  for (int wave = 0; wave < 2; ++wave) {
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
      EXPECT_EQ(r.prediction, ref.predictions[i])
          << "wave " << wave << " node " << i;
      EXPECT_EQ(r.exit_depth, ref.exit_depths[i])
          << "wave " << wave << " node " << i;
    }
  }

  // Wave 2 was fully warm: every one of its responses came from the cache.
  const ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.cache_hits, n);
  EXPECT_EQ(stats.completed, 2 * n);
  EXPECT_EQ(stats.submitted, 2 * n);
  EXPECT_DOUBLE_EQ(stats.cache_hit_ratio, 0.5);
  for (std::size_t c = 0; c < kNumQosClasses; ++c) {
    // The hit/miss split partitions each class's completions, and the
    // all-time counts stay separate from the percentile window sizes.
    EXPECT_EQ(stats.per_class_hit[c].count + stats.per_class_miss[c].count,
              stats.per_class[c].count);
    EXPECT_EQ(stats.per_class_hit[c].count, stats.per_class[c].count / 2);
    EXPECT_EQ(stats.per_class[c].window, stats.per_class[c].count);
  }
  EXPECT_EQ(stats.cache.fills, n);
}

TEST(ResultCacheServingTest, ThroughputClassKeysSeparatelyAndWarmsUp) {
  // The INT8 throughput class shares the speed class's traversal shape but
  // is a distinct QosPolicy object, so config-pointer keying must keep the
  // two populations apart: warming a node in float must not let the INT8
  // class cross-hit (or vice versa), while a repeat within the class hits
  // and replays the cold INT8 bits exactly.
  SmallWorld& w = World();
  QosPolicyTable policies = MakePolicies();
  QosPolicy& throughput = policies.For(QosClass::kThroughputFirst);
  throughput.config = policies.For(QosClass::kSpeedFirst).config;
  throughput.config.int8_classifier = true;
  throughput.default_deadline_ms = 1000.0;
  throughput.accuracy_delta_budget = 0.05;

  core::ShardedNaiEngine engine = MakeSharded(2);
  engine.AttachQuantizedClassifiers(World().quantized.get());
  const core::InferenceResult ref_int8 =
      engine.Infer(w.all_nodes, throughput.config);

  ServingEngine server(engine, policies);
  const std::int64_t n = static_cast<std::int64_t>(w.all_nodes.size());
  // Wave 1: warm every node in the float speed class.
  {
    std::vector<std::future<Response>> futures;
    for (const std::int32_t node : w.all_nodes) {
      futures.push_back(server.Submit(node, QosClass::kSpeedFirst));
    }
    for (auto& f : futures) EXPECT_TRUE(f.get().served);
  }
  EXPECT_EQ(server.Stats().cache_hits, 0);

  // Waves 2+3: the same nodes as throughput-first. Wave 2 must miss every
  // lookup (no float->int8 cross-hit); wave 3 is fully warm within the
  // class and replays wave 2's bits.
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::future<Response>> futures;
    for (const std::int32_t node : w.all_nodes) {
      futures.push_back(server.Submit(node, QosClass::kThroughputFirst));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Response r = futures[i].get();
      EXPECT_TRUE(r.served);
      EXPECT_EQ(r.prediction, ref_int8.predictions[i])
          << "wave " << wave << " node " << i;
      EXPECT_EQ(r.exit_depth, ref_int8.exit_depths[i])
          << "wave " << wave << " node " << i;
    }
  }
  const ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.cache_hits, n);  // wave 3 only
  EXPECT_EQ(stats.completed, 3 * n);
  const std::size_t tp = static_cast<std::size_t>(QosClass::kThroughputFirst);
  EXPECT_EQ(stats.per_class[tp].count, 2 * n);
  EXPECT_EQ(stats.per_class_hit[tp].count, n);
  EXPECT_EQ(stats.per_class_miss[tp].count, n);
}

TEST(ResultCacheServingTest, EpochBumpForcesRecomputeAndRefill) {
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  core::ShardedNaiEngine engine = MakeSharded(2);
  const core::InferenceResult ref =
      engine.Infer(w.all_nodes, policies.For(QosClass::kSpeedFirst).config);

  ServingEngine server(engine, policies);
  auto offer_all = [&] {
    std::vector<std::future<Response>> futures;
    for (const std::int32_t node : w.all_nodes) {
      futures.push_back(server.Submit(node, QosClass::kSpeedFirst));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Response r = futures[i].get();
      EXPECT_EQ(r.prediction, ref.predictions[i]) << "node " << i;
    }
  };
  const std::int64_t n = static_cast<std::int64_t>(w.all_nodes.size());
  offer_all();  // cold: fills
  offer_all();  // warm: hits
  ASSERT_EQ(server.Stats().cache_hits, n);

  server.BumpEpoch();
  offer_all();  // logically empty again: recompute + refill, same bits
  offer_all();  // warm at the new epoch
  const ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.cache_hits, 2 * n);
  EXPECT_EQ(stats.cache.epoch, 1u);
}

TEST(ResultCacheServingTest, DisabledCacheNeverHits) {
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  core::ShardedNaiEngine engine = MakeSharded(2);
  ServingOptions options;
  options.cache.enabled = false;
  ServingEngine server(engine, policies, options);
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::future<Response>> futures;
    for (std::size_t i = 0; i < 32; ++i) {
      futures.push_back(server.Submit(w.all_nodes[i], QosClass::kSpeedFirst));
    }
    for (auto& f : futures) EXPECT_TRUE(f.get().served);
  }
  const ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 0);
  EXPECT_EQ(stats.cache.fills, 0);
}

TEST(ResultCacheServingTest, DegenerateCapacityThrowsAtConstruction) {
  core::ShardedNaiEngine engine = MakeSharded(2);
  ServingOptions options;
  options.cache.capacity = 0;  // enabled + zero capacity is degenerate
  EXPECT_THROW(ServingEngine(engine, MakePolicies(), options),
               std::invalid_argument);
}

TEST(ResultCacheServingTest, AnyEnginesFillMakesTheRepeatAHit) {
  // All traffic targets the upper half of the node ids, and both engines
  // serve it from the one queue. Whichever engine computed an answer, its
  // fill lands in the one cache, so a repeat of the wave is answered
  // entirely from it.
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  core::ShardedNaiEngine engine = MakeSharded(2);
  const core::InferenceResult ref_speed =
      engine.Infer(w.all_nodes, policies.For(QosClass::kSpeedFirst).config);

  std::vector<std::int32_t> nodes;
  std::vector<std::size_t> pos;  // index into all_nodes / ref
  for (std::size_t i = w.all_nodes.size() / 2; i < w.all_nodes.size(); ++i) {
    nodes.push_back(w.all_nodes[i]);
    pos.push_back(i);
  }
  ASSERT_GT(nodes.size(), 50u);

  ServingOptions options;
  options.batcher.max_batch = 2;  // many small batches: a long backlog
  options.batcher.max_wait_us = 0;
  ServingEngine server(engine, policies, options);

  auto offer_wave = [&] {
    std::vector<std::future<Response>> futures;
    for (const std::int32_t node : nodes) {
      futures.push_back(server.Submit(node, QosClass::kSpeedFirst));
    }
    for (std::size_t j = 0; j < futures.size(); ++j) {
      const Response r = futures[j].get();
      EXPECT_TRUE(r.served);
      EXPECT_EQ(r.prediction, ref_speed.predictions[pos[j]]);
    }
  };

  // Which pump serves which batch is up to the OS scheduler, so re-offer
  // the wave until the trace shows both engines serving — bumping the
  // epoch in between so each wave misses and queues again (a warm wave
  // would be answered inline, reaching no engine).
  std::set<std::size_t> serving;  // engines that served the last wave
  int waves = 0;
  while (waves < 50) {
    const std::int64_t batches_before = server.Stats().num_batches;
    offer_wave();
    ++waves;
    // One trace event per batch: the wave's are the newest ones.
    const ServingStatsSnapshot stats = server.Stats();
    const std::size_t wave_batches =
        static_cast<std::size_t>(stats.num_batches - batches_before);
    ASSERT_LE(wave_batches, stats.adaptation_trace.size());
    serving.clear();
    for (std::size_t i = stats.adaptation_trace.size() - wave_batches;
         i < stats.adaptation_trace.size(); ++i) {
      serving.insert(stats.adaptation_trace[i].engine);
    }
    if (serving.size() == 2) break;
    server.BumpEpoch();
  }
  EXPECT_EQ(serving, (std::set<std::size_t>{0, 1}))
      << "one engine served all of " << waves << " waves";

  // The last wave's fills came from both engines; a repeat at the
  // unchanged epoch is answered entirely from the cache, bit-exactly.
  ServingStatsSnapshot stats = server.Stats();
  const std::int64_t hits_before = stats.cache_hits;
  const std::int64_t batches_before = stats.num_batches;
  offer_wave();
  stats = server.Stats();
  EXPECT_EQ(stats.cache_hits - hits_before,
            static_cast<std::int64_t>(nodes.size()));
  EXPECT_EQ(stats.num_batches, batches_before);
}

TEST(ResultCacheServingTest, ConcurrentEpochBumpsStayCorrect) {
  // The churn race TSan watches: client threads probe and submit, pump
  // threads fill, and a mutator thread bumps the epoch mid-flight. Every
  // response — cold, warm, or recomputed — must still carry the reference
  // bits, and fills computed under a superseded epoch must be dropped, not
  // resurrected (the per-request correctness check IS the assertion; the
  // drop counter is timing-dependent).
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  core::ShardedNaiEngine engine = MakeSharded(2);
  const core::InferenceResult ref =
      engine.Infer(w.all_nodes, policies.For(QosClass::kSpeedFirst).config);

  ServingEngine server(engine, policies);
  std::thread bumper([&server] {
    for (int b = 0; b < 200; ++b) {
      server.BumpEpoch();
      std::this_thread::yield();
    }
  });
  for (int wave = 0; wave < 4; ++wave) {
    std::vector<std::future<Response>> futures;
    for (const std::int32_t node : w.all_nodes) {
      futures.push_back(server.Submit(node, QosClass::kSpeedFirst));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Response r = futures[i].get();
      EXPECT_TRUE(r.served);
      EXPECT_EQ(r.prediction, ref.predictions[i])
          << "wave " << wave << " node " << i;
      EXPECT_EQ(r.exit_depth, ref.exit_depths[i])
          << "wave " << wave << " node " << i;
    }
  }
  bumper.join();
  const ServingStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.completed,
            4 * static_cast<std::int64_t>(w.all_nodes.size()));
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            stats.completed);  // every submission probed exactly once
}

}  // namespace
}  // namespace nai::serve
