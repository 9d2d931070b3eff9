// Adaptive-scheduler suite: priority bypass ordering and its aging bound
// at the queue, the admission controller's window rule and shed
// accounting, and end-to-end serving of a load confined to one shard's id
// range — which every engine draining the one queue must serve
// bit-identically to direct Infer, with the scheduler on or off. Runs
// under TSan in scripts/check.sh (pumps and client threads all contend
// here).

#include "src/serve/scheduler.h"

#include <chrono>
#include <future>
#include <set>
#include <stdexcept>
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

Request MakeQueued(std::int64_t id, QosClass qos,
                   ServeClock::time_point admitted) {
  Request r;
  r.id = id;
  r.node = static_cast<std::int32_t>(id);
  r.qos = qos;
  r.admitted = admitted;
  return r;
}

// --- Queue discipline ------------------------------------------------------

TEST(SchedulerQueueTest, SpeedFirstBypassesQueuedAccuracyWork) {
  // Large aging bound = pure priority: speed-first requests admitted later
  // still pop before every queued accuracy-first request.
  RequestQueue q(16, QueuePolicy{true, /*aging_us=*/60'000'000});
  const ServeClock::time_point now = ServeClock::now();
  ASSERT_TRUE(q.TryPush(MakeQueued(0, QosClass::kAccuracyFirst, now)));
  ASSERT_TRUE(q.TryPush(MakeQueued(1, QosClass::kAccuracyFirst, now)));
  ASSERT_TRUE(q.TryPush(MakeQueued(2, QosClass::kSpeedFirst, now)));
  ASSERT_TRUE(q.TryPush(MakeQueued(3, QosClass::kSpeedFirst, now)));
  std::vector<std::int64_t> order;
  for (int i = 0; i < 4; ++i) order.push_back(q.Pop()->id);
  EXPECT_EQ(order, (std::vector<std::int64_t>{2, 3, 0, 1}));
}

TEST(SchedulerQueueTest, PriorityOffIsGlobalFifo) {
  RequestQueue q(16, QueuePolicy{false, 0});
  const ServeClock::time_point now = ServeClock::now();
  ASSERT_TRUE(q.TryPush(MakeQueued(0, QosClass::kAccuracyFirst, now)));
  ASSERT_TRUE(q.TryPush(MakeQueued(1, QosClass::kSpeedFirst, now)));
  ASSERT_TRUE(q.TryPush(MakeQueued(2, QosClass::kAccuracyFirst, now)));
  ASSERT_TRUE(q.TryPush(MakeQueued(3, QosClass::kSpeedFirst, now)));
  for (std::int64_t want = 0; want < 4; ++want) {
    EXPECT_EQ(q.Pop()->id, want);
  }
}

TEST(SchedulerQueueTest, ZeroAgingDegeneratesToFifo) {
  // aging_us = 0: the accuracy head is always "aged", so seniority wins
  // every contest and the discipline is plain arrival order.
  RequestQueue q(16, QueuePolicy{true, 0});
  const ServeClock::time_point now = ServeClock::now();
  ASSERT_TRUE(q.TryPush(MakeQueued(0, QosClass::kAccuracyFirst, now)));
  ASSERT_TRUE(q.TryPush(MakeQueued(1, QosClass::kSpeedFirst, now)));
  ASSERT_TRUE(q.TryPush(MakeQueued(2, QosClass::kSpeedFirst, now)));
  EXPECT_EQ(q.Pop()->id, 0);
  EXPECT_EQ(q.Pop()->id, 1);
}

TEST(SchedulerQueueTest, AgedAccuracyHeadCannotBeStarved) {
  // An accuracy-first request that has already waited past the aging
  // bound outranks fresh speed-first arrivals — the no-starvation bound.
  RequestQueue q(16, QueuePolicy{true, /*aging_us=*/1000});
  const ServeClock::time_point now = ServeClock::now();
  ASSERT_TRUE(q.TryPush(MakeQueued(0, QosClass::kAccuracyFirst,
                                   now - std::chrono::milliseconds(10))));
  ASSERT_TRUE(q.TryPush(MakeQueued(1, QosClass::kSpeedFirst, now)));
  EXPECT_EQ(q.Pop()->id, 0);  // aged head wins despite lower class
  EXPECT_EQ(q.Pop()->id, 1);

  // Fresh accuracy head (age < bound): speed bypasses it.
  ASSERT_TRUE(q.TryPush(MakeQueued(2, QosClass::kAccuracyFirst,
                                   ServeClock::now())));
  ASSERT_TRUE(q.TryPush(MakeQueued(3, QosClass::kSpeedFirst,
                                   ServeClock::now())));
  EXPECT_EQ(q.Pop()->id, 3);
  EXPECT_EQ(q.Pop()->id, 2);
}

TEST(SchedulerQueueTest, NegativeAgingThrows) {
  EXPECT_THROW(RequestQueue(4, QueuePolicy{true, -1}),
               std::invalid_argument);
}

// --- Admission controller --------------------------------------------------

TEST(AdmissionControllerTest, AdaptWaitUsFollowsTheFillTimeRule) {
  // Unknown rate: keep the configured base window (clamped to the bounds).
  EXPECT_EQ(AdmissionController::AdaptWaitUs(0.0, 64, 200, 0, 2000), 200);
  EXPECT_EQ(AdmissionController::AdaptWaitUs(0.0, 64, 9999, 0, 2000), 2000);
  // Arrivals sparser than the longest permissible window: holding a batch
  // open buys nothing, collapse to the minimum.
  EXPECT_EQ(AdmissionController::AdaptWaitUs(10.0, 64, 200, 50, 2000), 50);
  // Mid rate: the expected batch-fill time, clamped into the bounds.
  // 10k q/s -> 100us gaps; 8-batch fill = 700us.
  EXPECT_EQ(AdmissionController::AdaptWaitUs(10'000.0, 8, 200, 0, 2000),
            700);
  EXPECT_EQ(AdmissionController::AdaptWaitUs(1'000.0, 64, 200, 0, 2000),
            2000);  // fill time 63ms clamps to the upper bound
  // Saturating rate: the batch fills almost instantly, window irrelevant
  // but still well-formed.
  EXPECT_EQ(AdmissionController::AdaptWaitUs(1e9, 64, 200, 25, 2000), 25);
}

TEST(AdmissionControllerTest, NeverShedsBeforeServiceEwmaForms) {
  SchedulerOptions opts;
  AdmissionController c(1, opts, 64, 200);
  EXPECT_TRUE(c.Admit(/*queue_depth=*/100000, /*budget_ms=*/0.001));
}

TEST(AdmissionControllerTest, ShedsWhenPredictedWaitExceedsBudget) {
  SchedulerOptions opts;
  opts.ewma_alpha = 1.0;  // take each sample verbatim: deterministic EWMA
  // Two engines drain the queue: a request behind `depth` others waits
  // depth * service / 2, so the limit is twice one engine's.
  AdmissionController c(2, opts, 64, 200);
  // 10 requests in 10ms -> 1ms per request.
  c.RecordBatch(0, 10, 10.0, /*applied_wait_us=*/200, SchedClock::now());
  // Budget 2ms admits at most 2 queued ahead per engine, 4 in all.
  EXPECT_TRUE(c.Admit(3, 2.0));
  EXPECT_FALSE(c.Admit(4, 2.0));
  EXPECT_FALSE(c.Admit(50, 2.0));
  EXPECT_EQ(c.Snapshot().admit_limit, 4);
  // A roomy budget admits deep queues.
  EXPECT_TRUE(c.Admit(50, 1000.0));
  const SchedulerSnapshot snap = c.Snapshot();
  EXPECT_GT(snap.service_qps, 0.0);
  EXPECT_EQ(snap.admit_limit, 2000);
  // A budget below one service time still admits one request per engine.
  EXPECT_TRUE(c.Admit(1, 0.1));
  EXPECT_FALSE(c.Admit(2, 0.1));
}

TEST(AdmissionControllerTest, EqualTimestampArrivalsDoNotResetTheEwma) {
  // Regression: a coarse monotone clock hands equal stamps to back-to-back
  // arrivals. The zero gap must *seed* the EWMA (an infinite-rate
  // observation) that later gaps blend into — the old `ewma_gap_us <= 0`
  // seeding test kept the EWMA at 0 and let the next real gap overwrite
  // history instead of blending.
  SchedulerOptions opts;
  opts.ewma_alpha = 0.5;  // deterministic halves
  AdmissionController c(1, opts, 8, 200);
  const SchedClock::time_point now = SchedClock::now();
  c.RecordArrival(now);
  c.RecordArrival(now);  // injected equal stamp: gap 0 seeds
  c.RecordArrival(now + std::chrono::microseconds(100));
  // Blend, not overwrite: 0.5 * 100 + 0.5 * 0 = 50us gap -> 20k q/s. The
  // buggy re-seed would have reported 100us -> 10k q/s.
  EXPECT_NEAR(c.Snapshot().arrival_qps, 20000.0, 1.0);
}

TEST(AdmissionControllerTest, ZeroGapAfterSeedingBlendsIntoTheEwma) {
  // The mirror case: a zero gap arriving *after* the EWMA formed must pull
  // it down by the blend weight, not be mistaken for an unseeded state.
  SchedulerOptions opts;
  opts.ewma_alpha = 0.5;
  AdmissionController c(1, opts, 8, 200);
  const SchedClock::time_point now = SchedClock::now();
  c.RecordArrival(now);
  c.RecordArrival(now + std::chrono::microseconds(100));  // seeds 100us
  const SchedClock::time_point burst = now + std::chrono::microseconds(100);
  c.RecordArrival(burst);  // equal stamp: 0.5 * 0 + 0.5 * 100 = 50us
  EXPECT_NEAR(c.Snapshot().arrival_qps, 20000.0, 1.0);
}

TEST(AdmissionControllerTest, TrailingStampCountsAsAZeroGap) {
  // Client threads stamp arrivals before taking the controller's lock, so
  // a stamp can trail the newest one recorded. Its gap is zero, never
  // negative (which would pull the EWMA below any real gap).
  SchedulerOptions opts;
  opts.ewma_alpha = 0.5;
  AdmissionController c(1, opts, 8, 200);
  const SchedClock::time_point now = SchedClock::now();
  c.RecordArrival(now);
  c.RecordArrival(now + std::chrono::microseconds(100));  // seeds 100us
  c.RecordArrival(now + std::chrono::microseconds(50));   // trails: gap 0
  EXPECT_NEAR(c.Snapshot().arrival_qps, 20000.0, 1.0);
}

TEST(AdmissionControllerTest, TraceRecordsAdaptationSteps) {
  SchedulerOptions opts;
  opts.ewma_alpha = 0.5;
  AdmissionController c(2, opts, 8, 200);
  // Before any sample: the base window, no rate.
  EXPECT_EQ(c.Snapshot().arrival_qps, 0.0);
  EXPECT_EQ(c.WaitUs(), 200);
  const SchedClock::time_point now = SchedClock::now();
  c.RecordArrival(now);
  c.RecordArrival(now + std::chrono::microseconds(50));
  c.RecordBatch(1, 4, 2.0, /*applied_wait_us=*/200,
                now + std::chrono::microseconds(200));
  const std::vector<SchedulerTraceEvent> trace = c.Trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].engine, 1u);
  // 50us gaps on the queue, shared by two engines: 100us per engine ->
  // 10k q/s, and an 8-batch fill of 700us.
  EXPECT_NEAR(trace[0].arrival_qps, 10000.0, 1.0);
  EXPECT_GT(trace[0].service_qps, 0.0);
  EXPECT_EQ(trace[0].batch_wait_us, 700);
  EXPECT_EQ(c.WaitUs(), 700);
  // The event records the window the batch *ran* with, verbatim — here the
  // base window it formed under, not the newly derived one.
  EXPECT_EQ(trace[0].applied_wait_us, 200);
}

TEST(AdmissionControllerTest, DegenerateOptionsThrow) {
  SchedulerOptions bad_alpha;
  bad_alpha.ewma_alpha = 0.0;
  EXPECT_THROW(AdmissionController(1, bad_alpha, 8, 200),
               std::invalid_argument);
  bad_alpha.ewma_alpha = 1.5;
  EXPECT_THROW(AdmissionController(1, bad_alpha, 8, 200),
               std::invalid_argument);
  SchedulerOptions bad_aging;
  bad_aging.priority_aging_us = -1;
  EXPECT_THROW(AdmissionController(1, bad_aging, 8, 200),
               std::invalid_argument);
  EXPECT_THROW(AdmissionController(0, SchedulerOptions{}, 8, 200),
               std::invalid_argument);
  SchedulerOptions bad_bounds;
  bad_bounds.min_wait_us = 500;
  bad_bounds.max_wait_us_bound = 100;
  EXPECT_THROW(AdmissionController(1, bad_bounds, 8, 200),
               std::invalid_argument);
}

// --- End-to-end scheduling -------------------------------------------------

/// Submits `nodes`, alternating speed-first and accuracy-first, and checks
/// the responses bit-match direct Infer.
void RunLoad(ServingEngine& server, const core::InferenceResult& ref_speed,
             const core::InferenceResult& ref_accuracy,
             const std::vector<std::int32_t>& nodes) {
  std::vector<std::future<Response>> futures;
  std::vector<QosClass> classes;
  futures.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    classes.push_back(i % 2 == 0 ? QosClass::kSpeedFirst
                                 : QosClass::kAccuracyFirst);
    futures.push_back(server.Submit(nodes[i], classes.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    const core::InferenceResult& ref =
        classes[i] == QosClass::kSpeedFirst ? ref_speed : ref_accuracy;
    const std::int32_t node = nodes[i];
    ASSERT_TRUE(r.served);
    EXPECT_EQ(r.prediction, ref.predictions[node]) << "node " << node;
    EXPECT_EQ(r.exit_depth, ref.exit_depths[node]) << "node " << node;
  }
}

/// The upper half of the node ids: a load confined to one id range.
std::vector<std::int32_t> UpperHalfNodes() {
  const std::vector<std::int32_t>& all = World().all_nodes;
  return std::vector<std::int32_t>(all.begin() + all.size() / 2, all.end());
}

TEST(SchedulerServingTest, OneRangesLoadIsServedByEveryEngineBitExact) {
  // All traffic targets one id range. Both pumps drain the one queue, so
  // both engines serve it — speed-first and accuracy-first alike — and
  // every answer must still be bit-identical to direct Infer.
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  core::ShardedNaiEngine engine = MakeSharded(2);
  const core::InferenceResult ref_speed =
      engine.Infer(w.all_nodes, policies.For(QosClass::kSpeedFirst).config);
  const core::InferenceResult ref_accuracy = engine.Infer(
      w.all_nodes, policies.For(QosClass::kAccuracyFirst).config);
  const std::vector<std::int32_t> nodes = UpperHalfNodes();
  ASSERT_GT(nodes.size(), 50u);

  ServingOptions options;
  options.batcher.max_batch = 2;  // many small batches: a long backlog
  options.batcher.max_wait_us = 0;
  // Cache off: the repeated waves below re-offer the same nodes, and a
  // warm cache would answer them inline without reaching an engine.
  options.cache.enabled = false;
  ServingEngine server(engine, policies, options);

  // Which pump wakes for which batch is up to the OS scheduler (this box
  // may be single-core), so offer the wave repeatedly — every wave is
  // exactness-checked — until the trace shows both engines serving. Fifty
  // waves of ~100 tiny batches on one engine would mean an idle pump is
  // not draining the queue.
  std::set<std::size_t> serving;
  std::int64_t waves = 0;
  while (waves < 50 && serving.size() < 2) {
    RunLoad(server, ref_speed, ref_accuracy, nodes);
    ++waves;
    for (const SchedulerTraceEvent& event : server.Stats().adaptation_trace) {
      serving.insert(event.engine);
    }
  }
  server.Shutdown();

  EXPECT_EQ(serving, (std::set<std::size_t>{0, 1}));
  EXPECT_EQ(server.Stats().completed,
            static_cast<std::int64_t>(nodes.size()) * waves);
}

TEST(SchedulerServingTest, SchedulerDisabledServesSameAnswers) {
  // The A/B the bench sweeps: everything off must produce the same bits.
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  core::ShardedNaiEngine engine = MakeSharded(2);
  const core::InferenceResult ref_speed =
      engine.Infer(w.all_nodes, policies.For(QosClass::kSpeedFirst).config);
  const core::InferenceResult ref_accuracy = engine.Infer(
      w.all_nodes, policies.For(QosClass::kAccuracyFirst).config);

  ServingOptions options;
  options.scheduler.priority = false;
  options.scheduler.adaptive = false;
  ServingEngine server(engine, policies, options);
  RunLoad(server, ref_speed, ref_accuracy, UpperHalfNodes());
  server.Shutdown();
  EXPECT_EQ(server.Stats().shed_adaptive, 0);
}

TEST(SchedulerServingTest, AdaptiveShedsAreAccounted) {
  // Warm the service EWMA with a served batch, then flood TrySubmit with
  // a microscopic budget: once anything is queued ahead, the controller
  // must shed (predicted wait > budget) and count it as shed_adaptive.
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  core::ShardedNaiEngine engine = MakeSharded(1);
  ServingOptions options;
  options.batcher.max_batch = 1;  // serve one at a time: backlog persists
  options.batcher.max_wait_us = 0;
  // Cache off: the flood repeats warm nodes, and hits would bypass the
  // admission controller this test exists to exercise.
  options.cache.enabled = false;
  ServingEngine server(engine, policies, options);

  // Phase 1: a few served requests to form the EWMA.
  for (int i = 0; i < 8; ++i) {
    server.Submit(w.all_nodes[i], QosClass::kSpeedFirst).get();
  }
  ASSERT_GT(server.Stats().scheduler.service_qps, 0.0);

  // Phase 2: flood faster than the engine can drain.
  std::vector<std::future<Response>> admitted;
  for (std::size_t i = 0; i < 400; ++i) {
    auto f = server.TrySubmit(w.all_nodes[i % w.all_nodes.size()],
                              QosClass::kSpeedFirst, /*deadline_ms=*/1e-3);
    if (f.has_value()) admitted.push_back(std::move(*f));
  }
  for (auto& f : admitted) f.get();
  server.Shutdown();

  const ServingStatsSnapshot stats = server.Stats();
  EXPECT_GT(stats.shed_adaptive, 0);
  // Every adaptive shed is also a rejection, and nothing shed was counted
  // submitted.
  EXPECT_GE(stats.rejected, stats.shed_adaptive);
  EXPECT_EQ(stats.submitted,
            static_cast<std::int64_t>(admitted.size()) + 8);
  EXPECT_GT(stats.scheduler.admit_limit, 0);
}

TEST(SchedulerServingTest, AdaptationTraceIsExposed) {
  SmallWorld& w = World();
  const QosPolicyTable policies = MakePolicies();
  core::ShardedNaiEngine engine = MakeSharded(2);
  ServingOptions options;
  ServingEngine server(engine, policies, options);
  std::vector<std::future<Response>> futures;
  for (const std::int32_t node : w.all_nodes) {
    futures.push_back(server.Submit(node, QosClass::kSpeedFirst));
  }
  for (auto& f : futures) f.get();
  const ServingStatsSnapshot stats = server.Stats();
  ASSERT_FALSE(stats.adaptation_trace.empty());
  EXPECT_EQ(stats.adaptation_trace.size(),
            static_cast<std::size_t>(
                std::min<std::int64_t>(stats.num_batches,
                                       AdmissionController::kTraceCapacity)));
  double last_t = -1.0;
  for (const SchedulerTraceEvent& event : stats.adaptation_trace) {
    EXPECT_GE(event.t_ms, last_t);  // chronological
    last_t = event.t_ms;
    EXPECT_LT(event.engine, 2u);
    EXPECT_GE(event.batch_wait_us, options.scheduler.min_wait_us);
    EXPECT_LE(event.batch_wait_us, options.scheduler.max_wait_us_bound);
  }
}

}  // namespace
}  // namespace nai::serve
