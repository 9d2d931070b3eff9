// Streaming serving walkthrough: stand up the src/serve/ front-end over a
// sharded deployment and push one-at-a-time queries through it — first a
// handful of callback-completed requests (the "online API" shape), then a
// mixed-QoS burst through futures, finishing with the serving stats
// snapshot (including the adaptive scheduler's shed counter and
// adaptation trace) and a bit-exactness self-check against direct Infer.
//
// Flags: --threads N (pool size), --shards N (default 2 here — one pump
// per shard engine drains the front-end's one admission queue).

#include <cstdint>
#include <cstdio>
#include <future>
#include <vector>

#include "src/eval/datasets.h"
#include "src/eval/harness.h"
#include "src/runtime/flags.h"
#include "src/serve/serving_engine.h"

int main(int argc, char** argv) {
  using namespace nai;
  runtime::ApplyThreadsFlag(argc, argv);
  int num_shards = runtime::ShardsFlag(argc, argv);
  if (num_shards <= 1) num_shards = 2;  // the example's point is N engines

  // --- Train a small deployment and wrap it for serving. -------------------
  const eval::PreparedDataset ds = eval::Prepare(eval::ArxivSim(0.15));
  eval::PipelineConfig config;
  config.distill.base_epochs = 80;
  config.distill.single_epochs = 50;
  config.distill.multi_epochs = 30;
  eval::TrainedPipeline pipeline = eval::TrainPipeline(ds, config);
  auto sharded = eval::MakeShardedEngine(pipeline, ds, num_shards);
  const serve::QosPolicyTable policies =
      eval::MakeQosPolicyTable(pipeline, ds, core::NapKind::kDistance);

  serve::ServingOptions options;
  options.batcher.max_batch = 32;
  options.batcher.max_wait_us = 500;
  // The adaptive scheduler defaults on; spelled out here as the knobs a
  // deployment would tune. Speed-first bypasses queued accuracy-first work
  // (bounded at 5ms of bypassing), and the admission controller retunes
  // the 500us window to the observed arrival rate within [0, 2ms].
  options.scheduler.priority = true;
  options.scheduler.priority_aging_us = 5000;
  options.scheduler.adaptive = true;
  serve::ServingEngine server(*sharded, policies, options);
  std::printf("serving %lld nodes from %d shards "
              "(speed-first: T_max %d, %.0f ms budget | accuracy-first: "
              "full depth, %.0f ms budget)\n",
              static_cast<long long>(ds.data.graph.num_nodes()), num_shards,
              policies.For(serve::QosClass::kSpeedFirst).config.t_max,
              policies.For(serve::QosClass::kSpeedFirst).default_deadline_ms,
              policies.For(serve::QosClass::kAccuracyFirst)
                  .default_deadline_ms);

  // --- A few single streaming requests, completed via callbacks. -----------
  std::printf("\nstreaming requests (callback completion):\n");
  std::vector<std::future<void>> done;
  for (std::size_t i = 0; i < 4 && i < ds.split.test_nodes.size(); ++i) {
    const std::int32_t node = ds.split.test_nodes[i];
    const serve::QosClass qos = i % 2 == 0
                                    ? serve::QosClass::kSpeedFirst
                                    : serve::QosClass::kAccuracyFirst;
    auto signal = std::make_shared<std::promise<void>>();
    done.push_back(signal->get_future());
    server.SubmitWithCallback(
        node, qos, [node, qos, signal](const serve::Response& r) {
          std::printf("  node %-6d %-15s -> class %d at depth %d in %.2f ms"
                      " (%.2f ms queued)%s\n",
                      node, serve::QosClassName(qos), r.prediction,
                      r.exit_depth, r.latency_ms, r.queue_ms,
                      r.deadline_missed ? "  [deadline missed]" : "");
          signal->set_value();
        });
  }
  for (std::future<void>& f : done) f.wait();

  // --- A mixed burst through futures. --------------------------------------
  const std::vector<std::int32_t>& test = ds.split.test_nodes;
  std::vector<serve::QosClass> classes(test.size());
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    classes[i] = i % 2 == 0 ? serve::QosClass::kSpeedFirst
                            : serve::QosClass::kAccuracyFirst;
    futures.push_back(server.Submit(test[i], classes[i]));
  }
  std::vector<serve::Response> responses;
  responses.reserve(futures.size());
  for (std::future<serve::Response>& f : futures) {
    responses.push_back(f.get());
  }

  // --- Self-check: serving must match direct inference bit-for-bit. --------
  const core::InferenceResult ref_speed =
      sharded->Infer(test, policies.For(serve::QosClass::kSpeedFirst).config);
  const core::InferenceResult ref_accuracy = sharded->Infer(
      test, policies.For(serve::QosClass::kAccuracyFirst).config);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const core::InferenceResult& ref =
        classes[i] == serve::QosClass::kSpeedFirst ? ref_speed : ref_accuracy;
    if (responses[i].served && responses[i].prediction == ref.predictions[i] &&
        responses[i].exit_depth == ref.exit_depths[i]) {
      ++agree;
    }
  }
  std::printf("\nburst of %zu mixed-QoS requests: %zu / %zu bit-identical "
              "to direct Infer (%s)\n",
              test.size(), agree, test.size(),
              agree == test.size() ? "exact" : "MISMATCH");

  const serve::ServingStatsSnapshot stats = server.Stats();
  std::printf("\nserving stats: %lld completed, %lld deadline misses, "
              "mean batch %.1f over %lld batches\n",
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.deadline_misses),
              stats.mean_batch_size,
              static_cast<long long>(stats.num_batches));
  std::printf("  overall  p50 %.2f ms   p95 %.2f ms   p99 %.2f ms\n",
              stats.latency.p50_ms, stats.latency.p95_ms,
              stats.latency.p99_ms);
  for (std::size_t c = 0; c < serve::kNumQosClasses; ++c) {
    std::printf("  %-15s p50 %.2f ms   p95 %.2f ms   p99 %.2f ms "
                "(%lld served)\n",
                serve::QosClassName(static_cast<serve::QosClass>(c)),
                stats.per_class[c].p50_ms, stats.per_class[c].p95_ms,
                stats.per_class[c].p99_ms,
                static_cast<long long>(stats.per_class[c].count));
  }

  // What the scheduler did: controller sheds, the adaptation state the
  // controller converged to, and which engines served the traced batches.
  const serve::SchedulerSnapshot& sched = stats.scheduler;
  std::printf("\nscheduler: %lld adaptive sheds; arrival %.0f q/s per "
              "engine, service %.0f q/s, window %lld us\n",
              static_cast<long long>(stats.shed_adaptive), sched.arrival_qps,
              sched.service_qps, static_cast<long long>(sched.batch_wait_us));
  std::vector<std::int64_t> batches_by_engine(num_shards, 0);
  for (const serve::SchedulerTraceEvent& event : stats.adaptation_trace) {
    ++batches_by_engine[event.engine];
  }
  for (int e = 0; e < num_shards; ++e) {
    std::printf("  engine %d: %lld of the %zu traced batches\n", e,
                static_cast<long long>(batches_by_engine[e]),
                stats.adaptation_trace.size());
  }

  server.Shutdown();
  return agree == test.size() ? 0 : 1;
}
