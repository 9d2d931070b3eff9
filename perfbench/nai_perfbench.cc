// The repository benchmark: one named serving workload, driven from outside
// the serving stack, with every end-to-end metric printed by name and unit
// and every answer checked against a direct engine call.
//
//   nai_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--workdir DIR] [--rev REV]
//
// Workloads (see perfbench/NOTES.md for why each exists):
//   mixed_closed    ArxivSim 15k nodes, mem store, closed loop, 4 clients,
//                   every test node once, 40/20/40 speed/throughput/accuracy
//   hot_open        same deployment, open-loop Poisson at kHotRateQps, Zipf
//                   1.0 over the test nodes, 80/20 speed/throughput, cache on
//   churn_open      the hot_open stream at kChurnRateQps plus ApplyDeltas at
//                   kUpdatesPerSec (16 nodes, 32 edges, 16 feature rows each)
//   outofcore_zipf  2^20-node GenerateScaled store behind an MmapStore, one
//                   identity shard, closed loop, 4 clients, Zipf 0.9, 40/20/40
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same phase
// untraced and then traced, reports the per-layer metrics of the traced
// phase, the tracing overhead (traced minus untraced), and replays the
// phase's own requests through the engine, sampler and feature store one
// layer at a time. The last stdout line is the result object.
//
// The deployment is pinned: the graph, training budget, shard count and
// thread counts are constants of this file, and NAI_SCALE / NAI_STORE /
// NAI_THREADS are never read. The seed drives only the traffic: request
// order, classes, Zipf draws, arrival times and the delta stream.

#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <map>
#include <numeric>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "perfbench/stats.h"
#include "src/core/classifier_stack.h"
#include "src/core/inference.h"
#include "src/core/sharded_inference.h"
#include "src/eval/datasets.h"
#include "src/eval/harness.h"
#include "src/graph/delta.h"
#include "src/graph/generators.h"
#include "src/graph/sampler.h"
#include "src/graph/shard.h"
#include "src/runtime/thread_pool.h"
#include "src/serve/qos.h"
#include "src/serve/serving_engine.h"
#include "src/storage/mmap_store.h"
#include "src/tensor/random.h"
#include "src/tensor/simd.h"

extern char** environ;

namespace {

using namespace nai;
using Clock = std::chrono::steady_clock;
using serve::QosClass;

// --- The pinned deployment --------------------------------------------------

constexpr int kShards = 2;
constexpr int kEngineThreads = 2;
/// Closed-loop client threads; an open loop has one generator thread (plus
/// one updater thread on churn_open).
constexpr int kClients = 4;
constexpr int kSetupReps = 3;
constexpr double kWarmupS = 0.5;
/// Identical timed sub-phases per run, pooled into the end-to-end metrics.
/// Each gets a fresh engine and server, whose run-to-run differences (the
/// microsecond cache-hit path moves by up to 20% between instances) the
/// pooling averages out.
constexpr int kSubPhases = 5;
/// A fifth of the closed-loop capacity of the hot_open mix (about 100k q/s,
/// almost all cache hits). At half of it the load generator and the pumps
/// oversubscribe a 4-core host and the tail swings between runs; see
/// NOTES.md for the measurement.
constexpr double kHotRateQps = 20000.0;
constexpr double kChurnRateQps = 10000.0;
constexpr double kUpdatesPerSec = 1.0;
constexpr int kOutOfCoreLog2Nodes = 20;
constexpr int kOutOfCoreDepth = 3;
/// Requests replayed layer by layer in a traced run.
constexpr std::size_t kReplayRequests = 2000;

const Clock::time_point g_process_start = Clock::now();

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

constexpr std::size_t ClassIndex(QosClass c) {
  return static_cast<std::size_t>(c);
}

/// The benchmark's own training budget: a sixth of the bench binaries'
/// epochs and no gates (only NAPd is served; its exit depths come from
/// distance quantiles, so the serving work is unchanged).
eval::PipelineConfig BenchmarkPipelineConfig() {
  eval::PipelineConfig cfg;
  cfg.kind = models::ModelKind::kSgc;
  cfg.hidden_dims = {64};
  cfg.distill.base_epochs = 10;
  cfg.distill.single_epochs = 6;
  cfg.distill.multi_epochs = 4;
  cfg.distill.learning_rate = 1e-2f;
  cfg.distill.temperature_single = 1.2f;
  cfg.distill.lambda_single = 0.5f;
  cfg.distill.temperature_multi = 1.5f;
  cfg.distill.lambda_multi = 0.8f;
  cfg.distill.ensemble_size = 3;
  cfg.train_gates = false;
  cfg.seed = 42;
  return cfg;
}

// --- Workloads -------------------------------------------------------------

enum class Loop { kClosed, kOpen };

struct Workload {
  std::string name;
  bool outofcore = false;
  Loop loop = Loop::kClosed;
  double rate_qps = 0.0;      ///< open loop only
  double zipf_alpha = 0.0;    ///< 0 = every pool node once, in seeded order
  double speed_share = 0.0;
  double throughput_share = 0.0;  ///< the rest is accuracy-first
  double updates_per_sec = 0.0;
};

std::optional<Workload> FindWorkload(const std::string& name) {
  const std::vector<Workload> all = {
      {"mixed_closed", false, Loop::kClosed, 0.0, 0.0, 0.4, 0.2, 0.0},
      {"hot_open", false, Loop::kOpen, kHotRateQps, 1.0, 0.8, 0.2, 0.0},
      {"churn_open", false, Loop::kOpen, kChurnRateQps, 1.0, 0.8, 0.2,
       kUpdatesPerSec},
      {"outofcore_zipf", true, Loop::kClosed, 0.0, 0.9, 0.4, 0.2, 0.0},
  };
  for (const Workload& w : all) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

// --- Deployment ------------------------------------------------------------

/// Everything one served deployment owns. Members are declared so that the
/// engine (which borrows the classifier banks) is destroyed first.
struct Deployment {
  std::unique_ptr<eval::PreparedDataset> ds;  ///< null for outofcore
  std::unique_ptr<eval::TrainedPipeline> pipeline;
  std::unique_ptr<core::ClassifierStack> random_bank;  ///< outofcore only
  std::unique_ptr<core::QuantizedClassifierStack> random_quantized;
  std::shared_ptr<storage::MmapStore> store;
  std::shared_ptr<const graph::GraphSnapshot> snapshot;
  serve::QosPolicyTable policies;
  std::vector<std::int32_t> pool;  ///< nodes requests are drawn from
  core::ClassifierStack* classifiers = nullptr;
  core::QuantizedClassifierStack* quantized = nullptr;
  int depth = 0;
  std::unique_ptr<core::ShardedNaiEngine> engine;

  const std::vector<std::int32_t>* labels() const {
    return ds ? &ds->data.labels : nullptr;
  }
  std::string backend() const {
    return storage::BackendName(snapshot->backend());
  }
  int shards() const { return store ? 1 : kShards; }

  void BuildEngine() {
    engine.reset();
    graph::ShardedGraph sharded =
        store ? graph::IdentityShards(snapshot->num_nodes(), depth)
              : graph::MakeShards(snapshot->adj(), kShards, depth);
    engine = std::make_unique<core::ShardedNaiEngine>(
        snapshot, std::move(sharded), *classifiers, nullptr,
        /*use_stationary=*/true, kEngineThreads);
    engine->AttachQuantizedClassifiers(quantized);
  }
};

std::unique_ptr<Deployment> BuildArxivDeployment() {
  auto dep = std::make_unique<Deployment>();
  dep->ds = std::make_unique<eval::PreparedDataset>(
      eval::Prepare(eval::ArxivSim(1.0)));
  dep->pipeline = std::make_unique<eval::TrainedPipeline>(
      eval::TrainPipeline(*dep->ds, BenchmarkPipelineConfig()));
  dep->classifiers = dep->pipeline->classifiers.get();
  dep->quantized = &dep->pipeline->QuantizedClassifiers();
  dep->depth = dep->pipeline->model_config.depth;
  dep->policies = eval::MakeQosPolicyTable(*dep->pipeline, *dep->ds,
                                           core::NapKind::kDistance);
  dep->snapshot =
      graph::MakeSnapshot(dep->ds->data.graph, dep->ds->data.features,
                          dep->pipeline->model_config.gamma);
  dep->pool = dep->ds->split.test_nodes;
  dep->BuildEngine();
  return dep;
}

graph::ScaledGraphConfig OutOfCoreGraphConfig() {
  graph::ScaledGraphConfig cfg;
  cfg.num_nodes = std::int64_t{1} << kOutOfCoreLog2Nodes;
  cfg.feature_dim = 32;
  cfg.seed = 4242;
  return cfg;
}

/// Writes the out-of-core store in a child process (this binary, re-run
/// with --generate-store) so the writer's mapping never counts toward the
/// serving process's peak RSS.
void GenerateStoreInChild(const std::string& path) {
  std::string self = "/proc/self/exe";
  std::vector<std::string> args = {"nai_perfbench", "--generate-store", path};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (::posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
    throw std::runtime_error("cannot spawn the store generator");
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("store generator failed");
  }
}

std::unique_ptr<Deployment> BuildOutOfCoreDeployment(
    const std::string& workdir) {
  auto dep = std::make_unique<Deployment>();
  const graph::ScaledGraphConfig cfg = OutOfCoreGraphConfig();
  const std::string path =
      workdir + "/store_" + std::to_string(static_cast<long>(::getpid())) +
      ".nai";
  GenerateStoreInChild(path);
  // Opened lazily: verifying the data checksum would fault every page in.
  storage::MmapStore::Options lazy;
  lazy.verify_data = false;
  dep->store = std::make_shared<storage::MmapStore>(path, lazy);
  ::unlink(path.c_str());
  dep->store->Advise(storage::AccessHint::kRandom);
  dep->snapshot = graph::MakeSnapshotFromStore(dep->store, dep->store);

  models::ModelConfig mc;
  mc.kind = models::ModelKind::kSgc;
  mc.depth = kOutOfCoreDepth;
  mc.gamma = cfg.gamma;
  mc.feature_dim = static_cast<std::size_t>(cfg.feature_dim);
  mc.num_classes = 8;
  mc.hidden_dims = {32};
  dep->random_bank = std::make_unique<core::ClassifierStack>(mc, 7);
  dep->random_quantized =
      std::make_unique<core::QuantizedClassifierStack>(*dep->random_bank);
  dep->classifiers = dep->random_bank.get();
  dep->quantized = dep->random_quantized.get();
  dep->depth = kOutOfCoreDepth;
  dep->policies = serve::DefaultQosPolicyTable(kOutOfCoreDepth);
  dep->pool.resize(static_cast<std::size_t>(cfg.num_nodes));
  for (std::size_t v = 0; v < dep->pool.size(); ++v) {
    dep->pool[v] = static_cast<std::int32_t>(v);
  }
  dep->BuildEngine();
  return dep;
}

/// Drops every page of the store from this process's mapping, so each
/// timed phase faults in exactly what its traffic touches. The pages stay
/// in the page cache: evicting them too sends the faults to the disk, whose
/// run-to-run spread swamps every latency bound (see NOTES.md).
void UnmapStorePages(const Deployment& dep) {
  if (!dep.store) return;
  dep.store->Advise(storage::AccessHint::kDontNeed);
  dep.store->Advise(storage::AccessHint::kRandom);
}

/// The share of the store mapping resident in this process, from the Rss
/// line of its /proc/self/smaps entry. mincore(2) (what the serving stats
/// report) counts page-cache residency, which this benchmark keeps warm.
double StoreResidentShare(const Deployment& dep) {
  if (!dep.store) return 1.0;
  std::FILE* f = std::fopen("/proc/self/smaps", "r");
  if (f == nullptr) return 0.0;
  char line[4096];
  bool in_store = false;
  double rss_kb = 0.0;
  double size_kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    // Mapping headers start with a lower-case hex address; field lines
    // with an upper-case key ("Size:", "Rss:", ...).
    const bool header =
        (line[0] >= '0' && line[0] <= '9') || (line[0] >= 'a' && line[0] <= 'f');
    if (header) {
      in_store = std::strstr(line, dep.store->path().c_str()) != nullptr;
    } else if (in_store && std::strncmp(line, "Size:", 5) == 0) {
      size_kb += std::strtod(line + 5, nullptr);
    } else if (in_store && std::strncmp(line, "Rss:", 4) == 0) {
      rss_kb += std::strtod(line + 4, nullptr);
    }
  }
  std::fclose(f);
  return size_kb > 0.0 ? rss_kb / size_kb : 0.0;
}

// --- Request plan ----------------------------------------------------------

struct Plan {
  std::vector<std::int32_t> nodes;
  std::vector<QosClass> classes;
  std::vector<double> due_ms;  ///< open loop: schedule from phase start
};

/// A cheap proxy for how much work a query on `v` costs: the size of its
/// two-hop frontier (degree plus the neighbors' degrees).
std::int64_t CostProxy(graph::CsrView adj, std::int32_t v) {
  std::int64_t cost = adj.row_ptr[v + 1] - adj.row_ptr[v];
  for (std::int64_t e = adj.row_ptr[v]; e < adj.row_ptr[v + 1]; ++e) {
    const std::int32_t u = adj.col_idx[e];
    cost += adj.row_ptr[u + 1] - adj.row_ptr[u];
  }
  return cost;
}

/// The pool in a seeded low-discrepancy order: nodes sorted by cost and
/// visited with a golden-ratio stride from a seeded offset, so every prefix
/// of the order (what a time-bounded run gets through, or the head of a
/// Zipf ranking) holds a representative mix of cheap and costly nodes. The
/// cost is `primary[i]` (when given) and then CostProxy. The seed picks the
/// offset; every seed visits every node once.
std::vector<std::int32_t> SpreadOrder(const std::vector<std::int32_t>& pool,
                                      const std::vector<std::int32_t>& primary,
                                      graph::CsrView adj, std::uint64_t seed) {
  std::vector<std::tuple<std::int32_t, std::int64_t, std::int32_t>> ranked;
  ranked.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ranked.push_back({primary.empty() ? 0 : primary[i],
                      CostProxy(adj, pool[i]), pool[i]});
  }
  std::sort(ranked.begin(), ranked.end());
  const std::uint64_t n = ranked.size();
  std::vector<std::int32_t> order;
  if (n == 0) return order;
  std::uint64_t stride = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(0.6180339887498949 *
                                    static_cast<double>(n)));
  while (std::gcd(stride, n) != 1) ++stride;
  tensor::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::uint64_t pos = rng.NextBounded(n);
  order.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    order.push_back(std::get<2>(ranked[pos]));
    pos = (pos + stride) % n;
  }
  return order;
}

Plan MakePlan(const Workload& w, const std::vector<std::int32_t>& order,
              std::uint64_t seed, double phase_s) {
  tensor::Rng rng(seed * 0xD1B54A32D192ED03ULL + 29);
  Plan plan;
  std::size_t count = order.size();
  if (w.loop == Loop::kOpen) {
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.NextDouble()) * 1e3 / w.rate_qps;
      if (t >= phase_s * 1e3) break;
      plan.due_ms.push_back(t);
    }
    count = plan.due_ms.size();
  } else if (w.zipf_alpha > 0.0) {
    // Enough closed-loop draws for far more than any run can serve.
    count = 100000;
  }
  if (w.zipf_alpha > 0.0) {
    // Zipf ranks follow `order`: order[0] is the hottest node.
    std::vector<double> cdf(order.size());
    double total = 0.0;
    for (std::size_t j = 0; j < order.size(); ++j) {
      total += std::pow(static_cast<double>(j + 1), -w.zipf_alpha);
      cdf[j] = total;
    }
    plan.nodes.reserve(count);
    for (std::size_t t = 0; t < count; ++t) {
      const double u = rng.NextDouble() * total;
      std::size_t j = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      plan.nodes.push_back(order[std::min(j, order.size() - 1)]);
    }
  } else {
    plan.nodes.assign(order.begin(), order.begin() + count);
  }
  // Classes from a seeded Kronecker sequence (step sqrt(2) - 1, independent
  // of SpreadOrder's golden-ratio stride): exact shares over any stretch of
  // requests, no long same-class runs, and no coupling between a request's
  // class and its node's cost rank.
  double u = rng.NextDouble();
  plan.classes.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    u += 0.41421356237309503;
    u -= std::floor(u);
    plan.classes.push_back(u < w.speed_share ? QosClass::kSpeedFirst
                           : u < w.speed_share + w.throughput_share
                               ? QosClass::kThroughputFirst
                               : QosClass::kAccuracyFirst);
  }
  return plan;
}

// --- One measured phase ----------------------------------------------------

struct Record {
  std::int32_t node = -1;
  QosClass qos = QosClass::kSpeedFirst;
  bool sent = false;
  bool served = false;
  bool counted = false;  ///< due inside the timed window
  bool hit = false;      ///< answered inline by the result cache
  perfbench::RequestTimes t;
  std::int32_t prediction = -1;
  std::uint64_t epoch = 0;
  double queue_ms = 0.0;
  double server_ms = 0.0;
};

struct UpdateRecord {
  double due = 0.0;
  double call = 0.0;
  double done = 0.0;
  bool counted = false;
};

struct Usage {
  double cpu_s = 0.0;
  long minflt = 0;
  long majflt = 0;
  long nvcsw = 0;
  long nivcsw = 0;

  static Usage Now() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
    u.minflt = ru.ru_minflt;
    u.majflt = ru.ru_majflt;
    u.nvcsw = ru.ru_nvcsw;
    u.nivcsw = ru.ru_nivcsw;
    return u;
  }
};

struct EndToEnd {
  std::int64_t sent = 0;
  std::int64_t served = 0;
  double throughput_qps = 0.0;
  double latency_p50_ms = 0.0;
  perfbench::Tail latency_tail;
  perfbench::Tail speed_tail;
  double slo_attainment = 0.0;
  double failed_ratio = 0.0;
  double test_accuracy = -1.0;  ///< -1: no labels
  double update_p50_ms = 0.0;
  perfbench::Tail update_tail;  ///< p95-capped
  std::int64_t updates = 0;
  perfbench::Tail lag_tail;
  double peak_rss_mb = 0.0;
};

struct Check {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::size_t int8_nodes = 0;
  std::size_t int8_flips = 0;
  double int8_budget = 0.0;
  std::size_t verify_checked = 0;
  std::size_t verify_mismatches = 0;
  bool ok() const {
    return mismatches == 0 && verify_mismatches == 0 &&
           static_cast<double>(int8_flips) <=
               int8_budget * static_cast<double>(int8_nodes);
  }
};

struct Phase {
  std::vector<Record> records;
  std::vector<UpdateRecord> updates;
  std::vector<graph::GraphDelta> deltas;  ///< the whole seeded stream
  std::size_t deltas_applied = 0;
  serve::ServingStatsSnapshot before;
  serve::ServingStatsSnapshot after;
  Usage usage_before;
  Usage usage_after;
  double window_ms = 0.0;
  double peak_rss_mb = 0.0;  ///< ru_maxrss at the end of the timed window
  /// Store bytes resident in this process over mapped store bytes at the end
  /// of the window (1 for the mem backend, where everything is heap).
  double resident_share = 0.0;
  EndToEnd e2e;  ///< this phase alone
  Check check;
};

double Elapsed(Clock::time_point start) { return MsBetween(start, Clock::now()); }

/// A joining thread whose exception is kept for the caller: Join() waits
/// and rethrows what `fn` threw. Destruction joins too, so no exit path
/// leaves a thread running over the caller's data.
class Worker {
 public:
  template <typename Fn>
  explicit Worker(Fn fn)
      : thread_([this, fn = std::move(fn)]() mutable {
          try {
            fn();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void Join() {
    if (thread_.joinable()) thread_.join();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  std::exception_ptr error_;
  std::jthread thread_;
};

/// Runs `fn` on `n` threads and rethrows the first exception any of them
/// threw, after all have finished.
template <typename Fn>
void RunOnThreads(int n, const Fn& fn) {
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < n; ++i) workers.push_back(std::make_unique<Worker>(fn));
  std::exception_ptr first;
  for (auto& w : workers) {
    try {
      w->Join();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

/// Sleeps to just short of `due` and spins the rest, so the generator's
/// own wake-up lag stays in the microseconds.
void WaitUntil(Clock::time_point due) {
  const auto spin = std::chrono::microseconds(150);
  if (Clock::now() + spin < due) std::this_thread::sleep_until(due - spin);
  while (Clock::now() < due) {
  }
}

void RunClosedLoop(serve::ServingEngine& server, const Plan& plan,
                   Clock::time_point start, double end_ms,
                   std::vector<Record>& records) {
  std::atomic<std::size_t> next{0};
  auto client = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= plan.nodes.size()) return;
      Record& r = records[i];
      r.t.call = Elapsed(start);
      if (r.t.call >= end_ms) return;
      r.node = plan.nodes[i];
      r.qos = plan.classes[i];
      r.t.due = r.t.call;
      std::future<serve::Response> future = server.Submit(r.node, r.qos);
      r.t.ret = Elapsed(start);
      r.hit = future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready;
      const serve::Response resp = future.get();
      r.t.done = Elapsed(start);
      r.sent = true;
      r.served = resp.served;
      r.prediction = resp.prediction;
      r.epoch = resp.epoch;
      r.queue_ms = resp.queue_ms;
      r.server_ms = resp.latency_ms;
    }
  };
  RunOnThreads(kClients, client);
}

/// The open-loop generator: runs on the calling thread, sends every plan
/// entry at its due time without waiting for answers, then collects them.
void RunOpenLoop(serve::ServingEngine& server, const Plan& plan,
                 Clock::time_point start, std::vector<Record>& records) {
  // A 1 ns timer slack lets the sleep in WaitUntil end close to its target.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<std::optional<std::future<serve::Response>>> futures(
      plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    Record& r = records[i];
    r.node = plan.nodes[i];
    r.qos = plan.classes[i];
    r.t.due = plan.due_ms[i];
    WaitUntil(start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(r.t.due)));
    r.t.call = Elapsed(start);
    futures[i] = server.TrySubmit(r.node, r.qos);
    r.t.ret = Elapsed(start);
    r.sent = true;
    // A result-cache hit comes back as an already-ready future.
    r.hit = futures[i].has_value() &&
            futures[i]->wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready;
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Record& r = records[i];
    if (!futures[i].has_value()) continue;  // shed at admission
    const serve::Response resp = futures[i]->get();
    r.served = resp.served;
    r.prediction = resp.prediction;
    r.epoch = resp.epoch;
    r.queue_ms = resp.queue_ms;
    r.server_ms = resp.latency_ms;
    r.t.done = perfbench::OpenLoopDoneMs(r.t.call, r.t.ret, resp.latency_ms);
  }
}

/// End-to-end metrics over the pooled requests of `phases`: every request
/// sent inside a timed window counts once, and throughput divides by the
/// summed window length.
EndToEnd Summarize(const Deployment& dep,
                   const std::vector<const Phase*>& phases) {
  EndToEnd e;
  std::vector<double> all;
  std::vector<double> speed;
  std::vector<double> lag;
  std::vector<double> upd;
  std::int64_t on_time = 0;
  std::int64_t correct = 0;
  double window_ms = 0.0;
  const std::vector<std::int32_t>* labels = dep.labels();
  for (const Phase* ph : phases) {
    window_ms += ph->window_ms;
    e.peak_rss_mb = std::max(e.peak_rss_mb, ph->peak_rss_mb);
    for (const UpdateRecord& u : ph->updates) {
      if (u.counted) upd.push_back(u.done - u.call);
    }
    for (const Record& r : ph->records) {
      if (!r.sent || !r.counted) continue;
      ++e.sent;
      lag.push_back(r.t.call - r.t.due);
      if (!r.served) continue;
      ++e.served;
      const double ms = perfbench::DueLatencyMs(r.t);
      all.push_back(ms);
      if (r.qos == QosClass::kSpeedFirst) speed.push_back(ms);
      if (ms <= dep.policies.For(r.qos).default_deadline_ms) ++on_time;
      if (labels &&
          r.prediction == (*labels)[static_cast<std::size_t>(r.node)]) {
        ++correct;
      }
    }
  }
  e.throughput_qps = 1e3 * static_cast<double>(e.served) / window_ms;
  e.latency_p50_ms = perfbench::Median(all);
  e.latency_tail = perfbench::TailPercentile(all);
  e.speed_tail = perfbench::TailPercentile(speed);
  e.lag_tail = perfbench::TailPercentile(lag);
  const double sent = static_cast<double>(std::max<std::int64_t>(1, e.sent));
  e.slo_attainment = static_cast<double>(on_time) / sent;
  e.failed_ratio = static_cast<double>(e.sent - e.served) / sent;
  if (labels && e.served > 0) {
    e.test_accuracy =
        static_cast<double>(correct) / static_cast<double>(e.served);
  }
  e.updates = static_cast<std::int64_t>(upd.size());
  e.update_p50_ms = perfbench::Median(upd);
  e.update_tail = perfbench::TailPercentile(upd, 0.95);
  return e;
}

// --- Correctness gate ------------------------------------------------------

/// Direct answers of `engine` for the distinct nodes of each class.
using Answers = std::array<std::map<std::int32_t, std::int32_t>,
                           serve::kNumQosClasses>;

template <typename InferFn>
Answers DirectAnswers(
    const std::array<std::vector<std::int32_t>, serve::kNumQosClasses>& nodes,
    const serve::QosPolicyTable& policies, InferFn infer) {
  Answers out;
  for (std::size_t c = 0; c < serve::kNumQosClasses; ++c) {
    std::vector<std::int32_t> list = nodes[c];
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    if (list.empty()) continue;
    const core::InferenceResult res =
        infer(list, policies.For(static_cast<QosClass>(c)).config);
    for (std::size_t i = 0; i < list.size(); ++i) {
      out[c][list[i]] = res.predictions[i];
    }
  }
  return out;
}

void CompareServed(const std::vector<const Record*>& served,
                   const Answers& want, Check& check) {
  for (const Record* r : served) {
    ++check.checked;
    const auto& m = want[ClassIndex(r->qos)];
    const auto it = m.find(r->node);
    if (it == m.end() || it->second != r->prediction) ++check.mismatches;
  }
}

/// The throughput class's accuracy-delta budget against its float twin, on
/// the distinct nodes served under it.
void CheckInt8Budget(core::ShardedNaiEngine& engine,
                     const serve::QosPolicyTable& policies,
                     std::vector<std::int32_t> nodes, Check& check) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  const serve::QosPolicy& tp = policies.For(QosClass::kThroughputFirst);
  check.int8_budget = tp.accuracy_delta_budget;
  if (nodes.empty()) return;
  core::InferenceConfig twin = tp.config;
  twin.int8_classifier = false;
  const core::InferenceResult a = engine.Infer(nodes, tp.config);
  const core::InferenceResult b = engine.Infer(nodes, twin);
  check.int8_nodes = nodes.size();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (a.predictions[i] != b.predictions[i]) ++check.int8_flips;
  }
}

/// Static deployments: every served answer against a direct routed Infer
/// of the same node under its class config.
void CheckStatic(Deployment& dep, Phase& ph) {
  std::array<std::vector<std::int32_t>, serve::kNumQosClasses> nodes;
  std::vector<const Record*> served;
  for (const Record& r : ph.records) {
    if (!r.served) continue;
    nodes[ClassIndex(r.qos)].push_back(r.node);
    served.push_back(&r);
  }
  const Answers want = DirectAnswers(
      nodes, dep.policies,
      [&](const std::vector<std::int32_t>& list,
          const core::InferenceConfig& cfg) {
        return dep.engine->Infer(list, cfg);
      });
  CompareServed(served, want, ph.check);
  CheckInt8Budget(*dep.engine, dep.policies,
                  nodes[ClassIndex(QosClass::kThroughputFirst)], ph.check);
}

/// Churn: every served answer against an engine on the snapshot of the
/// epoch it was computed under (rebuilt here by an independent
/// SnapshotBuilder chain), then the final-epoch verify answers against an
/// engine on MergeFromScratch of every applied delta.
void CheckChurn(Deployment& dep, Phase& ph,
                const std::vector<Record>& verify) {
  std::map<std::uint64_t, std::vector<const Record*>> by_epoch;
  for (const Record& r : ph.records) {
    if (r.served) by_epoch[r.epoch].push_back(&r);
  }
  core::EngineOptions options;
  options.quantized = dep.quantized;
  graph::SnapshotBuilder builder(dep.snapshot, dep.depth);
  std::shared_ptr<const graph::GraphSnapshot> snap = dep.snapshot;
  for (std::uint64_t epoch = 0; epoch <= ph.deltas_applied; ++epoch) {
    if (epoch > 0) snap = builder.Apply(ph.deltas[epoch - 1]);
    const auto it = by_epoch.find(epoch);
    if (it == by_epoch.end()) continue;
    core::NaiEngine engine =
        core::NaiEngine::FromSnapshot(snap, *dep.classifiers, options);
    std::array<std::vector<std::int32_t>, serve::kNumQosClasses> nodes;
    for (const Record* r : it->second) nodes[ClassIndex(r->qos)].push_back(r->node);
    const Answers want = DirectAnswers(
        nodes, dep.policies,
        [&](const std::vector<std::int32_t>& list,
            const core::InferenceConfig& cfg) {
          return engine.Infer(list, cfg);
        });
    CompareServed(it->second, want, ph.check);
  }
  for (const auto& [epoch, recs] : by_epoch) {
    if (epoch > ph.deltas_applied) ph.check.mismatches += recs.size();
  }

  const std::vector<graph::GraphDelta> applied(
      ph.deltas.begin(),
      ph.deltas.begin() + static_cast<std::ptrdiff_t>(ph.deltas_applied));
  const auto merged = graph::MergeFromScratch(*dep.snapshot, applied);
  core::NaiEngine oracle =
      core::NaiEngine::FromSnapshot(merged, *dep.classifiers, options);
  std::array<std::vector<std::int32_t>, serve::kNumQosClasses> nodes;
  for (const Record& r : verify) nodes[ClassIndex(r.qos)].push_back(r.node);
  const Answers want = DirectAnswers(
      nodes, dep.policies,
      [&](const std::vector<std::int32_t>& list,
          const core::InferenceConfig& cfg) { return oracle.Infer(list, cfg); });
  for (const Record& r : verify) {
    ++ph.check.verify_checked;
    const auto& m = want[ClassIndex(r.qos)];
    const auto it = m.find(r.node);
    if (!r.served || r.epoch != ph.deltas_applied || it == m.end() ||
        it->second != r.prediction) {
      ++ph.check.verify_mismatches;
    }
  }
  std::vector<std::int32_t> tp;
  for (const Record& r : ph.records) {
    if (r.served && r.qos == QosClass::kThroughputFirst) tp.push_back(r.node);
  }
  CheckInt8Budget(*dep.engine, dep.policies, std::move(tp), ph.check);
}

/// The final-epoch verify pass of churn_open: every node the churn
/// inserted plus a seeded sample of pool nodes, speed- and
/// throughput-first alternately, through the live server.
std::vector<Record> VerifyPass(serve::ServingEngine& server,
                               const Deployment& dep, std::uint64_t seed) {
  std::vector<std::int32_t> nodes;
  const std::int64_t base = dep.snapshot->num_nodes();
  const std::int64_t now = server.engine().PinState()->snapshot->num_nodes();
  for (std::int64_t v = base; v < now; ++v) {
    nodes.push_back(static_cast<std::int32_t>(v));
  }
  std::vector<std::int32_t> sample = dep.pool;
  tensor::Rng rng(seed + 99);
  rng.Shuffle(sample);
  sample.resize(std::min<std::size_t>(sample.size(), 500));
  nodes.insert(nodes.end(), sample.begin(), sample.end());
  std::vector<Record> out(nodes.size());
  std::atomic<std::size_t> next{0};
  auto client = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= nodes.size()) return;
      Record& r = out[i];
      r.node = nodes[i];
      r.qos = i % 2 == 0 ? QosClass::kSpeedFirst : QosClass::kThroughputFirst;
      const serve::Response resp = server.Submit(r.node, r.qos).get();
      r.sent = true;
      r.served = resp.served;
      r.prediction = resp.prediction;
      r.epoch = resp.epoch;
    }
  };
  RunOnThreads(kClients, client);
  return out;
}

serve::ServingOptions ServingOptionsFor() {
  serve::ServingOptions options;
  options.queue_capacity = 4096;
  options.batcher.max_batch = 64;
  options.batcher.max_wait_us = 200;
  return options;
}

/// One measured phase on a fresh ServingEngine over dep.engine: warm-up,
/// timed window, drain, churn verify, shutdown, correctness gate.
Phase RunPhase(Deployment& dep, const Workload& w,
               const std::vector<std::int32_t>& order, std::uint64_t seed,
               double seconds) {
  Phase ph;
  const double warm_ms = dep.store ? 0.0 : 1e3 * kWarmupS;
  const double end_ms = warm_ms + 1e3 * seconds;
  const Plan plan = MakePlan(w, order, seed, end_ms / 1e3);
  ph.records.resize(plan.nodes.size());
  if (w.updates_per_sec > 0.0) {
    const std::size_t n = static_cast<std::size_t>(
        std::ceil(end_ms / 1e3 * w.updates_per_sec)) + 1;
    ph.deltas = eval::MakeChurnDeltas(
        dep.snapshot->num_nodes(),
        static_cast<std::int64_t>(dep.snapshot->feature_dim()), n,
        /*nodes_per_delta=*/16, /*edges_per_delta=*/32,
        /*feature_updates_per_delta=*/16, seed + 1);
  }

  serve::ServingEngine server(*dep.engine, dep.policies, ServingOptionsFor());
  UnmapStorePages(dep);
  const Clock::time_point start = Clock::now();

  std::unique_ptr<Worker> updater;
  if (!ph.deltas.empty()) {
    updater = std::make_unique<Worker>([&] {
      const double gap_ms = 1e3 / w.updates_per_sec;
      for (std::size_t d = 0; d < ph.deltas.size(); ++d) {
        UpdateRecord u;
        u.due = gap_ms * static_cast<double>(d + 1);
        if (u.due >= end_ms) break;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(u.due)));
        u.call = Elapsed(start);
        server.ApplyDeltas(ph.deltas[d]).get();
        u.done = Elapsed(start);
        u.counted = u.due >= warm_ms;
        ph.updates.push_back(u);
        ph.deltas_applied = d + 1;
      }
    });
  }

  // Window bookkeeping from the main thread: server counters and rusage at
  // the window edges.
  Worker generator([&] {
    if (w.loop == Loop::kOpen) {
      RunOpenLoop(server, plan, start, ph.records);
    } else {
      RunClosedLoop(server, plan, start, end_ms, ph.records);
    }
  });
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(warm_ms)));
  ph.before = server.Stats();
  ph.usage_before = Usage::Now();
  generator.Join();
  if (updater) updater->Join();
  ph.usage_after = Usage::Now();
  ph.after = server.Stats();
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  ph.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  ph.resident_share = StoreResidentShare(dep);

  double window_end = end_ms;
  for (Record& r : ph.records) {
    r.counted = r.sent && r.t.due >= warm_ms && r.t.due < end_ms;
  }
  if (w.loop == Loop::kClosed) {
    // A closed loop that ran out of plan ends its window early.
    double last_call = warm_ms;
    for (const Record& r : ph.records) {
      if (r.sent) last_call = std::max(last_call, r.t.call);
    }
    if (std::all_of(ph.records.begin(), ph.records.end(),
                    [](const Record& r) { return r.sent; })) {
      window_end = std::min(end_ms, last_call);
    }
  }
  ph.window_ms = window_end - warm_ms;

  std::vector<Record> verify;
  if (!ph.deltas.empty()) verify = VerifyPass(server, dep, seed);
  server.Shutdown();

  ph.e2e = Summarize(dep, {&ph});
  if (!ph.deltas.empty()) {
    CheckChurn(dep, ph, verify);
  } else {
    CheckStatic(dep, ph);
  }
  return ph;
}

// --- Per-layer metrics of a traced phase -----------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::int64_t Diff(std::int64_t a, std::int64_t b) { return b - a; }

/// Replays the phase's own engine-served requests in batches of the
/// observed mean size, timing the engine, the support sampler and the
/// feature store separately.
struct Replay {
  std::size_t batches = 0;
  double infer_ms = 0.0;
  double sample_ms = 0.0;
  double gather_ms = 0.0;
  std::int64_t support_nodes = 0;
  std::int64_t gathered_rows = 0;
  std::size_t requests = 0;
};

Replay ReplayLayers(Deployment& dep, const Phase& ph, std::size_t batch) {
  Replay out;
  std::vector<const Record*> reqs;
  for (const Record& r : ph.records) {
    if (r.counted && r.served && !r.hit) reqs.push_back(&r);
  }
  std::sort(reqs.begin(), reqs.end(), [](const Record* a, const Record* b) {
    return a->t.call < b->t.call;
  });
  if (reqs.size() > kReplayRequests) reqs.resize(kReplayRequests);
  if (reqs.empty() || batch == 0) return out;
  const auto state = dep.engine->PinState();
  std::vector<std::unique_ptr<graph::SupportSampler>> samplers;
  for (std::size_t s = 0; s < state->engines.size(); ++s) {
    samplers.push_back(state->engines[s]
                           ? std::make_unique<graph::SupportSampler>(
                                 state->engines[s]->norm_adj())
                           : nullptr);
  }
  for (std::size_t b = 0; b < reqs.size(); b += batch) {
    const std::size_t e = std::min(reqs.size(), b + batch);
    std::vector<core::ConfiguredQuery> queries;
    for (std::size_t i = b; i < e; ++i) {
      queries.push_back(
          {reqs[i]->node, &dep.policies.For(reqs[i]->qos).config});
    }
    Clock::time_point t0 = Clock::now();
    dep.engine->InferMixed(queries);
    out.infer_ms += MsBetween(t0, Clock::now());

    // The same batch through the sampler and the feature store, grouped by
    // owning shard and class the way the engine groups it.
    std::map<std::pair<std::size_t, std::size_t>, std::vector<std::int32_t>>
        groups;
    for (std::size_t i = b; i < e; ++i) {
      const std::size_t s =
          static_cast<std::size_t>(state->sharded.owner[reqs[i]->node]);
      groups[{s, ClassIndex(reqs[i]->qos)}].push_back(
          state->sharded.shards[s].global_to_local[reqs[i]->node]);
    }
    for (const auto& [key, local] : groups) {
      const int depth = dep.policies.For(static_cast<QosClass>(key.second))
                            .config.effective_t_max(dep.depth);
      t0 = Clock::now();
      const graph::BatchSupport support =
          samplers[key.first]->SampleMapped(local, depth);
      const Clock::time_point t1 = Clock::now();
      // Identity shards read the base store directly (no per-shard view).
      const storage::FeatureStore& features =
          state->shard_features[key.first] ? *state->shard_features[key.first]
                                           : *state->base_features;
      const tensor::Matrix rows = features.GatherRows(support.nodes);
      const Clock::time_point t2 = Clock::now();
      out.sample_ms += MsBetween(t0, t1);
      out.gather_ms += MsBetween(t1, t2);
      out.support_nodes += support.num_supporting();
      out.gathered_rows += static_cast<std::int64_t>(rows.rows());
    }
    ++out.batches;
  }
  out.requests = reqs.size();
  return out;
}

/// Churn only: the phase's applied deltas through a separate
/// SnapshotBuilder and a separate engine's SwapSnapshot.
struct DeltaReplay {
  std::size_t deltas = 0;
  double build_ms = 0.0;
  double swap_ms = 0.0;
  std::int64_t rows_recomputed = 0;
  std::int64_t rows_copied = 0;
};

DeltaReplay ReplayDeltas(const Deployment& dep, const Phase& ph) {
  DeltaReplay out;
  if (ph.deltas_applied == 0) return out;
  core::ShardedNaiEngine engine(
      dep.snapshot, graph::MakeShards(dep.snapshot->adj(), kShards, dep.depth),
      *dep.classifiers, nullptr, /*use_stationary=*/true, kEngineThreads);
  engine.AttachQuantizedClassifiers(dep.quantized);
  graph::SnapshotBuilder builder(dep.snapshot, dep.depth);
  for (std::size_t d = 0; d < ph.deltas_applied; ++d) {
    Clock::time_point t0 = Clock::now();
    auto next = builder.Apply(ph.deltas[d]);
    const Clock::time_point t1 = Clock::now();
    engine.SwapSnapshot(std::move(next));
    const Clock::time_point t2 = Clock::now();
    out.build_ms += MsBetween(t0, t1);
    out.swap_ms += MsBetween(t1, t2);
    out.rows_recomputed += builder.last_stats().norm_rows_recomputed;
    out.rows_copied += builder.last_stats().norm_rows_copied;
    ++out.deltas;
  }
  return out;
}

/// Builds the request spans of a traced phase: `request` (due -> done) with
/// children serve.admit (the submit call), serve.queue and serve.exec (from
/// the Response's queue_ms and latency_ms, anchored at the call).
perfbench::Tracer BuildSpans(const Phase& ph) {
  perfbench::Tracer tracer;
  for (std::size_t i = 0; i < ph.records.size(); ++i) {
    const Record& r = ph.records[i];
    if (!r.counted || !r.served) continue;
    const auto id = static_cast<std::int64_t>(i);
    const int root = tracer.Add(id, "request", -1, r.t.due, r.t.done);
    tracer.Add(id, "serve.admit", root, r.t.call, r.t.ret);
    if (r.hit) continue;
    const double formed = r.t.call + r.queue_ms;
    tracer.Add(id, "serve.queue", root, r.t.call, formed);
    tracer.Add(id, "serve.exec", root, formed, r.t.done);
  }
  return tracer;
}

void WriteSpans(const perfbench::Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const perfbench::Span& s : tracer.spans()) {
    std::fprintf(f,
                 "{\"request\": %lld, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                 static_cast<long long>(s.request), s.name.c_str(), s.parent,
                 s.start, s.end);
  }
  std::fclose(f);
}

std::vector<Metric> PerLayerMetrics(const Deployment& dep,
                                    const EndToEnd& untraced, const Phase& ph,
                                    const Replay& replay,
                                    const DeltaReplay& deltas,
                                    const perfbench::Tracer& tracer) {
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  const serve::ServingStatsSnapshot& a = ph.before;
  const serve::ServingStatsSnapshot& b = ph.after;
  const core::InferenceStats& ea = a.engine_stats;
  const core::InferenceStats& eb = b.engine_stats;
  const double reqs = static_cast<double>(std::max<std::int64_t>(1, ph.e2e.sent));
  const double engine_reqs =
      static_cast<double>(std::max<std::int64_t>(1, eb.num_nodes - ea.num_nodes));
  const std::int64_t batches = Diff(a.num_batches, b.num_batches);
  const double nb = static_cast<double>(std::max<std::int64_t>(1, batches));

  // serve
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  for (const Record& r : ph.records) {
    if (!r.counted) continue;
    submit_us.push_back(1e3 * (r.t.ret - r.t.call));
    if (!r.served || r.hit) continue;
    queue_ms.push_back(r.queue_ms);
    exec_ms.push_back(r.server_ms - r.queue_ms);
  }
  add("serve.submit_p50_us", perfbench::Median(submit_us), "us");
  add("serve.submit_p99_us", perfbench::TailPercentile(submit_us).value, "us");
  add("serve.queue_p50_ms", perfbench::Median(queue_ms), "ms");
  add("serve.queue_p99_ms", perfbench::TailPercentile(queue_ms).value, "ms");
  add("serve.exec_p50_ms", perfbench::Median(exec_ms), "ms");
  add("serve.exec_p99_ms", perfbench::TailPercentile(exec_ms).value, "ms");
  add("serve.mean_batch",
      static_cast<double>(eb.num_nodes - ea.num_nodes) / nb, "count");
  add("serve.batches", static_cast<double>(batches), "count");
  double wait_sum = 0.0;
  std::size_t wait_n = 0;
  for (const serve::SchedulerTraceEvent& ev : b.adaptation_trace) {
    if (ev.applied_wait_us < 0) continue;
    wait_sum += static_cast<double>(ev.applied_wait_us);
    ++wait_n;
  }
  add("serve.window_us", wait_n ? wait_sum / static_cast<double>(wait_n) : 0.0,
      "us");
  const std::int64_t hits = Diff(a.cache_hits, b.cache_hits);
  const std::int64_t misses = Diff(a.cache_misses, b.cache_misses);
  add("serve.cache_hit_ratio",
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0,
      "ratio");
  add("serve.cache_hits", static_cast<double>(hits), "count");
  add("serve.cache_misses", static_cast<double>(misses), "count");
  add("serve.shed", static_cast<double>(Diff(a.rejected, b.rejected)), "count");
  add("serve.shed_adaptive",
      static_cast<double>(Diff(a.shed_adaptive, b.shed_adaptive)), "count");
  add("serve.deadline_misses",
      static_cast<double>(Diff(a.deadline_misses, b.deadline_misses)),
      "count");
  add("serve.stolen_requests",
      static_cast<double>(Diff(a.stolen_requests, b.stolen_requests)),
      "count");
  add("serve.steal_fallback",
      static_cast<double>(
          Diff(a.steal_fallback_requests, b.steal_fallback_requests)),
      "count");
  add("serve.stale_served",
      static_cast<double>(Diff(a.stale_served, b.stale_served)), "count");
  add("serve.snapshot_swaps",
      static_cast<double>(Diff(a.snapshot_swaps, b.snapshot_swaps)), "count");
  const double busy_ms = eb.wall_time_ms - ea.wall_time_ms;
  add("serve.engine_busy_share",
      busy_ms / (static_cast<double>(dep.shards()) * ph.window_ms), "ratio");

  // core
  add("core.infer_ms_per_batch", busy_ms / nb, "ms");
  add("core.sample_ms_per_req",
      (eb.sample_time_ms - ea.sample_time_ms) / engine_reqs, "ms");
  add("core.propagate_ms_per_req", (eb.fp_time_ms - ea.fp_time_ms) / engine_reqs,
      "ms");
  add("core.stationary_ms_per_req",
      (eb.stationary_time_ms - ea.stationary_time_ms) / engine_reqs, "ms");
  add("core.classify_ms_per_req",
      (eb.classify_time_ms - ea.classify_time_ms) / engine_reqs, "ms");
  const double prop_macs =
      static_cast<double>(eb.propagation_macs - ea.propagation_macs);
  const double cls_macs =
      static_cast<double>(eb.classification_macs - ea.classification_macs);
  add("core.prop_macs_per_req", prop_macs / engine_reqs, "count");
  add("core.nap_macs_per_req",
      static_cast<double>(eb.nap_macs - ea.nap_macs) / engine_reqs, "count");
  add("core.classify_macs_per_req", cls_macs / engine_reqs, "count");
  double depth_sum = 0.0;
  double exits = 0.0;
  for (std::size_t d = 0; d < 5; ++d) {
    const std::int64_t before =
        d < ea.exits_at_depth.size() ? ea.exits_at_depth[d] : 0;
    const std::int64_t after =
        d < eb.exits_at_depth.size() ? eb.exits_at_depth[d] : 0;
    const double n = static_cast<double>(after - before);
    add("core.exits_d" + std::to_string(d + 1), n, "count");
    depth_sum += n * static_cast<double>(d + 1);
    exits += n;
  }
  add("core.mean_exit_depth", exits > 0 ? depth_sum / exits : 0.0, "hops");
  add("core.replay_infer_ms",
      replay.batches ? replay.infer_ms / static_cast<double>(replay.batches)
                     : 0.0,
      "ms");
  add("core.swap_ms",
      deltas.deltas ? deltas.swap_ms / static_cast<double>(deltas.deltas) : 0.0,
      "ms");

  // graph
  add("graph.sample_ms_per_batch",
      replay.batches ? replay.sample_ms / static_cast<double>(replay.batches)
                     : 0.0,
      "ms");
  add("graph.support_nodes_per_req",
      replay.requests ? static_cast<double>(replay.support_nodes) /
                            static_cast<double>(replay.requests)
                      : 0.0,
      "count");
  const double nd = static_cast<double>(std::max<std::size_t>(1, deltas.deltas));
  add("graph.delta_build_ms", deltas.build_ms / nd, "ms");
  add("graph.rows_recomputed", static_cast<double>(deltas.rows_recomputed) / nd,
      "count");
  add("graph.rows_copied", static_cast<double>(deltas.rows_copied) / nd,
      "count");

  // storage
  add("storage.resident_share", ph.resident_share, "ratio");
  add("storage.major_faults_per_req",
      static_cast<double>(ph.usage_after.majflt - ph.usage_before.majflt) / reqs,
      "count");
  add("storage.minor_faults_per_req",
      static_cast<double>(ph.usage_after.minflt - ph.usage_before.minflt) / reqs,
      "count");
  add("storage.gather_ms_per_batch",
      replay.batches ? replay.gather_ms / static_cast<double>(replay.batches)
                     : 0.0,
      "ms");

  // tensor: rates from the engine's MAC counters over its busy stage time;
  // bytes are computed (value + column index + source feature element per
  // propagation MAC), not measured.
  const double fp_ms = eb.fp_time_ms - ea.fp_time_ms;
  const double cls_ms = eb.classify_time_ms - ea.classify_time_ms;
  add("tensor.spmm_gflops", fp_ms > 0 ? 2.0 * prop_macs / (fp_ms * 1e6) : 0.0,
      "GFLOP/s");
  add("tensor.classify_gflops",
      cls_ms > 0 ? 2.0 * cls_macs / (cls_ms * 1e6) : 0.0, "GFLOP/s");
  add("tensor.spmm_bytes_per_req", 12.0 * prop_macs / engine_reqs, "B");

  // runtime
  const long nproc = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  add("runtime.cpu_util",
      (ph.usage_after.cpu_s - ph.usage_before.cpu_s) /
          (1e-3 * ph.window_ms * static_cast<double>(nproc)),
      "ratio");
  add("runtime.vol_ctx_switches_per_req",
      static_cast<double>(ph.usage_after.nvcsw - ph.usage_before.nvcsw) / reqs,
      "count");
  add("runtime.invol_ctx_switches_per_req",
      static_cast<double>(ph.usage_after.nivcsw - ph.usage_before.nivcsw) /
          reqs,
      "count");

  // loadgen
  add("loadgen.sent", static_cast<double>(ph.e2e.sent), "count");
  add("loadgen.succeeded", static_cast<double>(ph.e2e.served), "count");
  add("loadgen.failed", static_cast<double>(ph.e2e.sent - ph.e2e.served),
      "count");
  add("loadgen.lag_p99_ms", ph.e2e.lag_tail.value, "ms");

  // End-to-end figures that exist only on some workloads (0 where the
  // workload has no labels or no updates).
  add("failed_ratio", ph.e2e.failed_ratio, "ratio");
  add("test_accuracy", std::max(0.0, ph.e2e.test_accuracy), "ratio");
  add("update_p50_ms", ph.e2e.update_p50_ms, "ms");
  add("update_p95_ms", ph.e2e.update_tail.value, "ms");

  // trace: the traced phase minus the untraced one, and span self time.
  add("trace.overhead_p50_ms",
      ph.e2e.latency_p50_ms - untraced.latency_p50_ms, "ms");
  add("trace.overhead_p99_ms",
      ph.e2e.latency_tail.value - untraced.latency_tail.value, "ms");
  add("trace.overhead_qps",
      untraced.throughput_qps - ph.e2e.throughput_qps, "1/s");
  const std::vector<double> self = tracer.SelfTimes();
  add("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  add("trace.request_self_ms", tracer.MeanSelfTime("request", self), "ms");
  add("trace.exec_self_ms", tracer.MeanSelfTime("serve.exec", self), "ms");
  return m;
}

// --- Output ----------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintPhase(const char* label, const Phase& ph) {
  const EndToEnd& e = ph.e2e;
  std::printf(
      "%s: sent %lld served %lld in %.0f ms | %.1f q/s | p50 %.4f ms | "
      "p%.2f %.4f ms (n=%zu, %zu beyond) | speed p%.2f %.4f ms (n=%zu) | "
      "slo %.4f | failed %.4f | acc %.4f | updates %lld p50 %.2f ms "
      "p%.2f %.2f ms | lag p%.2f %.4f ms\n",
      label, static_cast<long long>(e.sent), static_cast<long long>(e.served),
      ph.window_ms, e.throughput_qps, e.latency_p50_ms,
      100 * e.latency_tail.quantile, e.latency_tail.value, e.latency_tail.count,
      e.latency_tail.beyond, 100 * e.speed_tail.quantile, e.speed_tail.value,
      e.speed_tail.count, e.slo_attainment, e.failed_ratio, e.test_accuracy,
      static_cast<long long>(e.updates), e.update_p50_ms,
      100 * e.update_tail.quantile, e.update_tail.value,
      100 * e.lag_tail.quantile, e.lag_tail.value);
  // Served requests per second of the window, by due time.
  std::vector<int> per_s(static_cast<std::size_t>(std::ceil(ph.window_ms / 1e3)), 0);
  double warm = 1e18;
  for (const Record& r : ph.records) {
    if (r.counted) warm = std::min(warm, r.t.due);
  }
  for (const Record& r : ph.records) {
    if (!r.counted || !r.served) continue;
    const std::size_t b = static_cast<std::size_t>((r.t.due - warm) / 1e3);
    if (b < per_s.size()) ++per_s[b];
  }
  std::printf("%s served per second:", label);
  for (const int n : per_s) std::printf(" %d", n);
  std::printf("\n");
  const Check& c = ph.check;
  std::printf(
      "%s check: %zu/%zu served answers match direct Infer | int8 flips "
      "%zu/%zu (budget %.3f) | verify %zu/%zu -> %s\n",
      label, c.checked - c.mismatches, c.checked, c.int8_flips, c.int8_nodes,
      c.int8_budget, c.verify_checked - c.verify_mismatches, c.verify_checked,
      c.ok() ? "ok" : "MISMATCH");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  std::string rev = "unknown";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else if (k == "--rev") {
      a.rev = v;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !(a.seconds > 0.0)) return std::nullopt;
  return a;
}

int Run(const Args& args) {
  const std::optional<Workload> found = FindWorkload(args.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  runtime::ThreadPool::SetDefaultThreads(1);

  // Setup, several times: process start (first rep) or rep start until the
  // server over the fresh engine accepts its first request.
  std::vector<double> setup_ms;
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();
    const Clock::time_point t0 = rep == 0 ? g_process_start : Clock::now();
    dep = w.outofcore ? BuildOutOfCoreDeployment(args.workdir)
                      : BuildArxivDeployment();
    {
      serve::ServingEngine probe(*dep->engine, dep->policies,
                                 ServingOptionsFor());
    }
    setup_ms.push_back(MsBetween(t0, Clock::now()));
  }
  std::printf("record: {\"workload\": \"%s\", \"seed\": %llu, \"rev\": "
              "\"%s\", \"simd\": \"%s\", \"nproc\": %ld, \"engine_threads\": "
              "%d, \"shards\": %d, \"clients\": %d, \"backend\": \"%s\", "
              "\"nodes\": %lld, \"rate_qps\": %.1f, \"updates_per_sec\": %.1f, "
              "\"seconds\": %.3f, \"trace\": %d}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.rev.c_str(),
              tensor::simd::LevelName(tensor::simd::ActiveLevel()),
              ::sysconf(_SC_NPROCESSORS_ONLN), kEngineThreads, dep->shards(),
              w.loop == Loop::kClosed ? kClients : 1, dep->backend().c_str(),
              static_cast<long long>(dep->snapshot->num_nodes()), w.rate_qps,
              w.updates_per_sec, args.seconds, args.trace ? 1 : 0);
  std::printf("setup ms:");
  for (const double s : setup_ms) std::printf(" %.1f", s);
  std::printf("\n");

  // A once-through closed loop serves a prefix of the order, so its order
  // is spread over the dominant cost: the accuracy-first exit depth.
  std::vector<std::int32_t> exit_depths;
  if (w.zipf_alpha == 0.0) {
    exit_depths =
        dep->engine
            ->Infer(dep->pool,
                    dep->policies.For(QosClass::kAccuracyFirst).config)
            .exit_depths;
  }
  const std::vector<std::int32_t> order =
      SpreadOrder(dep->pool, exit_depths, dep->snapshot->adj(), args.seed);
  // The timed measurement: kSubPhases identical sub-phases (the same seeded
  // plan on a fresh engine and server each), pooled.
  std::vector<Phase> runs;
  bool correct = true;
  const double sub_seconds = args.seconds / kSubPhases;
  for (int i = 0; i < kSubPhases; ++i) {
    dep->BuildEngine();
    runs.push_back(RunPhase(*dep, w, order, args.seed, sub_seconds));
    PrintPhase(("untraced." + std::to_string(i)).c_str(), runs.back());
    correct = correct && runs.back().check.ok();
  }
  std::vector<const Phase*> pooled;
  for (const Phase& ph : runs) pooled.push_back(&ph);
  const EndToEnd e = Summarize(*dep, pooled);
  std::int64_t attempted = e.sent;
  std::int64_t failed = e.sent - e.served;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", perfbench::Median(setup_ms) / 1e3, "s"},
        {"throughput_qps", e.throughput_qps, "1/s"},
        {"latency_p50_ms", e.latency_p50_ms, "ms"},
        {"latency_p99_ms", e.latency_tail.value, "ms"},
        {"speed_p99_ms", e.speed_tail.value, "ms"},
        {"slo_attainment", e.slo_attainment, "ratio"},
        {"peak_rss_mb", e.peak_rss_mb, "MB"},
    };
  } else {
    // One more sub-phase of the same length, traced, then the replay.
    dep->BuildEngine();
    const Phase traced = RunPhase(*dep, w, order, args.seed, sub_seconds);
    PrintPhase("traced", traced);
    correct = correct && traced.check.ok();
    attempted = traced.e2e.sent;
    failed = traced.e2e.sent - traced.e2e.served;
    const std::int64_t nb = std::max<std::int64_t>(
        1, traced.after.num_batches - traced.before.num_batches);
    const double mean_batch =
        static_cast<double>(traced.after.engine_stats.num_nodes -
                            traced.before.engine_stats.num_nodes) /
        static_cast<double>(nb);
    const Replay replay = ReplayLayers(
        *dep, traced,
        static_cast<std::size_t>(std::max(1.0, std::round(mean_batch))));
    const DeltaReplay deltas = ReplayDeltas(*dep, traced);
    const perfbench::Tracer tracer = BuildSpans(traced);
    metrics = PerLayerMetrics(*dep, e, traced, replay, deltas, tracer);
    const std::string span_path = args.workdir + "/spans_" + w.name + "_" +
                                  std::to_string(args.seed) + ".jsonl";
    WriteSpans(tracer, span_path);
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                span_path.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  if (!correct) {
    std::fprintf(stderr, "FAIL: served answers diverged from direct Infer\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--generate-store") {
    graph::GenerateScaled(OutOfCoreGraphConfig(), argv[2]);
    return 0;
  }
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: nai_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--rev REV]\n");
    return 2;
  }
  try {
    return Run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nai_perfbench: %s\n", e.what());
    return 1;
  }
}
