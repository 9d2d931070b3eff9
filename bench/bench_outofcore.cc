// Out-of-core serving: the mmap storage backend against the in-memory
// baseline.
//
// Two stages:
//   1. Exactness gate: on a Chung-Lu synthetic graph, engines over an mmap
//      store must reproduce the mem engines bit-for-bit — predictions,
//      exit depths, MAC counters — across shard counts {1, 2, 4} plus the
//      identity (out-of-core) partition, under all three QoS-shaped
//      configs (speed-first, accuracy-first, INT8 throughput-first) mixed
//      in one InferMixed stream.
//   2. Scaled out-of-core run: graph::GenerateScaled streams a power-law
//      ring+chords graph (kept >= 1M nodes at NAI_SCALE = 1) straight into
//      the on-disk layout without materializing it in RAM; a one-shard
//      identity-partition ServingEngine serves a Zipf-skewed closed loop
//      from the mapped file, and per graph size we record the mapped vs
//      mincore-resident store bytes (the working set), cache hit ratio and
//      latency percentiles, plus the store's write time (generation,
//      checksum and msync) and the time of one verifying open (a full
//      data-checksum pass over the freshly written, page-cached file).
//
// Flags: --threads N, --json PATH (default BENCH_outofcore.json),
// --requests N (Zipf draws per scaled cell). NAI_SCALE shrinks the scaled
// graph sizes.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/inference.h"
#include "src/core/sharded_inference.h"
#include "src/eval/datasets.h"
#include "src/graph/delta.h"
#include "src/graph/generators.h"
#include "src/graph/shard.h"
#include "src/serve/qos.h"
#include "src/serve/serving_engine.h"
#include "src/storage/mmap_store.h"

namespace {

using namespace nai;
using Clock = std::chrono::steady_clock;

void Appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

std::string TempStorePath(const char* tag) {
  return "/tmp/nai_bench_outofcore_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

/// The three QoS-class-shaped configs of serve::DefaultQosPolicyTable.
std::vector<core::InferenceConfig> QosConfigs(int k) {
  const serve::QosPolicyTable table = serve::DefaultQosPolicyTable(k);
  return {table.For(serve::QosClass::kSpeedFirst).config,
          table.For(serve::QosClass::kAccuracyFirst).config,
          table.For(serve::QosClass::kThroughputFirst).config};
}

// --- Stage 1: exactness gate -----------------------------------------------

bool RunExactnessGate(int k) {
  graph::GeneratorConfig gen;
  gen.num_nodes = 2000;
  gen.num_edges = 10000;
  gen.feature_dim = 32;
  gen.num_classes = 8;
  gen.seed = 13;
  graph::SyntheticDataset ds = graph::GenerateDataset(gen);

  models::ModelConfig mc;
  mc.kind = models::ModelKind::kSgc;
  mc.depth = k;
  mc.gamma = 0.5f;
  mc.feature_dim = ds.features.cols();
  mc.num_classes = ds.num_classes;
  mc.hidden_dims = {32};
  core::ClassifierStack classifiers(mc, 99);
  core::QuantizedClassifierStack quantized(classifiers);

  const auto mem_snapshot = graph::MakeSnapshot(std::move(ds.graph),
                                                std::move(ds.features), 0.5f);
  const std::string path = TempStorePath("gate");
  storage::SaveStore(*mem_snapshot->graph_store, *mem_snapshot->feature_store,
                     path);
  auto store = std::make_shared<storage::MmapStore>(path);
  ::unlink(path.c_str());
  const auto mmap_snapshot = graph::MakeSnapshotFromStore(store, store);

  // The mixed QoS query stream every cell must answer identically.
  const std::vector<core::InferenceConfig> configs = QosConfigs(k);
  std::vector<core::ConfiguredQuery> queries;
  for (std::int64_t v = 0; v < mem_snapshot->num_nodes(); ++v) {
    queries.push_back({static_cast<std::int32_t>(v),
                       &configs[static_cast<std::size_t>(v) % configs.size()]});
  }

  core::EngineOptions options;
  options.quantized = &quantized;
  core::NaiEngine reference =
      core::NaiEngine::FromSnapshot(mem_snapshot, classifiers, options);
  const core::InferenceResult want = reference.InferMixed(queries);

  auto check = [&](const char* label, const core::InferenceResult& got) {
    const bool ok = got.predictions == want.predictions &&
                    got.exit_depths == want.exit_depths &&
                    got.stats.exits_at_depth == want.stats.exits_at_depth;
    std::printf("  %-22s %s\n", label, ok ? "bit-exact" : "MISMATCH");
    return ok;
  };

  bool exact = true;
  std::printf("exactness gate (mmap vs mem, %lld nodes, 3 QoS configs):\n",
              static_cast<long long>(mem_snapshot->num_nodes()));
  {
    core::NaiEngine unsharded =
        core::NaiEngine::FromSnapshot(mmap_snapshot, classifiers, options);
    exact = check("unsharded", unsharded.InferMixed(queries)) && exact;
  }
  for (const int shards : {1, 2, 4}) {
    core::ShardedNaiEngine engine(
        mmap_snapshot, graph::MakeShards(mmap_snapshot->adj(), shards),
        classifiers, nullptr);
    engine.AttachQuantizedClassifiers(&quantized);
    char label[32];
    std::snprintf(label, sizeof label, "%d shard(s)", shards);
    exact = check(label, engine.InferMixed(queries)) && exact;
  }
  {
    core::ShardedNaiEngine identity(
        mmap_snapshot, graph::IdentityShards(mmap_snapshot->num_nodes()),
        classifiers, nullptr);
    identity.AttachQuantizedClassifiers(&quantized);
    exact = check("identity (out-of-core)", identity.InferMixed(queries)) &&
            exact;
  }
  return exact;
}

// --- Stage 2: scaled out-of-core serving -----------------------------------

struct ScaledCell {
  double store_write_ms = 0.0;
  double verify_open_ms = 0.0;
  std::int64_t nodes = 0;
  std::int64_t edges = 0;
  std::int64_t file_bytes = 0;
  std::int64_t mapped_bytes = 0;
  std::int64_t resident_bytes = 0;
  bool residency_exact = false;
  double cache_hit_ratio = 0.0;
  std::int64_t requests = 0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

ScaledCell RunScaledCell(std::int64_t num_nodes, std::size_t num_requests,
                         int k, int threads) {
  graph::ScaledGraphConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.feature_dim = 32;
  cfg.seed = 4242;
  const std::string path = TempStorePath("scaled");
  ScaledCell cell;
  auto start = Clock::now();
  const std::int64_t m = graph::GenerateScaled(cfg, path);
  cell.store_write_ms = bench::MsSince(start);
  start = Clock::now();
  { const storage::MmapStore verified(path); }
  cell.verify_open_ms = bench::MsSince(start);

  // Open lazily: verifying the data checksum would fault every page in and
  // make the residency measurement meaningless.
  storage::MmapStore::Options lazy;
  lazy.verify_data = false;
  auto store = std::make_shared<storage::MmapStore>(path, lazy);
  // The generator just wrote the whole file through the page cache; evict
  // it so the serving run faults in only the pages the traffic touches and
  // the resident-set numbers measure the true working set.
  const int raw_fd = ::open(path.c_str(), O_RDONLY);
  if (raw_fd >= 0) {
    ::posix_fadvise(raw_fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(raw_fd);
  }
  ::unlink(path.c_str());
  store->Advise(storage::AccessHint::kRandom);
  const auto snapshot = graph::MakeSnapshotFromStore(store, store);

  models::ModelConfig mc;
  mc.kind = models::ModelKind::kSgc;
  mc.depth = k;
  mc.gamma = cfg.gamma;
  mc.feature_dim = static_cast<std::size_t>(cfg.feature_dim);
  mc.num_classes = 8;
  mc.hidden_dims = {32};
  core::ClassifierStack classifiers(mc, 7);
  core::QuantizedClassifierStack quantized(classifiers);

  // The out-of-core deployment: one shard engine reading the mapped store,
  // with no gathered feature copies.
  core::ShardedNaiEngine engine(
      snapshot, graph::IdentityShards(num_nodes), classifiers, nullptr,
      /*use_stationary=*/true, threads);
  engine.AttachQuantizedClassifiers(&quantized);
  serve::ServingOptions options;
  options.queue_capacity = 8192;
  serve::ServingEngine server(engine, serve::DefaultQosPolicyTable(k),
                              options);

  std::vector<std::int32_t> nodes(static_cast<std::size_t>(num_nodes));
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    nodes[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(v);
  }
  eval::ServingLoadConfig load;
  load.closed_loop_clients = std::max(4, 2 * threads);
  load.speed_first_fraction = 0.4;
  load.throughput_fraction = 0.2;
  load.zipf_alpha = 0.9;
  load.num_requests = num_requests;
  load.seed = 31;
  const eval::ServingRunReport report = eval::RunServing(server, nodes, load);
  const serve::ServingStatsSnapshot stats = server.Stats();

  cell.nodes = num_nodes;
  cell.edges = m;
  cell.file_bytes =
      storage::MmapLayout::Make(num_nodes, 2 * m, cfg.feature_dim).file_size;
  cell.mapped_bytes = stats.store_mapped_bytes;
  cell.resident_bytes = stats.store_resident_bytes;
  cell.residency_exact = stats.store_residency_exact;
  cell.cache_hit_ratio = stats.cache_hit_ratio;
  cell.requests = stats.completed;
  cell.achieved_qps = report.achieved_qps;
  cell.p50_ms = stats.latency.p50_ms;
  cell.p95_ms = stats.latency.p95_ms;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = bench::ApplyThreadsFlag(argc, argv);
  const char* json_path = runtime::ConsumeStringFlag(argc, argv, "--json");
  if (json_path == nullptr) json_path = "BENCH_outofcore.json";
  const long requests_flag = runtime::ConsumeIntFlag(argc, argv, "--requests");
  const double scale = eval::EnvScale();
  constexpr int kDepth = 3;

  bench::Banner("Out-of-core storage: mmap store vs in-memory baseline");

  const bool exact = RunExactnessGate(kDepth);

  // Scaled sizes: 2^18 and 2^20 nodes at scale 1 (the acceptance floor of
  // one million nodes), shrunk by NAI_SCALE for smoke runs.
  std::vector<std::int64_t> sizes;
  for (const std::int64_t base : {std::int64_t{1} << 18, std::int64_t{1} << 20}) {
    sizes.push_back(std::max<std::int64_t>(
        64, static_cast<std::int64_t>(static_cast<double>(base) * scale)));
  }
  const std::size_t requests =
      requests_flag > 0 ? static_cast<std::size_t>(requests_flag)
                        : static_cast<std::size_t>(
                              std::max<std::int64_t>(2000, sizes.back() / 64));

  std::printf("\nscaled out-of-core serving (identity shard, Zipf 0.9, "
              "%zu requests per cell):\n",
              requests);
  std::printf("  %-10s %-10s %-11s %-11s %-9s %-8s %-9s %-9s %-9s %-10s "
              "%s\n",
              "nodes", "edges", "mapped MB", "res. MB", "res. %", "hit %",
              "qps", "p50 ms", "p95 ms", "write ms", "verify ms");
  std::vector<ScaledCell> cells;
  for (const std::int64_t n : sizes) {
    const ScaledCell cell = RunScaledCell(n, requests, kDepth, threads);
    const double frac =
        cell.mapped_bytes > 0 ? 100.0 * static_cast<double>(cell.resident_bytes) /
                                    static_cast<double>(cell.mapped_bytes)
                              : 0.0;
    std::printf("  %-10lld %-10lld %-11.1f %-11.1f %-9.1f %-8.1f %-9.0f "
                "%-9.3f %-9.3f %-10.1f %.1f\n",
                static_cast<long long>(cell.nodes),
                static_cast<long long>(cell.edges),
                static_cast<double>(cell.mapped_bytes) / 1048576.0,
                static_cast<double>(cell.resident_bytes) / 1048576.0, frac,
                100.0 * cell.cache_hit_ratio, cell.achieved_qps, cell.p50_ms,
                cell.p95_ms, cell.store_write_ms, cell.verify_open_ms);
    cells.push_back(cell);
  }

  // --- JSON artifact. --------------------------------------------------------
  std::string json = "{\n";
  Appendf(json, "  \"scale\": %.4f,\n", scale);
  Appendf(json, "  \"threads\": %d,\n", threads);
  Appendf(json, "  \"exact\": %s,\n", exact ? "true" : "false");
  json += "  \"scaled\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ScaledCell& c = cells[i];
    Appendf(json,
            "%s\n    {\"nodes\": %lld, \"edges\": %lld, \"file_bytes\": %lld, "
            "\"mapped_bytes\": %lld, \"resident_bytes\": %lld, "
            "\"residency_exact\": %s, \"cache_hit_ratio\": %.4f, "
            "\"requests\": %lld, \"achieved_qps\": %.2f, \"p50_ms\": %.4f, "
            "\"p95_ms\": %.4f, \"store_write_ms\": %.1f, "
            "\"verify_open_ms\": %.1f}",
            i == 0 ? "" : ",", static_cast<long long>(c.nodes),
            static_cast<long long>(c.edges),
            static_cast<long long>(c.file_bytes),
            static_cast<long long>(c.mapped_bytes),
            static_cast<long long>(c.resident_bytes),
            c.residency_exact ? "true" : "false", c.cache_hit_ratio,
            static_cast<long long>(c.requests), c.achieved_qps, c.p50_ms,
            c.p95_ms, c.store_write_ms, c.verify_open_ms);
  }
  json += "\n  ]\n}\n";
  if (std::FILE* out = std::fopen(json_path, "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path);
  } else {
    std::printf("FAIL: cannot write %s\n", json_path);
    return 1;
  }

  if (!exact) {
    std::printf("\nFAIL: mmap-backed engines diverged from the in-memory "
                "baseline\n");
    return 1;
  }
  std::printf("\nmmap-backed serving bit-identical to the in-memory baseline\n");
  return 0;
}
