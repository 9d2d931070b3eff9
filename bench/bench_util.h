#ifndef NAI_BENCH_BENCH_UTIL_H_
#define NAI_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/eval/harness.h"
#include "src/runtime/flags.h"

namespace nai::bench {

/// Shared CLI entry for every bench target: consumes the `--threads N`
/// flag (default-pool size; NAI_THREADS is the env-side equivalent) and
/// the `--store B` flag (snapshot storage backend, exported as NAI_STORE
/// for the harness factories), and prints them so logged runs are
/// self-describing. The store line is announced only off the default so
/// mem-backend logs stay byte-identical to previous releases.
inline int ApplyThreadsFlag(int& argc, char** argv) {
  const int threads = runtime::ApplyThreadsFlag(argc, argv);
  std::printf("threads: %d\n", threads);
  const char* store = runtime::ApplyStoreFlag(argc, argv);
  if (std::string(store) != "mem") std::printf("store: %s\n", store);
  return threads;
}

/// Consumes the `--shards N` flag (serving-graph shard count, default 1 =
/// unsharded). Announced only when sharding is on so unsharded logs stay
/// byte-identical to previous releases.
inline int ApplyShardsFlag(int& argc, char** argv) {
  const int shards = runtime::ShardsFlag(argc, argv);
  if (shards > 1) std::printf("shards: %d\n", shards);
  return shards;
}

/// Training budgets used by the bench binaries: smaller than the library
/// defaults so a full `for b in build/bench/*` sweep stays in minutes, but
/// large enough for the paper's qualitative results to reproduce.
inline eval::PipelineConfig BenchPipelineConfig(
    models::ModelKind kind = models::ModelKind::kSgc) {
  eval::PipelineConfig cfg;
  cfg.kind = kind;
  cfg.hidden_dims = {64};
  cfg.distill.base_epochs = 120;
  cfg.distill.single_epochs = 70;
  cfg.distill.multi_epochs = 50;
  cfg.distill.learning_rate = 1e-2f;
  cfg.distill.temperature_single = 1.2f;
  cfg.distill.lambda_single = 0.5f;
  cfg.distill.temperature_multi = 1.5f;
  cfg.distill.lambda_multi = 0.8f;
  cfg.distill.ensemble_size = 3;
  cfg.gate.epochs = 80;
  return cfg;
}

/// Milliseconds elapsed on the steady clock since `start`.
inline double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

inline void Banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Speedup annotation like the paper's "(75x)" brackets.
inline double Ratio(double base, double value) {
  return value > 0.0 ? base / value : 0.0;
}

/// Writes `section` (a JSON value) into the JSON object in `path` as its
/// top-level member `key`: a previous `key` member is dropped wherever it
/// sits, every other member is kept verbatim, and the new member goes last.
/// A missing file becomes a fresh one-member object. Returns false when
/// `path` cannot be written. Bench binaries use this to add their section
/// to bench_serving_qos's BENCH_serving.json record.
inline bool SpliceJsonSection(const char* path, const std::string& key,
                              const std::string& section) {
  std::string doc;
  if (std::FILE* in = std::fopen(path, "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) doc.append(buf, n);
    std::fclose(in);
  }
  // Split the outer object into its members: commas and the closing brace
  // at depth 1, outside strings, end a member.
  const std::string quoted = "\"" + key + "\"";
  std::vector<std::string> members;
  auto keep = [&](std::size_t begin, std::size_t end) {
    const std::size_t first = doc.find_first_not_of(" \t\r\n", begin);
    if (first >= end) return;
    const std::size_t last = doc.find_last_not_of(" \t\r\n", end - 1);
    std::string member = doc.substr(first, last + 1 - first);
    const std::size_t colon = member.find_first_not_of(" \t\r\n",
                                                       quoted.size());
    const bool same_key = member.compare(0, quoted.size(), quoted) == 0 &&
                          colon != std::string::npos && member[colon] == ':';
    if (!same_key) members.push_back(std::move(member));
  };
  int depth = 0;
  bool in_string = false;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      if (++depth == 1) begin = i + 1;
    } else if (c == '}' || c == ']') {
      if (depth-- == 1) {
        keep(begin, i);
        break;
      }
    } else if (c == ',' && depth == 1) {
      keep(begin, i);
      begin = i + 1;
    }
  }

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\n");
  for (const std::string& member : members) {
    std::fprintf(out, "  %s,\n", member.c_str());
  }
  std::fprintf(out, "  %s: %s\n}\n", quoted.c_str(), section.c_str());
  std::fclose(out);
  return true;
}

}  // namespace nai::bench

#endif  // NAI_BENCH_BENCH_UTIL_H_
