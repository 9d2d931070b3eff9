#ifndef NAI_RUNTIME_FLAGS_H_
#define NAI_RUNTIME_FLAGS_H_

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/runtime/thread_pool.h"

namespace nai::runtime {

/// Consumes one `--name V` / `--name=V` flag shared by the bench and
/// example binaries, removing every occurrence from argv (so wrapped
/// argument parsers like google-benchmark never see it). Returns the last
/// occurrence's value — a pointer into argv, stable for the program's
/// lifetime — or nullptr when the flag is absent or has no value. A
/// separate value token starting with '-' is not consumed, so
/// `--threads --benchmark_filter=...` doesn't swallow the filter. This is
/// the one argv scan; the typed flag helpers below parse on top of it.
inline const char* ConsumeStringFlag(int& argc, char** argv,
                                     const char* name) {
  const std::size_t name_len = std::strlen(name);
  const char* parsed = nullptr;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    bool consume = false;
    if (std::strncmp(arg, name, name_len) == 0) {
      if (arg[name_len] == '\0') {
        consume = true;
        if (i + 1 < argc && argv[i + 1][0] != '-') value = argv[++i];
      } else if (arg[name_len] == '=') {
        consume = true;
        value = arg + name_len + 1;
      }
    }
    if (consume) {  // flag (and its value, if any) removed either way
      if (value != nullptr) parsed = value;
      continue;
    }
    argv[w++] = argv[i];
  }
  argv[w] = nullptr;  // keep the argv[argc] == NULL invariant for wrappees
  argc = w;
  return parsed;
}

/// Integer variant: returns the parsed value of the last occurrence, or 0
/// when the flag is absent or its value is missing, unparseable, or
/// non-positive — the flag is removed either way.
inline long ConsumeIntFlag(int& argc, char** argv, const char* name) {
  const char* value = ConsumeStringFlag(argc, argv, name);
  if (value == nullptr) return 0;
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  return end != value && *end == '\0' && v > 0 ? v : 0;
}

/// Consumes a `--threads N` / `--threads=N` argument: resizes the default
/// pool accordingly. Invalid or absent values leave the NAI_THREADS /
/// hardware default in place. Returns the resulting default-pool thread
/// count.
inline int ApplyThreadsFlag(int& argc, char** argv) {
  const long requested = ConsumeIntFlag(argc, argv, "--threads");
  if (requested > 0) ThreadPool::SetDefaultThreads(static_cast<int>(requested));
  return ThreadPool::Default().num_threads();
}

/// Consumes a `--shards N` / `--shards=N` argument: how many engine
/// replicas, each on its own pool slice, serve the graph (see
/// core::ShardedNaiEngine). Returns 1 — unsharded — when absent or
/// invalid. Purely a parse: the caller decides what to build from it.
inline int ShardsFlag(int& argc, char** argv) {
  const long requested = ConsumeIntFlag(argc, argv, "--shards");
  return requested > 0 ? static_cast<int>(requested) : 1;
}

/// Consumes a `--qos V` argument: the percentage of serving traffic
/// submitted speed-first (the rest is accuracy-first). Accepts the class
/// names "speed" (100), "accuracy" (0), "mix" (50), or an integer in
/// [0, 100]. Returns `def` when absent or invalid. Purely a parse.
inline int QosMixFlag(int& argc, char** argv, int def = 50) {
  const char* value = ConsumeStringFlag(argc, argv, "--qos");
  if (value == nullptr) return def;
  if (std::strcmp(value, "speed") == 0) return 100;
  if (std::strcmp(value, "accuracy") == 0) return 0;
  if (std::strcmp(value, "mix") == 0) return 50;
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end != value && *end == '\0' && v >= 0 && v <= 100) {
    return static_cast<int>(v);
  }
  return def;
}

/// Consumes an `--arrival-rate N` argument: the open-loop offered load in
/// queries/second for the serving load generator. Returns 0 — closed-loop
/// — when absent or invalid. Purely a parse.
inline long ArrivalRateFlag(int& argc, char** argv) {
  return ConsumeIntFlag(argc, argv, "--arrival-rate");
}

/// Consumes a `--zipf A` argument: the Zipf skew exponent alpha for the
/// serving load generator (eval::ServingLoadConfig::zipf_alpha; draws node
/// j with probability proportional to (j+1)^-alpha). Returns 0.0 —
/// unskewed, one request per node — when absent, or when the value is
/// missing, unparseable, non-finite or negative. Purely a parse.
inline double ZipfFlag(int& argc, char** argv) {
  const char* value = ConsumeStringFlag(argc, argv, "--zipf");
  if (value == nullptr) return 0.0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0') return 0.0;
  if (!(v > 0.0) || !std::isfinite(v)) return 0.0;
  return v;
}

/// Consumes an `--update-rate N` argument: delta batches per second the
/// update-churn load generator feeds through ServingEngine::ApplyDeltas
/// (eval::ServingLoadConfig::updates_per_sec). Returns 0 — no pacing /
/// caller default — when absent or invalid. Purely a parse.
inline long UpdateRateFlag(int& argc, char** argv) {
  return ConsumeIntFlag(argc, argv, "--update-rate");
}

/// Consumes a `--store mem|mmap` argument and, when present, exports it as
/// NAI_STORE so every storage::DefaultBackend() call in the process — the
/// harness engine factories included — resolves to the requested backend.
/// The flag wins over a pre-existing NAI_STORE value. Returns the value the
/// environment ended up with ("mem" when neither flag nor variable is set).
/// Validation happens at the first DefaultBackend() call, which throws
/// nai::ValidationError on an unknown name.
inline const char* ApplyStoreFlag(int& argc, char** argv) {
  const char* value = ConsumeStringFlag(argc, argv, "--store");
  if (value != nullptr) {
    ::setenv("NAI_STORE", value, /*overwrite=*/1);
    return value;
  }
  const char* env = std::getenv("NAI_STORE");
  return env != nullptr && env[0] != '\0' ? env : "mem";
}

}  // namespace nai::runtime

#endif  // NAI_RUNTIME_FLAGS_H_
