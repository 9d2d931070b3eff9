// Kernel A/B benchmark: the dispatched numerical primitives the inference
// engine is built from — dense MatMul / MatMulTransposeB, sparse SpMM, the
// INT8 classifier GEMM, and axpy — plus the training products of one
// classifier-head step (MatMul, MatMulTransposeB, MatMulTransposeA), timed
// at every supported SIMD level against the scalar reference on the same
// operands. Reports GFLOP/s (or
// GOP/s for the integer kernel) per level and the best-level speedup.
//
// On a vector host (BestSupportedLevel() != scalar) the MatMul speedup must
// reach the x1.5 gate or the binary exits non-zero — the regression tripwire
// scripts/check.sh runs. On a scalar-only host the gate auto-skips (there is
// nothing to compare), keeping the bench green on any machine.
//
// Flags: --threads N (kernel pool size; the A/B runs at this parallelism),
// --json PATH (splice a "kernels" section into the BENCH_serving.json
// artifact written by bench_serving_qos — run after it so the splice lands
// on a fresh file).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/normalize.h"
#include "src/nn/linear.h"
#include "src/nn/quantized.h"
#include "src/tensor/matrix.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"
#include "src/tensor/simd.h"

namespace {

using namespace nai;

void Appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

/// Best-of-N wall time of one call, in seconds. Repeats until the total
/// exceeds ~60 ms so fast kernels are not timed at clock granularity; the
/// minimum is the least-noisy estimate of the kernel's true cost.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up: page in operands, settle the pool
  double best = 1e30;
  double total = 0.0;
  int reps = 0;
  while ((total < 0.06 || reps < 3) && reps < 200) {
    const auto t0 = clock::now();
    fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    best = std::min(best, s);
    total += s;
    ++reps;
  }
  return best;
}

struct AbRow {
  std::string name;
  double flops = 0.0;  ///< fused multiply-add counted as 2 ops
  std::vector<double> gflops;  ///< aligned with simd::SupportedLevels()
  double Speedup() const {
    return gflops.size() > 1 && gflops.front() > 0.0
               ? gflops.back() / gflops.front()
               : 1.0;
  }
};

/// Times `fn` once per supported level (scalar first) and converts to
/// GFLOP/s. The active level is pinned around each run and restored by the
/// caller at exit.
template <typename Fn>
AbRow RunAb(const std::string& name, double flops, Fn&& fn) {
  AbRow row;
  row.name = name;
  row.flops = flops;
  for (const tensor::simd::Level level : tensor::simd::SupportedLevels()) {
    tensor::simd::SetActiveLevelForTesting(level);
    const double s = TimeSeconds(fn);
    row.gflops.push_back(s > 0.0 ? flops / s / 1e9 : 0.0);
  }
  return row;
}

void PrintRow(const AbRow& row) {
  const std::vector<tensor::simd::Level> levels =
      tensor::simd::SupportedLevels();
  std::printf("  %-34s", row.name.c_str());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    std::printf("  %s %8.2f", tensor::simd::LevelName(levels[i]),
                row.gflops[i]);
  }
  if (levels.size() > 1) std::printf("   (x%.2f)", row.Speedup());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = bench::ApplyThreadsFlag(argc, argv);
  const char* json_path = runtime::ConsumeStringFlag(argc, argv, "--json");
  (void)threads;

  const std::vector<tensor::simd::Level> levels =
      tensor::simd::SupportedLevels();
  const tensor::simd::Level best = tensor::simd::BestSupportedLevel();
  const bool vector_host = best != tensor::simd::Level::kScalar;

  bench::Banner(std::string("Kernel A/B: scalar vs ") +
                tensor::simd::LevelName(best) +
                (vector_host ? "" : " (scalar-only host: speedup gate skipped)"));

  tensor::Rng rng(17);
  std::vector<AbRow> rows;

  // Dense MatMul at the engine's two working shapes: a big square GEMM and
  // the tall-thin classifier shape (many nodes x feature dim).
  for (const auto& [m, k, n] :
       std::initializer_list<std::array<std::size_t, 3>>{{256, 256, 256},
                                                         {4096, 64, 64}}) {
    tensor::Matrix a(m, k), b(k, n);
    tensor::FillGaussian(a, 1.0f, rng);
    tensor::FillGaussian(b, 1.0f, rng);
    char name[64];
    std::snprintf(name, sizeof name, "MatMul %zux%zux%zu", m, k, n);
    rows.push_back(RunAb(name, 2.0 * m * k * n, [&] {
      tensor::Matrix out = tensor::MatMul(a, b);
      asm volatile("" : : "r"(out.data()) : "memory");
    }));
    PrintRow(rows.back());
  }

  {
    const std::size_t m = 2048, k = 64, n = 64;
    tensor::Matrix a(m, k), bt(n, k);
    tensor::FillGaussian(a, 1.0f, rng);
    tensor::FillGaussian(bt, 1.0f, rng);
    rows.push_back(RunAb("MatMulTransposeB 2048x64x64", 2.0 * m * k * n, [&] {
      tensor::Matrix out = tensor::MatMulTransposeB(a, bt);
      asm volatile("" : : "r"(out.data()) : "memory");
    }));
    PrintRow(rows.back());
  }

  {
    graph::GeneratorConfig cfg;
    cfg.num_nodes = 20000;
    cfg.num_edges = 200000;
    cfg.feature_dim = 64;
    cfg.seed = 7;
    const graph::SyntheticDataset ds = graph::GenerateDataset(cfg);
    const graph::Csr adj = graph::NormalizedAdjacency(ds.graph, 0.5f);
    rows.push_back(RunAb("SpMM 20k nodes x 64 feats",
                         2.0 * static_cast<double>(adj.nnz()) * 64.0, [&] {
      tensor::Matrix out = graph::SpMM(adj, ds.features);
      asm volatile("" : : "r"(out.data()) : "memory");
    }));
    PrintRow(rows.back());
  }

  {
    // The INT8 classifier layer end-to-end: per-row quantize + gemm_s8 +
    // dequant, the kThroughputFirst hot path.
    const std::size_t m = 4096, k = 64, n = 64;
    nn::Linear layer(k, n, rng);
    const nn::QuantizedLinear q(layer);
    tensor::Matrix x(m, k);
    tensor::FillGaussian(x, 1.0f, rng);
    rows.push_back(RunAb("Int8Linear 4096x64x64", 2.0 * m * k * n, [&] {
      tensor::Matrix out = q.Forward(x);
      asm volatile("" : : "r"(out.data()) : "memory");
    }));
    PrintRow(rows.back());
  }

  {
    const std::size_t len = 1 << 16;
    std::vector<float> src(len), dst(len);
    for (std::size_t i = 0; i < len; ++i) src[i] = 0.001f * (i % 97);
    // 64 sweeps per timed call so the kernel dominates the call overhead.
    rows.push_back(RunAb("axpy 65536", 2.0 * len * 64.0, [&] {
      for (int r = 0; r < 64; ++r) {
        tensor::simd::ActiveKernels().axpy(0.5f, src.data(), dst.data(), len);
      }
      asm volatile("" : : "r"(dst.data()) : "memory");
    }));
    PrintRow(rows.back());
  }

  // Training shapes of one SGC head step (10,800 rows, 64 features, a
  // 64-wide hidden layer, 20 classes): the forward products over dense
  // features and over ReLU-sparse hidden activations, the hidden-layer
  // input gradient (A * B^T) and both weight gradients (A^T * B).
  {
    const std::size_t batch = 10800, f = 64, h = 64, c = 20;
    tensor::Matrix x(batch, f), hidden(batch, h), dy(batch, c), dh(batch, h);
    tensor::Matrix w0(f, h), w1(h, c);
    for (tensor::Matrix* m : {&x, &hidden, &dy, &dh, &w0, &w1}) {
      tensor::FillGaussian(*m, 1.0f, rng);
    }
    tensor::ReluInPlace(hidden);
    const auto add = [&](const std::string& name, double flops, auto fn) {
      rows.push_back(RunAb(name, flops, [&] {
        tensor::Matrix out = fn();
        asm volatile("" : : "r"(out.data()) : "memory");
      }));
      PrintRow(rows.back());
    };
    add("MatMul 10800x64x64 train", 2.0 * batch * f * h,
        [&] { return tensor::MatMul(x, w0); });
    add("MatMul 10800x64x20 relu", 2.0 * batch * h * c,
        [&] { return tensor::MatMul(hidden, w1); });
    add("MatMulTransposeB 10800x20x64", 2.0 * batch * c * h,
        [&] { return tensor::MatMulTransposeB(dy, w1); });
    add("MatMulTransposeA 10800x64x64", 2.0 * batch * f * h,
        [&] { return tensor::MatMulTransposeA(x, dh); });
    add("MatMulTransposeA 10800x64x20 relu", 2.0 * batch * h * c,
        [&] { return tensor::MatMulTransposeA(hidden, dy); });
  }

  tensor::simd::SetActiveLevelForTesting(best);

  // --- Speedup gate ---------------------------------------------------------
  // Gate on the faster of the two dense MatMul shapes: the tall-thin
  // classifier shape is where the engine spends its dense flops, and the
  // square shape can be bound by memory bandwidth on both paths (the
  // "scalar" reference is itself compiler-autovectorized at -O3), so
  // requiring both would gate on the cache, not the kernels.
  bool pass = true;
  if (vector_host) {
    const double matmul_speedup =
        std::max(rows[0].Speedup(), rows[1].Speedup());
    pass = matmul_speedup >= 1.5;
    std::printf("\nspeedup gate: best dense MatMul best/scalar = x%.2f "
                "(need x1.50) — %s\n",
                matmul_speedup, pass ? "PASS" : "FAIL");
  } else {
    std::printf("\nspeedup gate: skipped (scalar is the only supported level)\n");
  }

  if (json_path != nullptr) {
    std::string section;
    Appendf(section, "{\n    \"best_level\": \"%s\",\n",
            tensor::simd::LevelName(best));
    Appendf(section, "    \"gate\": \"%s\",\n",
            !vector_host ? "skipped" : (pass ? "pass" : "fail"));
    Appendf(section, "    \"ops\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      Appendf(section, "      {\"name\": \"%s\"", rows[i].name.c_str());
      for (std::size_t l = 0; l < levels.size(); ++l) {
        Appendf(section, ", \"gflops_%s\": %.3f",
                tensor::simd::LevelName(levels[l]), rows[i].gflops[l]);
      }
      Appendf(section, ", \"speedup\": %.3f}%s\n", rows[i].Speedup(),
              i + 1 < rows.size() ? "," : "");
    }
    Appendf(section, "    ]\n  }");
    if (bench::SpliceJsonSection(json_path, "kernels", section)) {
      std::printf("kernels section spliced into %s\n", json_path);
    } else {
      std::printf("WARNING: could not write %s\n", json_path);
      pass = false;
    }
  }

  return pass ? 0 : 1;
}
