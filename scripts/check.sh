#!/usr/bin/env bash
# The repo's quality gate, split into named stages so CI jobs and local
# runs invoke exactly the same commands:
#
#   release   Plain Release configure + build + full CTest run, then the
#             benchmark driver's self-test and 3 s exactness-gated
#             mixed_closed, hot_open and churn_open runs whose result lines
#             must parse as strict JSON with finite metrics.
#   asan      Release + ASan/UBSan build, full CTest run, then a
#             NAI_THREADS=1 serial-path pass of the threading-sensitive
#             suites.
#   tsan      ThreadSanitizer configuration (separate build dir; TSan
#             cannot combine with ASan) for the runtime + engine + serving
#             + parallel-kernel suites.
#   format    clang-format check over the actively formatted subset
#             (scripts/format.sh --check).
#   docs      Dead-relative-link check over README.md and docs/.
#   bench     Exactness-gated serving bench smoke at a fixed load/mix;
#             writes BENCH_serving.json to the repo root (the CI perf
#             artifact). Ends with the Table V gate (bench_table5_main at
#             NAI_SCALE=1).
#
# Usage:
#   scripts/check.sh                      # default gate: asan tsan format docs
#   NAI_CHECK_STAGE=tsan scripts/check.sh # one stage (mirrors the CI jobs)
#   NAI_CHECK_STAGE="release bench" scripts/check.sh   # any subset, in order
#   NAI_SANITIZE=""    scripts/check.sh   # disable the asan stage sanitizers
#   NAI_TSAN=0         scripts/check.sh   # drop tsan from the default gate
#   NAI_BUILD_DIR=foo  scripts/check.sh   # custom build directory prefix
#
# Every stage prints its wall-clock time; a failure names the stage that
# broke instead of dying on a bare `set -e` exit.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${NAI_BUILD_DIR:-build-check}"
SANITIZE="${NAI_SANITIZE-address,undefined}"
TSAN="${NAI_TSAN:-1}"
JOBS="$(nproc 2>/dev/null || echo 2)"

DEFAULT_STAGES="asan tsan format docs"
if [ "${TSAN}" = "0" ]; then
  DEFAULT_STAGES="asan format docs"
fi
STAGES="${NAI_CHECK_STAGE:-${DEFAULT_STAGES}}"

# Runs one 3 s benchmark workload, which exits 1 if any served answer
# differs from a direct Infer of the same node and config, then parses its
# result line (the last one) as strict JSON with finite metric values. A
# window that closes before any request lands divides by zero, and printf
# writes that as `nan`, which no JSON reader accepts.
perfbench_exact() {
  local out
  out="$("${BUILD_DIR}-perfbench/nai_perfbench" --workload "$1" --seed 1 \
    --seconds 3 --trace 0)"
  printf '%s\n' "${out}"
  printf '%s\n' "${out}" | tail -n 1 | python3 -c '
import json, math, sys

def reject(constant):
    raise ValueError("non-finite constant " + constant)

result = json.loads(sys.stdin.read(), parse_constant=reject)
bad = [name for name, metric in result["metrics"].items()
       if isinstance(metric["value"], bool)
       or not isinstance(metric["value"], (int, float))
       or not math.isfinite(metric["value"])]
if result.get("correct") is not True or bad:
    sys.exit("perfbench result line: correct=%r, non-finite metrics %r"
             % (result.get("correct"), bad))
'
}

# ---------------------------------------------------------------------------
# Stage bodies. Each runs in a `set -euo pipefail` subshell via run_stage,
# so any failing command aborts just that stage with its name attached.
# ---------------------------------------------------------------------------

stage_release() {
  cmake -B "${BUILD_DIR}-release" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${BUILD_DIR}-release" -j "${JOBS}"
  ctest --test-dir "${BUILD_DIR}-release" --output-on-failure -j "${JOBS}"
  # The benchmark driver is a separate CMake project over the same library
  # layers; building it here keeps a library change from breaking the
  # benchmark unseen.
  cmake -B "${BUILD_DIR}-perfbench" -S perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build "${BUILD_DIR}-perfbench" -j "${JOBS}"
  "${BUILD_DIR}-perfbench/perfbench_stats_test"
  # Engine-bound: the closed loop, no cache hits.
  perfbench_exact mixed_closed
  # Front-end-bound: most answers replay from the one result cache that
  # every engine fills.
  perfbench_exact hot_open
  # Snapshot swaps and cache-epoch bumps under traffic.
  perfbench_exact churn_open
}

stage_asan() {
  cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DNAI_SANITIZE="${SANITIZE}"
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"
  # Serial-path pass: the same parallel-sensitive suites with a 1-thread
  # pool (the sharded engine then runs one worker per shard pool), plus the
  # training suites (nn/, core/distillation), once per SIMD dispatch level
  # — NAI_SIMD=scalar pins the reference kernels, the unset run takes the
  # host's best vector path — so sanitizers sweep both sides of every
  # kernel dispatch, the masked tile tails of the training shapes included.
  for simd in scalar ""; do
    NAI_SIMD="${simd}" NAI_THREADS=1 ctest --test-dir "${BUILD_DIR}" \
      --output-on-failure -j "${JOBS}" \
      -R 'runtime/|tensor/ops|tensor/kernel_parity|tensor/simd_dispatch|graph/csr|graph/shard|graph/delta|nn/|core/distillation|core/inference|core/sharded|serve/|storage/|integration/algorithm1'
  done
}

stage_tsan() {
  # Runtime + engine + serving + parallel kernels only: the other suites
  # are single-threaded, and building everything under TSan doubles CI
  # time for no coverage.
  local tsan_dir="${BUILD_DIR}-tsan"
  cmake -B "${tsan_dir}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DNAI_SANITIZE=thread \
    -DNAI_BUILD_BENCH=OFF \
    -DNAI_BUILD_EXAMPLES=OFF
  cmake --build "${tsan_dir}" -j "${JOBS}" --target \
    runtime_thread_pool_test tensor_ops_test tensor_kernel_parity_test \
    tensor_simd_dispatch_test graph_csr_test \
    core_inference_test core_inference_edge_test \
    core_inference_parallel_test core_inference_simd_test \
    core_inference_reference_test core_sharded_inference_test \
    graph_shard_test graph_delta_test serve_request_queue_test \
    serve_batcher_test serve_scheduler_test serve_serving_engine_test \
    serve_result_cache_test serve_snapshot_swap_test \
    storage_store_test storage_mmap_engine_test
  ctest --test-dir "${tsan_dir}" --output-on-failure -j "${JOBS}" \
    -R 'runtime/thread_pool|tensor/ops|tensor/kernel_parity|tensor/simd_dispatch|graph/csr|graph/shard|graph/delta|core/inference|core/sharded|serve/|storage/'
}

stage_format() {
  scripts/format.sh --check
}

stage_docs() {
  scripts/check_docs_links.sh
}

stage_bench() {
  # Fixed load/mix smoke: exactness-gated (nonzero exit on any prediction
  # divergence, plus the throughput class's
  # int8 accuracy-delta budget) and the source of the BENCH_serving.json
  # perf trajectory at the repo root. bench_update_churn and bench_kernels
  # run after bench_serving_qos: each splices its section ("update_churn",
  # "kernels") into the artifact it just wrote fresh. bench_kernels also
  # enforces the scalar-vs-SIMD MatMul speedup gate on vector hosts.
  cmake -B "${BUILD_DIR}-release" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${BUILD_DIR}-release" -j "${JOBS}" \
    --target bench_serving_qos bench_update_churn bench_kernels \
    bench_outofcore bench_shard_scaling bench_table5_main
  NAI_SCALE="${NAI_BENCH_SCALE:-0.1}" "${BUILD_DIR}-release/bench_serving_qos" \
    --shards 2 --threads 2 --qos 50 --json BENCH_serving.json
  NAI_SCALE="${NAI_BENCH_SCALE:-0.1}" "${BUILD_DIR}-release/bench_update_churn" \
    --shards 2 --threads 2 --json BENCH_serving.json
  "${BUILD_DIR}-release/bench_kernels" --threads 2 --json BENCH_serving.json
  echo "bench smoke wrote $(pwd)/BENCH_serving.json"
  # Out-of-core smoke: the mem-vs-mmap exactness gate at full strength plus
  # a capped scaled sweep (NAI_SCALE shrinks the graph sizes; --requests
  # bounds the Zipf load) writing the BENCH_outofcore.json artifact.
  NAI_SCALE="${NAI_BENCH_SCALE:-0.02}" "${BUILD_DIR}-release/bench_outofcore" \
    --threads 2 --requests 4000 --json BENCH_outofcore.json
  echo "out-of-core smoke wrote $(pwd)/BENCH_outofcore.json"
  # Shard-scaling exactness gate: 1/2/4/8 shards must match the unsharded
  # engine's predictions, exit histogram and propagation MACs (nonzero exit
  # on any mismatch).
  NAI_SCALE="${NAI_BENCH_SCALE:-0.1}" "${BUILD_DIR}-release/bench_shard_scaling" \
    --threads 2
  # Table V gate (the paper's main claim): on every dataset NAId and NAIg
  # keep at least a 4x FP-MAC speedup over SGC within 6.0 accuracy points
  # of it, and NAP exits at least 5% of the nodes early wherever
  # t_min < t_max. Pinned to NAI_SCALE=1, where the gate is calibrated (at
  # 0.1 the accuracy gaps reach 12-15 points); MACs, exit depths and
  # accuracy are bit-exact across threads and SIMD levels, so the gate is
  # deterministic.
  NAI_SCALE=1 "${BUILD_DIR}-release/bench_table5_main" --threads 4
}

run_stage() {
  local name="$1"
  local start="${SECONDS}"
  echo "=== check.sh stage: ${name} ==="
  if ! (set -euo pipefail; "stage_${name}"); then
    echo "check.sh: FAILED in stage '${name}' after $((SECONDS - start))s" >&2
    exit 1
  fi
  echo "=== check.sh stage: ${name} ok in $((SECONDS - start))s ==="
}

TOTAL_START="${SECONDS}"
for stage in ${STAGES}; do
  case "${stage}" in
    release|asan|tsan|format|docs|bench) run_stage "${stage}" ;;
    *)
      echo "check.sh: unknown stage '${stage}' (expected release|asan|tsan|format|docs|bench)" >&2
      exit 2
      ;;
  esac
done
echo "check.sh: all stages (${STAGES}) passed in $((SECONDS - TOTAL_START))s"
