#ifndef NAI_RUNTIME_THREAD_POOL_H_
#define NAI_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nai::runtime {

/// A persistent worker pool for data-parallel loops.
///
/// Workers are spawned once and reused across every ParallelFor call, so the
/// per-call cost is a wakeup instead of thread creation/join. Work is split
/// into contiguous index chunks sized by a *cost-based* grain: callers report
/// the approximate scalar-op cost of one index and the pool sizes chunks so
/// each carries at least kMinChunkWork scalar ops. This is what lets a wide
/// 1000-row MatMul fan out while a 1000-row elementwise op stays inline.
///
/// Determinism: chunks are dealt to whichever worker asks first, but every
/// index is executed exactly once and callers are expected to write only to
/// the output slots of their index range — under that contract results are
/// bit-exact for any thread count.
///
/// Nesting: a ParallelFor issued from inside a worker (including the calling
/// thread while it participates in an outer loop) runs inline over the whole
/// range, so an outer parallel loop composes with the kernels it calls
/// without deadlock.
class ThreadPool {
 public:
  /// Minimum scalar-op cost of one dispatched chunk; below this, dispatch
  /// overhead (a wakeup, ~µs) exceeds the work itself.
  static constexpr std::size_t kMinChunkWork = 32768;

  /// `num_threads` <= 0 resolves via NAI_THREADS, then hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs `fn(i0, i1)` over contiguous subranges covering [begin, end)
  /// exactly once. `grain` is the approximate scalar-op cost of ONE index
  /// (e.g. k*n for a MatMul output row); it sets the chunk size. The calling
  /// thread participates. Serializes concurrent top-level calls; nested
  /// calls from workers run inline.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  /// The lazily-initialized process-wide pool (NAI_THREADS or hardware
  /// concurrency threads). All tensor/graph kernels run here unless an
  /// ExecContext routes them elsewhere or a ScopedDefaultPool overrides the
  /// resolution on the current thread.
  static ThreadPool& Default();

  /// Replaces the default pool with one of `num_threads` threads (<= 0 =
  /// auto). Must not race in-flight ParallelFors on the old default pool —
  /// call at startup or between runs (the --threads flag path).
  static void SetDefaultThreads(int num_threads);

  /// Strictly parsed NAI_THREADS override: returns 0 (ignored) for unset,
  /// garbage, or non-positive values, else the value clamped to [1, 256].
  static int EnvThreads();

  /// Items per chunk for a per-index cost of `grain` scalar ops.
  static std::size_t ChunkFor(std::size_t grain);

  /// How many workers a (items, grain) job fans out to on a pool of
  /// `threads` threads. Exposed for tests pinning the splitting heuristic
  /// (the old row-count-only rule left wide-matrix MatMuls single-threaded).
  static std::size_t PlannedWorkers(std::size_t items, std::size_t grain,
                                    int threads);

 private:
  void WorkerLoop();
  void RunChunks(const std::function<void(std::size_t, std::size_t)>& fn,
                 std::size_t end, std::size_t chunk);

  int num_threads_;
  std::vector<std::thread> workers_;  // num_threads_ - 1 of them

  std::mutex mu_;  // guards the job fields and both condition variables
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  bool shutdown_ = false;
  std::uint64_t job_id_ = 0;
  const std::function<void(std::size_t, std::size_t)>* job_fn_ = nullptr;
  std::size_t job_end_ = 0;
  std::size_t job_chunk_ = 1;
  int job_unfinished_ = 0;
  std::atomic<std::size_t> job_next_{0};
  int job_slots_ = 0;  // worker participation slots not yet claimed

  std::mutex submit_mu_;  // one top-level ParallelFor at a time
};

/// RAII thread-local override: while alive, ThreadPool::Default() — and
/// therefore every default-constructed ExecContext used on this thread —
/// resolves to the given pool. This is how NaiEngine routes *all* kernels
/// of a run onto its ExecContext's pool, including GEMMs deep inside the
/// nn layer that only ever see default contexts.
class ScopedDefaultPool {
 public:
  explicit ScopedDefaultPool(ThreadPool& pool);
  ~ScopedDefaultPool();
  ScopedDefaultPool(const ScopedDefaultPool&) = delete;
  ScopedDefaultPool& operator=(const ScopedDefaultPool&) = delete;

 private:
  ThreadPool* prev_;
};

/// Pool-backed loop over [begin, end) on the default pool. The drop-in
/// replacement for the old spawn-per-call tensor::ParallelFor.
inline void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                        const std::function<void(std::size_t, std::size_t)>& fn) {
  ThreadPool::Default().ParallelFor(begin, end, grain, fn);
}

/// Runs each task on its own plain thread and joins them all before
/// returning; the first task exception (lowest index) is rethrown on the
/// caller after every task has finished.
///
/// This is the coarse fan-out primitive for work that must land on
/// *different pools* — e.g. one serving shard per task, each pinning its
/// own pool — where ParallelFor cannot help: a loop dispatched on one pool
/// would run the tasks' nested ParallelFors inline instead of on their
/// shards' pools. Thread spawn cost (~tens of µs) only suits callers whose
/// tasks run for milliseconds; per-row work belongs on a ThreadPool.
void RunConcurrently(const std::vector<std::function<void()>>& tasks);

}  // namespace nai::runtime

#endif  // NAI_RUNTIME_THREAD_POOL_H_
