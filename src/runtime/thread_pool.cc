#include "src/runtime/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>

namespace nai::runtime {

namespace {

/// Set while a thread is executing chunks of some pool's job (workers
/// permanently, the submitting thread for the duration of its loop). Nested
/// ParallelFors test this and run inline.
thread_local const ThreadPool* tls_in_pool = nullptr;

/// Per-thread ScopedDefaultPool override of ThreadPool::Default().
thread_local ThreadPool* tls_default_override = nullptr;

int ResolveThreads(int num_threads) {
  if (num_threads > 0) return std::min(num_threads, 256);
  const int env = ThreadPool::EnvThreads();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 256u));
}

std::mutex g_default_mu;
std::unique_ptr<ThreadPool> g_default_owner;
std::atomic<ThreadPool*> g_default{nullptr};

}  // namespace

int ThreadPool::EnvThreads() {
  const char* env = std::getenv("NAI_THREADS");
  if (env == nullptr) return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  // Same discipline as NAI_SCALE: unparseable input is ignored outright
  // rather than clamped, and so are non-positive counts. Stricter than
  // strtod-based NAI_SCALE in one way: a thread count with trailing junk
  // ("6abc") is rejected whole.
  if (end == env || *end != '\0' || v <= 0) return 0;
  return static_cast<int>(std::min<long>(v, 256));
}

std::size_t ThreadPool::ChunkFor(std::size_t grain) {
  return std::max<std::size_t>(1, kMinChunkWork / std::max<std::size_t>(1, grain));
}

std::size_t ThreadPool::PlannedWorkers(std::size_t items, std::size_t grain,
                                       int threads) {
  if (items == 0 || threads <= 1) return items == 0 ? 0 : 1;
  const std::size_t chunk = ChunkFor(grain);
  const std::size_t chunks = (items + chunk - 1) / chunk;
  return std::min<std::size_t>(static_cast<std::size_t>(threads), chunks);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveThreads(num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  tls_in_pool = this;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_start_.wait(lock, [&] { return shutdown_ || job_id_ != seen; });
    if (shutdown_) return;
    seen = job_id_;
    // Participation is capped at the job's chunk count: a worker without a
    // slot goes straight back to waiting, and the submitter never waits on
    // it — small jobs on big pools don't pay a full wakeup barrier.
    if (job_slots_ <= 0) continue;
    --job_slots_;
    const auto* fn = job_fn_;
    const std::size_t end = job_end_;
    const std::size_t chunk = job_chunk_;
    lock.unlock();
    RunChunks(*fn, end, chunk);
    lock.lock();
    if (--job_unfinished_ == 0) cv_done_.notify_one();
  }
}

void ThreadPool::RunChunks(
    const std::function<void(std::size_t, std::size_t)>& fn, std::size_t end,
    std::size_t chunk) {
  const ThreadPool* prev = tls_in_pool;
  tls_in_pool = this;
  for (;;) {
    const std::size_t i = job_next_.fetch_add(chunk, std::memory_order_relaxed);
    if (i >= end) break;
    fn(i, std::min(end, i + chunk));
  }
  tls_in_pool = prev;
}

void ThreadPool::ParallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t chunk = ChunkFor(grain);
  // Inline when there is nothing to share, the job is below one chunk of
  // work, or we are already inside a pool (nested call).
  if (num_threads_ <= 1 || end - begin <= chunk || tls_in_pool != nullptr) {
    fn(begin, end);
    return;
  }
  std::lock_guard<std::mutex> submit(submit_mu_);
  const std::size_t chunks = (end - begin + chunk - 1) / chunk;
  // The submitting thread takes one chunk stream itself; helpers beyond
  // chunks-1 would only wake to find no work.
  const int helpers = static_cast<int>(
      std::min(workers_.size(), static_cast<std::size_t>(chunks - 1)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_fn_ = &fn;
    job_end_ = end;
    job_chunk_ = chunk;
    job_next_.store(begin, std::memory_order_relaxed);
    job_unfinished_ = helpers;
    job_slots_ = helpers;
    ++job_id_;
  }
  cv_start_.notify_all();
  RunChunks(fn, end, chunk);
  std::unique_lock<std::mutex> lock(mu_);
  // Every chunk is claimed by now. A helper that has not yet woken and
  // taken its slot would find nothing to run, so take its slot back rather
  // than wait for its wakeup.
  job_unfinished_ -= job_slots_;
  job_slots_ = 0;
  cv_done_.wait(lock, [&] { return job_unfinished_ == 0; });
  job_fn_ = nullptr;
}

ThreadPool& ThreadPool::Default() {
  if (tls_default_override != nullptr) return *tls_default_override;
  ThreadPool* pool = g_default.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  std::lock_guard<std::mutex> lock(g_default_mu);
  pool = g_default.load(std::memory_order_relaxed);
  if (pool == nullptr) {
    g_default_owner = std::make_unique<ThreadPool>(0);
    pool = g_default_owner.get();
    g_default.store(pool, std::memory_order_release);
  }
  return *pool;
}

void ThreadPool::SetDefaultThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_default_mu);
  ThreadPool* cur = g_default.load(std::memory_order_relaxed);
  const int want = ResolveThreads(num_threads);
  if (cur != nullptr && cur->num_threads() == want) return;
  // Joins the old pool's workers before replacing it; callers must not have
  // ParallelFors in flight (documented in the header).
  g_default.store(nullptr, std::memory_order_release);
  g_default_owner = std::make_unique<ThreadPool>(want);
  g_default.store(g_default_owner.get(), std::memory_order_release);
}

ScopedDefaultPool::ScopedDefaultPool(ThreadPool& pool)
    : prev_(tls_default_override) {
  tls_default_override = &pool;
}

ScopedDefaultPool::~ScopedDefaultPool() { tls_default_override = prev_; }

void RunConcurrently(const std::vector<std::function<void()>>& tasks) {
  std::vector<std::exception_ptr> errors(tasks.size());
  std::vector<std::thread> threads;
  threads.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    threads.emplace_back([&tasks, &errors, i] {
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace nai::runtime
