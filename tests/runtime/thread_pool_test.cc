#include "src/runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"
#include "src/runtime/exec_context.h"
#include "src/runtime/flags.h"

namespace nai::runtime {
namespace {

TEST(EnvThreadsTest, UnsetMeansNoOverride) {
  unsetenv("NAI_THREADS");
  EXPECT_EQ(ThreadPool::EnvThreads(), 0);
}

TEST(EnvThreadsTest, ValidValueParsed) {
  setenv("NAI_THREADS", "6", 1);
  EXPECT_EQ(ThreadPool::EnvThreads(), 6);
  unsetenv("NAI_THREADS");
}

TEST(EnvThreadsTest, RejectsGarbageAndNonPositive) {
  // Same discipline as NAI_SCALE: garbage and non-positive values are
  // ignored outright, never clamped up to a valid count.
  for (const char* bad : {"not-a-number", "", "-3", "0", "threads", "6abc"}) {
    setenv("NAI_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::EnvThreads(), 0) << "value: " << bad;
  }
  unsetenv("NAI_THREADS");
}

TEST(EnvThreadsTest, HugeValueClamped) {
  setenv("NAI_THREADS", "99999", 1);
  EXPECT_EQ(ThreadPool::EnvThreads(), 256);
  unsetenv("NAI_THREADS");
}

TEST(EnvThreadsTest, PoolResolvesEnvOverride) {
  setenv("NAI_THREADS", "3", 1);
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 3);
  // Explicit counts beat the environment.
  ThreadPool explicit_pool(2);
  EXPECT_EQ(explicit_pool.num_threads(), 2);
  unsetenv("NAI_THREADS");
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, CoversNonZeroBeginAndHugeGrain) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(16, 64, ThreadPool::kMinChunkWork,
                   [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i >= 16 ? 1 : 0);
  }
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NestedCallsRunInline) {
  // A ParallelFor issued from inside a worker must execute inline (whole
  // range, same thread) instead of re-entering the pool — this is what
  // makes an outer parallel loop compose with the kernels it calls.
  ThreadPool pool(4);
  std::atomic<int> outer_calls{0};
  std::atomic<int> inner_whole_range{0};
  pool.ParallelFor(0, 8, ThreadPool::kMinChunkWork,
                   [&](std::size_t b, std::size_t e) {
    outer_calls.fetch_add(1);
    pool.ParallelFor(0, 100, 1, [&](std::size_t ib, std::size_t ie) {
      if (ib == 0 && ie == 100) inner_whole_range.fetch_add(1);
    });
    (void)b;
    (void)e;
  });
  EXPECT_EQ(outer_calls.load(), 8);
  EXPECT_EQ(inner_whole_range.load(), 8);
}

TEST(ThreadPoolTest, SequentialJobsReuseWorkers) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.ParallelFor(0, 1000, ThreadPool::kMinChunkWork / 100,
                     [&](std::size_t b, std::size_t e) {
      std::size_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 1000u * 999u / 2u);
  }
}

TEST(ThreadPoolTest, ManyTinyTwoChunkJobsCoverEachIndexOnce) {
  // Two chunks per job: the submitter usually drains both before its one
  // helper wakes, so most jobs end with the helper's slot taken back.
  // The counters are plain ints, so under ThreadSanitizer a helper write
  // that does not happen-before the submitter's check is reported.
  constexpr std::size_t kItems = 4096;
  constexpr std::size_t kGrain = ThreadPool::kMinChunkWork / (kItems / 2);
  ASSERT_EQ(ThreadPool::PlannedWorkers(kItems, kGrain, 2), 2u);
  for (const int threads : {2, 4}) {
    ThreadPool pool(threads);
    std::vector<int> hits(kItems, 0);
    for (int job = 1; job <= 3000; ++job) {
      pool.ParallelFor(0, kItems, kGrain, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      });
      ASSERT_EQ(std::count(hits.begin(), hits.end(), job),
                static_cast<std::ptrdiff_t>(kItems))
          << "threads " << threads << " job " << job;
    }
  }
}

// Regression for the old splitting heuristic: kMinChunk = 2048 was compared
// against the row *count* only, so a 1000-row x 4096-wide MatMul ran on one
// thread. The cost-based grain must fan such shapes out.
TEST(ThreadPoolTest, WideMatrixShapesFanOut) {
  const std::size_t rows = 1000;
  const std::size_t row_cost = 4096 * 64;  // k*n of a 1000x4096 * 4096x64
  EXPECT_GT(ThreadPool::PlannedWorkers(rows, row_cost, 8), 1u);
  EXPECT_EQ(ThreadPool::PlannedWorkers(rows, row_cost, 8), 8u);
  // ...while genuinely tiny jobs stay on one thread.
  EXPECT_EQ(ThreadPool::PlannedWorkers(100, 1, 8), 1u);
  EXPECT_EQ(ThreadPool::PlannedWorkers(0, 1, 8), 0u);
}

TEST(ThreadPoolTest, ChunkSizingMatchesGrainCost) {
  ThreadPool pool(2);
  // With a per-item cost of kMinChunkWork/4, chunks must carry at most 4
  // items — observable through the subrange widths handed to fn.
  std::atomic<int> calls{0};
  std::atomic<std::size_t> max_width{0};
  pool.ParallelFor(0, 64, ThreadPool::kMinChunkWork / 4,
                   [&](std::size_t b, std::size_t e) {
    calls.fetch_add(1);
    std::size_t w = e - b;
    std::size_t cur = max_width.load();
    while (w > cur && !max_width.compare_exchange_weak(cur, w)) {
    }
  });
  EXPECT_GT(calls.load(), 1);
  EXPECT_LE(max_width.load(), 4u);
}

TEST(ExecContextTest, DefaultRoutesToDefaultPool) {
  ThreadPool::SetDefaultThreads(2);
  ExecContext ctx;
  EXPECT_EQ(&ctx.pool_or_default(), &ThreadPool::Default());
  EXPECT_EQ(ctx.num_threads(), 2);
  ThreadPool own_pool(3);
  ctx.pool = &own_pool;
  EXPECT_EQ(&ctx.pool_or_default(), &own_pool);
  EXPECT_EQ(ctx.num_threads(), 3);
  ThreadPool::SetDefaultThreads(0);
}

TEST(ScopedDefaultPoolTest, OverridesDefaultOnThisThreadOnly) {
  ThreadPool::SetDefaultThreads(2);
  ThreadPool own(3);
  {
    ScopedDefaultPool scope(own);
    EXPECT_EQ(&ThreadPool::Default(), &own);
    // Default-constructed contexts — the ones kernels deep inside the nn
    // layer see — must resolve to the scoped pool too.
    ExecContext ctx;
    EXPECT_EQ(ctx.num_threads(), 3);
  }
  EXPECT_EQ(ThreadPool::Default().num_threads(), 2);
  ThreadPool::SetDefaultThreads(0);
}

TEST(FlagsTest, ThreadsFlagConsumedAndApplied) {
  char prog[] = "prog";
  char flag[] = "--threads";
  char val[] = "5";
  char other[] = "--keep-me";
  char* argv[] = {prog, flag, val, other, nullptr};
  int argc = 4;
  EXPECT_EQ(ApplyThreadsFlag(argc, argv), 5);
  ASSERT_EQ(argc, 2);  // flag + value removed, unrelated args kept
  EXPECT_EQ(std::string(argv[1]), "--keep-me");
  EXPECT_EQ(ThreadPool::Default().num_threads(), 5);

  char eq_form[] = "--threads=2";
  char* argv2[] = {prog, eq_form, nullptr};
  int argc2 = 2;
  EXPECT_EQ(ApplyThreadsFlag(argc2, argv2), 2);
  EXPECT_EQ(argc2, 1);
  ThreadPool::SetDefaultThreads(0);
}

TEST(FlagsTest, InvalidThreadsValueIgnored) {
  ThreadPool::SetDefaultThreads(2);
  char prog[] = "prog";
  char flag[] = "--threads=banana";
  char* argv[] = {prog, flag, nullptr};
  int argc = 2;
  EXPECT_EQ(ApplyThreadsFlag(argc, argv), 2);  // default pool untouched
  EXPECT_EQ(argc, 1);                          // but the flag is consumed
  ThreadPool::SetDefaultThreads(0);
}

TEST(FlagsTest, SpaceFormDoesNotSwallowFollowingFlag) {
  ThreadPool::SetDefaultThreads(2);
  char prog[] = "prog";
  char flag[] = "--threads";
  char other[] = "--benchmark_filter=BM_X";
  char* argv[] = {prog, flag, other, nullptr};
  int argc = 3;
  EXPECT_EQ(ApplyThreadsFlag(argc, argv), 2);
  ASSERT_EQ(argc, 2);  // bare --threads consumed, the other flag survives
  EXPECT_EQ(std::string(argv[1]), "--benchmark_filter=BM_X");
  EXPECT_EQ(argv[2], nullptr);
  ThreadPool::SetDefaultThreads(0);
}

TEST(FlagsTest, BareTrailingThreadsFlagConsumed) {
  ThreadPool::SetDefaultThreads(2);
  char prog[] = "prog";
  char flag[] = "--threads";
  char* argv[] = {prog, flag, nullptr};
  int argc = 2;
  EXPECT_EQ(ApplyThreadsFlag(argc, argv), 2);
  EXPECT_EQ(argc, 1);  // consumed even without a value
  ThreadPool::SetDefaultThreads(0);
}

TEST(FlagsTest, ShardsFlagParsedAndDefaultsToOne) {
  char prog[] = "prog";
  char flag[] = "--shards=4";
  char* argv[] = {prog, flag, nullptr};
  int argc = 2;
  EXPECT_EQ(ShardsFlag(argc, argv), 4);
  EXPECT_EQ(argc, 1);

  char bad[] = "--shards=-3";
  char* argv2[] = {prog, bad, nullptr};
  argc = 2;
  EXPECT_EQ(ShardsFlag(argc, argv2), 1);  // invalid -> unsharded
  EXPECT_EQ(argc, 1);

  char* argv3[] = {prog, nullptr};
  argc = 1;
  EXPECT_EQ(ShardsFlag(argc, argv3), 1);  // absent -> unsharded
}

TEST(FlagsTest, StringFlagConsumedLastOccurrenceWins) {
  char prog[] = "prog";
  char a[] = "--qos=speed";
  char b[] = "--qos";
  char v[] = "accuracy";
  char other[] = "--keep-me";
  char* argv[] = {prog, a, other, b, v, nullptr};
  int argc = 5;
  const char* parsed = ConsumeStringFlag(argc, argv, "--qos");
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(std::string(parsed), "accuracy");
  ASSERT_EQ(argc, 2);  // every occurrence removed, unrelated args kept
  EXPECT_EQ(std::string(argv[1]), "--keep-me");
  EXPECT_EQ(argv[2], nullptr);
}

TEST(FlagsTest, QosMixFlagNamesNumbersAndGarbage) {
  char prog[] = "prog";
  auto parse = [&](const char* text, int def) {
    std::string owned(text);
    char* argv[] = {prog, owned.data(), nullptr};
    int argc = 2;
    const int got = QosMixFlag(argc, argv, def);
    EXPECT_EQ(argc, 1) << text;  // always consumed
    return got;
  };
  EXPECT_EQ(parse("--qos=speed", 50), 100);
  EXPECT_EQ(parse("--qos=accuracy", 50), 0);
  EXPECT_EQ(parse("--qos=mix", 7), 50);
  EXPECT_EQ(parse("--qos=25", 50), 25);
  EXPECT_EQ(parse("--qos=0", 50), 0);      // 0 is meaningful, not invalid
  EXPECT_EQ(parse("--qos=101", 50), 50);   // out of range -> default
  EXPECT_EQ(parse("--qos=fast", 50), 50);  // garbage -> default
  char* argv[] = {prog, nullptr};
  int argc = 1;
  EXPECT_EQ(QosMixFlag(argc, argv, 33), 33);  // absent -> default
}

TEST(FlagsTest, ArrivalRateFlagDefaultsToClosedLoop) {
  char prog[] = "prog";
  char flag[] = "--arrival-rate=250";
  char* argv[] = {prog, flag, nullptr};
  int argc = 2;
  EXPECT_EQ(ArrivalRateFlag(argc, argv), 250);
  EXPECT_EQ(argc, 1);
  char bad[] = "--arrival-rate=-5";
  char* argv2[] = {prog, bad, nullptr};
  argc = 2;
  EXPECT_EQ(ArrivalRateFlag(argc, argv2), 0);  // invalid -> closed loop
  char* argv3[] = {prog, nullptr};
  argc = 1;
  EXPECT_EQ(ArrivalRateFlag(argc, argv3), 0);  // absent -> closed loop
}

TEST(RunConcurrentlyTest, RunsEveryTaskExactlyOnce) {
  std::vector<int> hits(16, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { ++hits[i]; });
  }
  RunConcurrently(tasks);
  for (const int h : hits) EXPECT_EQ(h, 1);
  RunConcurrently({});  // empty task list is a no-op
}

TEST(RunConcurrentlyTest, RethrowsFirstTaskError) {
  // All tasks run to completion before the lowest-index error is rethrown.
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&] { ++completed; });
  tasks.push_back([] { throw std::runtime_error("shard 1 failed"); });
  tasks.push_back([&] { ++completed; });
  EXPECT_THROW(RunConcurrently(tasks), std::runtime_error);
  EXPECT_EQ(completed.load(), 2);
}

}  // namespace
}  // namespace nai::runtime
