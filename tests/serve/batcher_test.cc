// DynamicBatcher boundaries: max_batch caps a batch even with a deep
// backlog, the window passed to NextBatch holds an incomplete batch open
// for stragglers (and only that long), and a closed drained queue yields
// the empty end-of-stream batch. Timing-sensitive cases only assert
// directions that generous margins make robust (a straggler inside a huge
// window joins; expiry returns *something* rather than blocking forever).

#include "src/serve/batcher.h"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace nai::serve {
namespace {

Request MakeRequest(std::int64_t id) {
  Request r;
  r.id = id;
  return r;
}

TEST(BatcherTest, RejectsDegenerateConfigs) {
  RequestQueue q(4);
  EXPECT_THROW(DynamicBatcher(q, BatcherConfig{0, 100}),
               std::invalid_argument);
  EXPECT_THROW(DynamicBatcher(q, BatcherConfig{4, -1}),
               std::invalid_argument);
}

TEST(BatcherTest, MaxBatchCapsABacklog) {
  RequestQueue q(16);
  for (std::int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.TryPush(MakeRequest(i)));
  }
  DynamicBatcher batcher(q, BatcherConfig{4, 0});
  // A waiting backlog splits into max_batch chunks in FIFO order; the
  // zero wait window never pauses between them.
  std::vector<std::size_t> sizes;
  std::vector<std::int64_t> order;
  for (int b = 0; b < 3; ++b) {
    std::vector<Request> batch = batcher.NextBatch(0);
    sizes.push_back(batch.size());
    for (const Request& r : batch) order.push_back(r.id);
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 2}));
  for (std::int64_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(BatcherTest, ZeroWaitServesWhatIsAvailable) {
  RequestQueue q(8);
  ASSERT_TRUE(q.TryPush(MakeRequest(0)));
  DynamicBatcher batcher(q, BatcherConfig{8, 0});
  EXPECT_EQ(batcher.NextBatch(0).size(), 1u);
}

TEST(BatcherTest, BatchWaitsUnderTheWindowPassedToNextBatch) {
  // The pump passes each batch its window (the controller's adapted one or
  // the configured one) and stamps that same value into the adaptation
  // trace as applied_wait_us, so the batch must wait under exactly that
  // window — not under the configured max_wait_us.
  RequestQueue q(8);
  DynamicBatcher batcher(q, BatcherConfig{8, 2'000'000});  // 2 s configured

  ASSERT_TRUE(q.TryPush(MakeRequest(0)));
  ServeClock::time_point start = ServeClock::now();
  EXPECT_EQ(batcher.NextBatch(0).size(), 1u);
  // Directional bound only: far below the configured 2 s.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                ServeClock::now() - start)
                .count(),
            1000);

  // A 20 ms window holds the lone request open at least that long.
  ASSERT_TRUE(q.TryPush(MakeRequest(1)));
  start = ServeClock::now();
  EXPECT_EQ(batcher.NextBatch(20'000).size(), 1u);
  EXPECT_GE(ServeClock::now() - start, std::chrono::milliseconds(20));
}

TEST(BatcherTest, WindowWaitsForStragglers) {
  // The straggler lands well inside a generous window, so it must join the
  // first request's batch instead of forming its own.
  RequestQueue q(8);
  ASSERT_TRUE(q.TryPush(MakeRequest(0)));
  DynamicBatcher batcher(q, BatcherConfig{8, 2'000'000});  // 2 s window
  std::thread straggler([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(q.TryPush(MakeRequest(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(q.TryPush(MakeRequest(2)));
  });
  // Fill the batch early so the window closes on max_batch, not time: push
  // the remaining five while the straggler sleeps.
  for (std::int64_t i = 3; i < 8; ++i) {
    ASSERT_TRUE(q.TryPush(MakeRequest(i)));
  }
  std::vector<Request> batch = batcher.NextBatch(2'000'000);
  straggler.join();
  EXPECT_EQ(batch.size(), 8u);  // closed by max_batch, stragglers included
}

TEST(BatcherTest, WindowExpiresWithoutStragglers) {
  RequestQueue q(8);
  ASSERT_TRUE(q.TryPush(MakeRequest(0)));
  DynamicBatcher batcher(q, BatcherConfig{8, 5'000});  // 5 ms window
  const auto start = ServeClock::now();
  std::vector<Request> batch = batcher.NextBatch(5'000);
  const auto elapsed = ServeClock::now() - start;
  EXPECT_EQ(batch.size(), 1u);
  // Directional bound only: the window is 5 ms; well under a second proves
  // it expired rather than blocking on the empty queue.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

TEST(BatcherTest, BlockedFirstPopWokenByArrival) {
  RequestQueue q(8);
  DynamicBatcher batcher(q, BatcherConfig{4, 0});
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(q.TryPush(MakeRequest(42)));
  });
  std::vector<Request> batch = batcher.NextBatch(0);  // blocks until arrival
  producer.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 42);
}

TEST(BatcherTest, ClosedAndDrainedYieldsEmptyBatch) {
  RequestQueue q(4);
  ASSERT_TRUE(q.TryPush(MakeRequest(0)));
  q.Close();
  DynamicBatcher batcher(q, BatcherConfig{4, 1'000});
  EXPECT_EQ(batcher.NextBatch(1'000).size(), 1u);  // drains the leftover
  EXPECT_TRUE(batcher.NextBatch(1'000).empty());   // end-of-stream signal
}

TEST(BatcherTest, CloseDuringWindowReturnsPartialBatch) {
  RequestQueue q(4);
  ASSERT_TRUE(q.TryPush(MakeRequest(0)));
  DynamicBatcher batcher(q, BatcherConfig{4, 2'000'000});  // 2 s window
  std::thread closer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Close();
  });
  const auto start = ServeClock::now();
  std::vector<Request> batch = batcher.NextBatch(2'000'000);
  closer.join();
  EXPECT_EQ(batch.size(), 1u);
  // The close must cut the window short — far below the 2 s budget.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                ServeClock::now() - start)
                .count(),
            1000);
}

}  // namespace
}  // namespace nai::serve
