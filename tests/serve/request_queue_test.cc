// RequestQueue contract: bounded capacity with non-blocking backpressure,
// FIFO order, close semantics (pushes fail, pops drain), and MPMC safety,
// also with several batchers draining one queue — the contention tests run
// under TSan in scripts/check.sh.

#include "src/serve/request_queue.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/serve/batcher.h"

namespace nai::serve {
namespace {

Request MakeRequest(std::int64_t id) {
  Request r;
  r.id = id;
  r.node = static_cast<std::int32_t>(id);
  return r;
}

TEST(RequestQueueTest, ZeroCapacityThrows) {
  EXPECT_THROW(RequestQueue(0), std::invalid_argument);
}

TEST(RequestQueueTest, TryPushBackpressureAtCapacity) {
  RequestQueue q(2);
  EXPECT_TRUE(q.TryPush(MakeRequest(0)));
  EXPECT_TRUE(q.TryPush(MakeRequest(1)));
  EXPECT_EQ(q.size(), 2u);
  // Full: admission control says no, without blocking.
  EXPECT_FALSE(q.TryPush(MakeRequest(2)));
  EXPECT_EQ(q.size(), 2u);

  auto popped = q.TryPop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_TRUE(q.TryPush(MakeRequest(3)));
}

TEST(RequestQueueTest, FifoOrder) {
  RequestQueue q(8);
  for (std::int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.TryPush(MakeRequest(i)));
  }
  for (std::int64_t i = 0; i < 5; ++i) {
    auto r = q.Pop();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->id, i);
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(RequestQueueTest, CloseFailsPushesButDrainsPops) {
  RequestQueue q(4);
  ASSERT_TRUE(q.TryPush(MakeRequest(1)));
  ASSERT_TRUE(q.TryPush(MakeRequest(2)));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.TryPush(MakeRequest(3)));
  EXPECT_FALSE(q.Push(MakeRequest(4)));
  // Everything admitted before the close still comes out...
  EXPECT_EQ(q.Pop()->id, 1);
  EXPECT_EQ(q.Pop()->id, 2);
  // ...and a drained closed queue reports shutdown, not blocking.
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(RequestQueueTest, CloseWakesBlockedPop) {
  RequestQueue q(2);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    EXPECT_FALSE(q.Pop().has_value());  // blocks until Close
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.Close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(RequestQueueTest, CloseWakesBlockedPush) {
  RequestQueue q(1);
  ASSERT_TRUE(q.TryPush(MakeRequest(0)));
  std::atomic<bool> accepted{true};
  std::thread producer([&] { accepted.store(q.Push(MakeRequest(1))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  producer.join();
  EXPECT_FALSE(accepted.load());
}

TEST(RequestQueueTest, WaitForItemTimesOut) {
  RequestQueue q(2);
  const auto deadline =
      ServeClock::now() + std::chrono::milliseconds(10);
  EXPECT_FALSE(q.WaitForItem(deadline));
  ASSERT_TRUE(q.TryPush(MakeRequest(7)));
  EXPECT_TRUE(q.WaitForItem(ServeClock::now() +
                            std::chrono::milliseconds(10)));
}

TEST(RequestQueueTest, BlockingPushDeliversThroughBackpressure) {
  // A capacity-1 queue forces every producer push to wait for the consumer:
  // the full producer/consumer handshake, single-threaded on each side.
  RequestQueue q(1);
  constexpr std::int64_t kCount = 200;
  std::thread producer([&] {
    for (std::int64_t i = 0; i < kCount; ++i) {
      ASSERT_TRUE(q.Push(MakeRequest(i)));
    }
  });
  std::vector<std::int64_t> seen;
  for (std::int64_t i = 0; i < kCount; ++i) {
    auto r = q.Pop();
    ASSERT_TRUE(r.has_value());
    seen.push_back(r->id);
  }
  producer.join();
  for (std::int64_t i = 0; i < kCount; ++i) EXPECT_EQ(seen[i], i);
}

TEST(RequestQueueTest, MpmcEveryRequestPoppedExactlyOnce) {
  // The TSan centerpiece: several producers and consumers hammer one small
  // queue; every id must come out exactly once, across all consumers.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr std::int64_t kPerProducer = 250;
  RequestQueue q(8);

  std::vector<std::vector<std::int64_t>> consumed(kConsumers);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      while (true) {
        auto r = q.Pop();
        if (!r.has_value()) return;  // closed and drained
        consumed[c].push_back(r->id);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::int64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(MakeRequest(p * kPerProducer + i)));
      }
    });
  }
  for (std::size_t t = kConsumers; t < threads.size(); ++t) {
    threads[t].join();  // producers first
  }
  q.Close();
  for (int c = 0; c < kConsumers; ++c) threads[c].join();

  std::set<std::int64_t> ids;
  std::size_t total = 0;
  for (const auto& v : consumed) {
    total += v.size();
    ids.insert(v.begin(), v.end());
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers * kPerProducer));
  EXPECT_EQ(ids.size(), total);  // no duplicates
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), kProducers * kPerProducer - 1);
}

TEST(RequestQueueTest, PromiseSurvivesQueuePassage) {
  // The queue carries live promises; fulfilling one after a round trip must
  // reach the future taken before admission.
  RequestQueue q(2);
  Request r = MakeRequest(11);
  std::future<Response> fut = r.promise.get_future();
  ASSERT_TRUE(q.Push(std::move(r)));
  auto popped = q.Pop();
  ASSERT_TRUE(popped.has_value());
  Response resp;
  resp.prediction = 3;
  resp.served = true;
  popped->promise.set_value(resp);
  EXPECT_EQ(fut.get().prediction, 3);
}

TEST(RequestQueueTest, CloseThenDrainRacedWithNBatchersLosesNothing) {
  // The shutdown race of the serving front-end: while producers are still
  // pushing, Close() lands concurrently with several pumps' batchers
  // draining the one queue, each holding its coalescing window open.
  // Contract: every request that was admitted (its push returned true) is
  // batched by exactly one batcher — no loss, no duplication — and every
  // batcher exits once the queue reports drained. Runs under TSan in
  // scripts/check.sh.
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 400;
  constexpr int kBatchers = 3;
  RequestQueue q(64);

  std::array<std::atomic<int>, kProducers * kPerProducer> popped_count{};
  std::atomic<std::int64_t> admitted{0};
  std::atomic<std::int64_t> drained{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Request r = MakeRequest(p * kPerProducer + i);
        // Spin on TryPush: a full queue retries, a closed queue gives up
        // (requests refused at admission are simply never counted).
        while (!q.TryPush(std::move(r))) {
          if (q.closed()) return;
          std::this_thread::yield();
          r = MakeRequest(p * kPerProducer + i);
        }
        admitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::unique_ptr<DynamicBatcher>> batchers;
  for (int b = 0; b < kBatchers; ++b) {
    batchers.push_back(std::make_unique<DynamicBatcher>(
        q, BatcherConfig{/*max_batch=*/8, /*max_wait_us=*/100}));
  }
  for (int b = 0; b < kBatchers; ++b) {
    threads.emplace_back([&, b] {
      while (true) {
        const std::vector<Request> batch = batchers[b]->NextBatch();
        if (batch.empty()) return;  // closed and drained
        for (const Request& r : batch) {
          popped_count[static_cast<std::size_t>(r.id)].fetch_add(
              1, std::memory_order_relaxed);
          drained.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Let the race develop, then close mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.Close();
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(q.drained());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(drained.load(), admitted.load());  // no admitted request lost
  for (std::size_t id = 0; id < popped_count.size(); ++id) {
    EXPECT_LE(popped_count[id].load(), 1) << "request " << id
                                          << " batched twice";
  }
  // The close landed mid-stream: with 5ms of runway and a 64-slot queue at
  // least something must have been admitted, or the race never happened.
  EXPECT_GT(admitted.load(), 0);
}

}  // namespace
}  // namespace nai::serve
