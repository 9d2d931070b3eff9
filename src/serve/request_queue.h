#ifndef NAI_SERVE_REQUEST_QUEUE_H_
#define NAI_SERVE_REQUEST_QUEUE_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>

#include "src/serve/qos.h"

namespace nai::serve {

using ServeClock = std::chrono::steady_clock;

/// What a request resolves to. Delivered through the request's future (and
/// its callback, when one was attached).
struct Response {
  std::int32_t prediction = -1;  ///< -1 when the request was never served
  std::int32_t exit_depth = -1;  ///< personalized depth L(v) actually used
  QosClass qos = QosClass::kSpeedFirst;
  /// False when the request was shed instead of served: rejected at
  /// admission (queue full / admission controller / engine shut down),
  /// expired in the queue under ServingOptions::drop_expired, or failed by
  /// an engine exception in its batch.
  bool served = false;
  /// True when completion happened after the request's deadline (always
  /// true for expired-dropped requests).
  bool deadline_missed = false;
  /// The graph epoch (snapshot version) the answer was computed under: the
  /// engine state the serving batch pinned, or — for a cache hit — the
  /// epoch the replayed entry was filled at. Compare against
  /// ServingStatsSnapshot::epoch to measure staleness under churn; 0 for
  /// engines that never swap.
  std::uint64_t epoch = 0;
  double queue_ms = 0.0;    ///< admission -> batch formation
  double latency_ms = 0.0;  ///< admission -> completion
};

/// One in-flight streaming query. Owned by the queue between admission and
/// batch formation, then by the serving pump until completion. Move-only
/// (it carries the response promise).
struct Request {
  std::int64_t id = 0;
  std::int32_t node = 0;  ///< global node id
  QosClass qos = QosClass::kSpeedFirst;
  ServeClock::time_point admitted{};
  ServeClock::time_point deadline{};
  std::promise<Response> promise;
  /// Optional completion hook, invoked on the serving pump thread right
  /// after the promise is fulfilled. Must not block.
  std::function<void(const Response&)> callback;
};

/// The pop discipline of the request queue.
///
/// With `priority` off, pops follow global arrival order (FIFO). With it
/// on, speed-first requests bypass queued accuracy-first work — but only
/// while the oldest accuracy-first request has been waiting less than
/// `aging_us` since its admission. Once that bound is exceeded the oldest
/// request wins regardless of class, so the bypassed class's extra
/// queueing delay is capped at aging_us plus one batch: it can be
/// overtaken, never starved. `aging_us = 0` therefore degenerates to FIFO.
struct QueuePolicy {
  bool priority = false;
  std::int64_t aging_us = 5000;
};

/// A bounded MPMC queue of requests — the admission point of the serving
/// front-end. Producers are client threads (Submit/TrySubmit), consumers
/// are the pump threads, one DynamicBatcher each.
///
/// Admission control: TryPush never blocks and returns false when the queue
/// is at capacity (backpressure — the caller sheds or retries), Push blocks
/// until space frees up. Close() makes every subsequent push fail while
/// pops keep draining what was admitted, which is what makes shutdown
/// graceful: nothing accepted is ever dropped on the floor.
///
/// Ordering: within a QoS class pops are always FIFO; across classes the
/// QueuePolicy decides (see above).
class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity, QueuePolicy policy = {});

  /// Non-blocking admission; false when full or closed.
  bool TryPush(Request&& request);

  /// Blocking admission; false when the queue is (or gets) closed.
  bool Push(Request&& request);

  /// Pops the next request under the queue's policy, blocking until one is
  /// available or the queue is closed *and* drained (nullopt).
  std::optional<Request> Pop();

  /// Non-blocking pop; nullopt when currently empty.
  std::optional<Request> TryPop();

  /// Blocks until an item is available or `deadline` passes. True when an
  /// item is (probably) available; false on timeout or closed-and-drained.
  bool WaitForItem(ServeClock::time_point deadline);

  /// Closes the queue: wakes every blocked producer and consumer; pushes
  /// fail from now on, pops drain the remaining items. Idempotent.
  void Close();

  bool closed() const;
  /// Closed with nothing left to pop — the consumer's exit signal.
  bool drained() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  const QueuePolicy& policy() const { return policy_; }

 private:
  /// A queued request plus its global arrival sequence (assigned under the
  /// queue lock, so FIFO comparisons across the per-class deques are
  /// exact even when producers race).
  struct Slot {
    Request request;
    std::uint64_t seq = 0;
  };

  std::size_t TotalLocked() const;
  /// Which class deque the next pop should take from under the policy
  /// (-1 when empty). Caller holds mu_.
  int PickClassLocked(ServeClock::time_point now) const;
  Request PopPickedLocked(int cls);

  const std::size_t capacity_;
  const QueuePolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  /// One FIFO deque per QoS class, in class order (kSpeedFirst first).
  std::array<std::deque<Slot>, kNumQosClasses> items_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace nai::serve

#endif  // NAI_SERVE_REQUEST_QUEUE_H_
