#ifndef NAI_SERVE_BATCHER_H_
#define NAI_SERVE_BATCHER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/serve/request_queue.h"

namespace nai::serve {

/// Coalescing knobs of every pump's batcher.
struct BatcherConfig {
  /// Largest batch one engine call serves. Bigger batches amortize the
  /// supporting-set BFS across co-located queries; smaller ones bound the
  /// head-of-line latency a request can add to its neighbors.
  std::size_t max_batch = 64;
  /// How long to hold an incomplete batch open for stragglers, measured
  /// from the moment its *first* request is popped. 0 = serve whatever is
  /// immediately available (latency-optimal, throughput-pessimal). This is
  /// the *initial* window: the admission controller may retune it at run
  /// time through set_max_wait_us.
  std::int64_t max_wait_us = 200;
};

/// Coalesces queued requests into engine batches: blocks for the first
/// request, then keeps gathering until the batch is full or the window
/// since that first pop expires. One batcher per pump thread; the pumps'
/// batchers all drain the one queue of a ServingEngine, so each batch is
/// popped by exactly one of them.
///
/// The batcher drains the queue in the queue's policy order (FIFO, or
/// priority with aging) and is otherwise QoS-agnostic — a batch can mix
/// classes, and the engine's per-query-config entry point
/// (core::ConfiguredQuery) splits it by resolved config downstream.
class DynamicBatcher {
 public:
  DynamicBatcher(RequestQueue& queue, BatcherConfig config);

  /// Returns the next batch (1..max_batch requests), or an empty vector
  /// when the queue is closed and fully drained — the pump's exit signal.
  std::vector<Request> NextBatch();

  /// The coalescing window currently in force. Initially
  /// config.max_wait_us; the admission controller retunes it (thread-safe,
  /// takes effect at the next batch).
  std::int64_t max_wait_us() const {
    return window_us_.load(std::memory_order_relaxed);
  }
  void set_max_wait_us(std::int64_t wait_us) {
    window_us_.store(wait_us < 0 ? 0 : wait_us, std::memory_order_relaxed);
  }

  /// The window the most recent non-empty batch *actually* coalesced under
  /// (-1 before any batch). The window is read once, when the batch's
  /// first request is popped, so a set_max_wait_us landing mid-window is
  /// invisible to the batch already open — this getter is what reports the
  /// truth to the adaptation trace (SchedulerTraceEvent::applied_wait_us)
  /// instead of the retuned value that never applied.
  std::int64_t last_window_us() const {
    return last_window_us_.load(std::memory_order_relaxed);
  }

  const BatcherConfig& config() const { return config_; }

 private:
  RequestQueue& queue_;
  BatcherConfig config_;
  std::atomic<std::int64_t> window_us_;
  std::atomic<std::int64_t> last_window_us_{-1};
};

}  // namespace nai::serve

#endif  // NAI_SERVE_BATCHER_H_
