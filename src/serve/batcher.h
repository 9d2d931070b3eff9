#ifndef NAI_SERVE_BATCHER_H_
#define NAI_SERVE_BATCHER_H_

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
  /// time.
  std::int64_t max_wait_us = 200;
};

/// Coalesces queued requests into engine batches: blocks for the first
/// request, then keeps gathering until the batch is full or the window
/// since that first pop expires. The batcher keeps no state between
/// batches, so every pump of a ServingEngine shares one over the one
/// queue; each batch is popped by exactly one pump.
///
/// The batcher drains the queue in the queue's policy order (FIFO, or
/// priority with aging) and is otherwise QoS-agnostic — a batch can mix
/// classes, and the engine's per-query-config entry point
/// (core::ConfiguredQuery) splits it by resolved config downstream.
class DynamicBatcher {
 public:
  /// Throws std::invalid_argument for a zero max_batch or a negative
  /// max_wait_us.
  DynamicBatcher(RequestQueue& queue, BatcherConfig config);

  /// Returns the next batch (1..max_batch requests), held open for
  /// `window_us` after its first pop, or an empty vector when the queue is
  /// closed and fully drained — the pump's exit signal.
  std::vector<Request> NextBatch(std::int64_t window_us);

 private:
  RequestQueue& queue_;
  std::size_t max_batch_;
};

}  // namespace nai::serve

#endif  // NAI_SERVE_BATCHER_H_
