#include "src/serve/batcher.h"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

namespace nai::serve {

DynamicBatcher::DynamicBatcher(RequestQueue& queue, BatcherConfig config)
    : queue_(queue), max_batch_(config.max_batch) {
  if (config.max_batch == 0) {
    throw std::invalid_argument("DynamicBatcher: max_batch must be positive");
  }
  if (config.max_wait_us < 0) {
    throw std::invalid_argument(
        "DynamicBatcher: max_wait_us must be non-negative");
  }
}

std::vector<Request> DynamicBatcher::NextBatch(std::int64_t window_us) {
  std::vector<Request> batch;
  std::optional<Request> first = queue_.Pop();  // blocks; nullopt = shutdown
  if (!first.has_value()) return batch;
  batch.reserve(max_batch_);
  batch.push_back(std::move(*first));

  // The coalescing window opens at the first pop, not per straggler: a
  // steady trickle cannot hold a batch open forever.
  const ServeClock::time_point window_end =
      ServeClock::now() + std::chrono::microseconds(window_us);
  while (batch.size() < max_batch_) {
    std::optional<Request> next = queue_.TryPop();
    if (next.has_value()) {
      batch.push_back(std::move(*next));
      continue;
    }
    if (ServeClock::now() >= window_end) break;
    if (!queue_.WaitForItem(window_end)) break;  // timeout or closed+drained
  }
  return batch;
}

}  // namespace nai::serve
