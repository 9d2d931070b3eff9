#include "src/serve/batcher.h"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

namespace nai::serve {

DynamicBatcher::DynamicBatcher(RequestQueue& queue, BatcherConfig config)
    : queue_(queue), config_(config), window_us_(config.max_wait_us) {
  if (config_.max_batch == 0) {
    throw std::invalid_argument("DynamicBatcher: max_batch must be positive");
  }
  if (config_.max_wait_us < 0) {
    throw std::invalid_argument(
        "DynamicBatcher: max_wait_us must be non-negative");
  }
}

std::vector<Request> DynamicBatcher::NextBatch() {
  std::vector<Request> batch;
  std::optional<Request> first = queue_.Pop();  // blocks; nullopt = shutdown
  if (!first.has_value()) return batch;
  batch.reserve(config_.max_batch);
  batch.push_back(std::move(*first));

  // The coalescing window opens at the first pop, not per straggler: a
  // steady trickle cannot hold a batch open forever. It is read exactly
  // once per batch — a retune mid-window affects the next batch, and
  // last_window_us_ remembers what this batch really ran with.
  const std::int64_t window_us = window_us_.load(std::memory_order_relaxed);
  last_window_us_.store(window_us, std::memory_order_relaxed);
  const ServeClock::time_point window_end =
      ServeClock::now() + std::chrono::microseconds(window_us);
  while (batch.size() < config_.max_batch) {
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
