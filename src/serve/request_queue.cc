#include "src/serve/request_queue.h"

#include <stdexcept>
#include <utility>

#include "src/serve/scheduler.h"

namespace nai::serve {

RequestQueue::RequestQueue(std::size_t capacity, QueuePolicy policy)
    : capacity_(capacity), policy_(policy) {
  if (capacity == 0) {
    throw std::invalid_argument("RequestQueue: capacity must be positive");
  }
}

std::size_t RequestQueue::TotalLocked() const {
  std::size_t total = 0;
  for (const std::deque<Slot>& deque : items_) total += deque.size();
  return total;
}

int RequestQueue::PickClassLocked(ServeClock::time_point now) const {
  // Class order is priority order: kSpeedFirst (0) bypasses the rest.
  int first = -1;
  for (std::size_t c = 0; c < kNumQosClasses; ++c) {
    if (!items_[c].empty()) {
      first = static_cast<int>(c);
      break;
    }
  }
  if (first < 0) return -1;
  // Oldest slot across every class — the FIFO answer, and the aged answer.
  int oldest = first;
  for (std::size_t c = first + 1; c < kNumQosClasses; ++c) {
    if (!items_[c].empty() &&
        items_[c].front().seq < items_[oldest].front().seq) {
      oldest = static_cast<int>(c);
    }
  }
  if (!policy_.priority) return oldest;
  if (oldest == first) return first;  // highest class is also the oldest
  // Bypass the oldest (lower-priority) head only while it is younger than
  // the aging bound; past it, seniority beats class.
  const auto age = now - items_[oldest].front().request.admitted;
  return age >= std::chrono::microseconds(kPriorityAgingUs) ? oldest : first;
}

Request RequestQueue::PopPickedLocked(int cls) {
  Request out = std::move(items_[cls].front().request);
  items_[cls].pop_front();
  return out;
}

bool RequestQueue::TryPush(Request&& request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || TotalLocked() >= capacity_) return false;
    const std::size_t c = static_cast<std::size_t>(request.qos);
    items_[c].push_back(Slot{std::move(request), next_seq_++});
  }
  not_empty_.notify_one();
  return true;
}

bool RequestQueue::Push(Request&& request) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || TotalLocked() < capacity_; });
    if (closed_) return false;
    const std::size_t c = static_cast<std::size_t>(request.qos);
    items_[c].push_back(Slot{std::move(request), next_seq_++});
  }
  not_empty_.notify_one();
  return true;
}

std::optional<Request> RequestQueue::Pop() {
  std::optional<Request> out;
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || TotalLocked() > 0; });
    const int cls = PickClassLocked(ServeClock::now());
    if (cls < 0) return std::nullopt;  // closed and drained
    out.emplace(PopPickedLocked(cls));
  }
  not_full_.notify_one();
  return out;
}

std::optional<Request> RequestQueue::TryPop() {
  std::optional<Request> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int cls = PickClassLocked(ServeClock::now());
    if (cls < 0) return std::nullopt;
    out.emplace(PopPickedLocked(cls));
  }
  not_full_.notify_one();
  return out;
}

bool RequestQueue::WaitForItem(ServeClock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait_until(lock, deadline,
                        [this] { return closed_ || TotalLocked() > 0; });
  return TotalLocked() > 0;
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

bool RequestQueue::drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_ && TotalLocked() == 0;
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TotalLocked();
}

}  // namespace nai::serve
