#include "src/serve/scheduler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nai::serve {

/// Per-shard EWMA state. Arrival recording races with pump-side batch
/// recording, so everything mutable sits behind one small mutex per shard;
/// the adapted window is additionally mirrored into an atomic so the
/// batcher path reads it without taking the lock.
struct AdmissionController::ShardState {
  std::mutex mu;
  bool has_arrival = false;
  /// Whether ewma_gap_us holds a real blend yet. Seeding must be tracked
  /// explicitly: testing `ewma_gap_us <= 0.0` conflates "unseeded" with "a
  /// zero inter-arrival gap", and a coarse monotone clock hands equal
  /// stamps to back-to-back arrivals routinely — the zero gap would keep
  /// the EWMA at 0 and let the *next* real gap overwrite history instead
  /// of blending in.
  bool ewma_gap_seeded = false;
  SchedClock::time_point last_arrival{};
  double ewma_gap_us = 0.0;         ///< inter-arrival EWMA; 0 until 2 arrivals
  double ewma_service_us = 0.0;     ///< per-request engine time; 0 until a batch
  std::int64_t last_admit_limit = -1;
  std::atomic<std::int64_t> wait_us{0};
};

AdmissionController::AdmissionController(std::size_t num_shards,
                                         const SchedulerOptions& options,
                                         std::size_t max_batch,
                                         std::int64_t base_wait_us)
    : options_(options),
      max_batch_(max_batch),
      base_wait_us_(base_wait_us),
      start_(SchedClock::now()) {
  if (!(options_.ewma_alpha > 0.0) || options_.ewma_alpha > 1.0) {
    throw std::invalid_argument(
        "SchedulerOptions: ewma_alpha must be in (0, 1], got " +
        std::to_string(options_.ewma_alpha));
  }
  if (options_.priority_aging_us < 0) {
    throw std::invalid_argument(
        "SchedulerOptions: priority_aging_us must be non-negative");
  }
  if (options_.steal_poll_us <= 0) {
    throw std::invalid_argument(
        "SchedulerOptions: steal_poll_us must be positive");
  }
  if (options_.min_wait_us < 0 ||
      options_.min_wait_us > options_.max_wait_us_bound) {
    throw std::invalid_argument(
        "SchedulerOptions: need 0 <= min_wait_us <= max_wait_us_bound");
  }
  trace_.reserve(kTraceCapacity);
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<ShardState>());
    shards_[s]->wait_us.store(
        std::clamp(base_wait_us_, options_.min_wait_us,
                   options_.max_wait_us_bound),
        std::memory_order_relaxed);
  }
}

AdmissionController::~AdmissionController() = default;

std::int64_t AdmissionController::AdaptWaitUs(double arrival_qps,
                                              std::size_t max_batch,
                                              std::int64_t base_us,
                                              std::int64_t min_us,
                                              std::int64_t max_us) {
  if (!(arrival_qps > 0.0)) return std::clamp(base_us, min_us, max_us);
  const double gap_us = 1e6 / arrival_qps;
  if (gap_us > static_cast<double>(max_us)) return min_us;
  const double fill_us =
      static_cast<double>(max_batch > 0 ? max_batch - 1 : 0) * gap_us;
  return std::clamp(static_cast<std::int64_t>(std::llround(fill_us)), min_us,
                    max_us);
}

void AdmissionController::RecordArrival(std::size_t shard,
                                        SchedClock::time_point now) {
  ShardState& state = *shards_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.has_arrival) {
    const double gap_us =
        std::chrono::duration<double, std::micro>(now - state.last_arrival)
            .count();
    if (!state.ewma_gap_seeded) {
      // First observed gap seeds the EWMA — even a zero gap: a burst of
      // equal stamps is a legitimately infinite-rate observation, and
      // later gaps blend into it instead of replacing it.
      state.ewma_gap_us = gap_us;
      state.ewma_gap_seeded = true;
    } else {
      state.ewma_gap_us = options_.ewma_alpha * gap_us +
                          (1.0 - options_.ewma_alpha) * state.ewma_gap_us;
    }
  }
  state.has_arrival = true;
  // A monotone clock can still hand equal stamps to back-to-back arrivals;
  // keeping the max preserves gap >= 0.
  state.last_arrival = std::max(state.last_arrival, now);
}

void AdmissionController::RecordBatch(std::size_t shard, std::size_t served,
                                      double engine_ms,
                                      std::int64_t applied_wait_us,
                                      SchedClock::time_point now) {
  if (served == 0) return;
  ShardState& state = *shards_[shard];
  SchedulerTraceEvent event;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    const double per_request_us =
        1e3 * engine_ms / static_cast<double>(served);
    state.ewma_service_us =
        state.ewma_service_us <= 0.0
            ? per_request_us
            : options_.ewma_alpha * per_request_us +
                  (1.0 - options_.ewma_alpha) * state.ewma_service_us;

    const double arrival_qps =
        state.ewma_gap_us > 0.0 ? 1e6 / state.ewma_gap_us : 0.0;
    state.wait_us.store(
        AdaptWaitUs(arrival_qps, max_batch_, base_wait_us_,
                    options_.min_wait_us, options_.max_wait_us_bound),
        std::memory_order_relaxed);

    event.shard = shard;
    event.arrival_qps = arrival_qps;
    event.service_qps =
        state.ewma_service_us > 0.0 ? 1e6 / state.ewma_service_us : 0.0;
    event.batch_wait_us = state.wait_us.load(std::memory_order_relaxed);
    event.applied_wait_us = applied_wait_us;
    event.admit_limit = state.last_admit_limit;
  }
  std::lock_guard<std::mutex> lock(trace_mu_);
  // Pumps stamp `now` before taking the lock, so two of them can append
  // out of stamp order; keeping the max keeps the trace chronological.
  last_trace_ms_ = std::max(
      last_trace_ms_,
      std::chrono::duration<double, std::milli>(now - start_).count());
  event.t_ms = last_trace_ms_;
  if (trace_.size() < kTraceCapacity) {
    trace_.push_back(event);
  } else {
    trace_[trace_next_] = event;
    trace_next_ = (trace_next_ + 1) % kTraceCapacity;
  }
}

std::int64_t AdmissionController::WaitUs(std::size_t shard) const {
  return shards_[shard]->wait_us.load(std::memory_order_relaxed);
}

bool AdmissionController::Admit(std::size_t shard, std::size_t queue_depth,
                                double budget_ms) {
  if (!options_.adaptive) return true;
  ShardState& state = *shards_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.ewma_service_us <= 0.0) return true;  // never shed blind
  // The shard serves its queue serially, so a request admitted behind
  // `queue_depth` others waits about depth * service_time before its batch
  // even forms; admitting it past that point only manufactures a miss.
  const std::int64_t limit = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(1e3 * budget_ms / state.ewma_service_us));
  state.last_admit_limit = limit;
  return static_cast<std::int64_t>(queue_depth) < limit;
}

SchedulerShardSnapshot AdmissionController::Snapshot(std::size_t shard) const {
  ShardState& state = *shards_[shard];
  SchedulerShardSnapshot snap;
  snap.shard = shard;
  std::lock_guard<std::mutex> lock(state.mu);
  snap.arrival_qps = state.ewma_gap_us > 0.0 ? 1e6 / state.ewma_gap_us : 0.0;
  snap.service_qps =
      state.ewma_service_us > 0.0 ? 1e6 / state.ewma_service_us : 0.0;
  snap.batch_wait_us = state.wait_us.load(std::memory_order_relaxed);
  snap.admit_limit = state.last_admit_limit;
  return snap;
}

std::vector<SchedulerTraceEvent> AdmissionController::Trace() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  std::vector<SchedulerTraceEvent> out;
  out.reserve(trace_.size());
  // Ring order: [trace_next_, end) is the older half once wrapped.
  for (std::size_t i = trace_next_; i < trace_.size(); ++i) {
    out.push_back(trace_[i]);
  }
  for (std::size_t i = 0; i < trace_next_; ++i) out.push_back(trace_[i]);
  return out;
}

}  // namespace nai::serve
