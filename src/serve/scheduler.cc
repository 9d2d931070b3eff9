#include "src/serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nai::serve {

AdmissionController::AdmissionController(std::size_t num_engines,
                                         const SchedulerOptions& options,
                                         std::size_t max_batch,
                                         std::int64_t base_wait_us)
    : options_(options),
      num_engines_(num_engines),
      max_batch_(max_batch),
      base_wait_us_(base_wait_us),
      start_(SchedClock::now()) {
  if (num_engines_ == 0) {
    throw std::invalid_argument("AdmissionController: no engines");
  }
  wait_us_.store(std::clamp(base_wait_us_, kMinWaitUs, kMaxWaitUsBound),
                 std::memory_order_relaxed);
  trace_.reserve(kTraceCapacity);
}

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

double AdmissionController::ArrivalQpsLocked() const {
  // The gaps are those of the one queue; each engine sees 1/num_engines of
  // its arrivals, which is the rate its batcher can coalesce.
  return ewma_gap_us_ > 0.0
             ? 1e6 / (ewma_gap_us_ * static_cast<double>(num_engines_))
             : 0.0;
}

double AdmissionController::ServiceQpsLocked() const {
  return ewma_service_us_ > 0.0 ? 1e6 / ewma_service_us_ : 0.0;
}

void AdmissionController::RecordArrival(SchedClock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (has_arrival_) {
    // Client threads stamp `now` before taking the lock, so a stamp can
    // trail the newest one recorded; such a gap counts as zero.
    const double gap_us = std::max(
        0.0,
        std::chrono::duration<double, std::micro>(now - last_arrival_).count());
    if (!ewma_gap_seeded_) {
      // First observed gap seeds the EWMA — even a zero gap: a burst of
      // equal stamps is a legitimately infinite-rate observation, and
      // later gaps blend into it instead of replacing it.
      ewma_gap_us_ = gap_us;
      ewma_gap_seeded_ = true;
    } else {
      ewma_gap_us_ = kEwmaAlpha * gap_us + (1.0 - kEwmaAlpha) * ewma_gap_us_;
    }
  }
  has_arrival_ = true;
  last_arrival_ = std::max(last_arrival_, now);
}

void AdmissionController::RecordBatch(std::size_t engine, std::size_t served,
                                      double engine_ms,
                                      std::int64_t applied_wait_us,
                                      SchedClock::time_point now) {
  if (served == 0) return;
  SchedulerTraceEvent event;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const double per_request_us =
        1e3 * engine_ms / static_cast<double>(served);
    ewma_service_us_ =
        ewma_service_us_ <= 0.0
            ? per_request_us
            : kEwmaAlpha * per_request_us +
                  (1.0 - kEwmaAlpha) * ewma_service_us_;

    event.engine = engine;
    event.arrival_qps = ArrivalQpsLocked();
    event.service_qps = ServiceQpsLocked();
    event.batch_wait_us =
        AdaptWaitUs(event.arrival_qps, max_batch_, base_wait_us_, kMinWaitUs,
                    kMaxWaitUsBound);
    event.applied_wait_us = applied_wait_us;
    event.admit_limit = last_admit_limit_;
    wait_us_.store(event.batch_wait_us, std::memory_order_relaxed);
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

bool AdmissionController::Admit(std::size_t queue_depth, double budget_ms) {
  if (!options_.adaptive) return true;
  std::lock_guard<std::mutex> lock(mu_);
  if (ewma_service_us_ <= 0.0) return true;  // never shed blind
  // Each engine serves its share of the queue serially, so a request
  // admitted behind `queue_depth` others waits about
  // depth * service_time / num_engines before its batch even forms;
  // admitting it past that point only manufactures a miss. Each engine's
  // share admits at least one request, as a lone queue always would.
  const std::int64_t per_engine = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(1e3 * budget_ms / ewma_service_us_));
  last_admit_limit_ = per_engine * static_cast<std::int64_t>(num_engines_);
  return static_cast<std::int64_t>(queue_depth) < last_admit_limit_;
}

SchedulerSnapshot AdmissionController::Snapshot() const {
  SchedulerSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.arrival_qps = ArrivalQpsLocked();
  snap.service_qps = ServiceQpsLocked();
  snap.batch_wait_us = WaitUs();
  snap.admit_limit = last_admit_limit_;
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
