#ifndef NAI_SERVE_SCHEDULER_H_
#define NAI_SERVE_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace nai::serve {

using SchedClock = std::chrono::steady_clock;

/// Knobs of the adaptive serving scheduler (one per ServingEngine, which
/// runs one queue drained by one pump per engine).
///
/// The two mechanisms are independent and individually disableable so a
/// deployment (or a bench A/B) can isolate each one:
///   * `priority` — speed-first requests bypass queued accuracy-first work,
///     bounded by `priority_aging_us` so the bypassed class cannot starve.
///   * `adaptive` — the admission controller tracks the arrival rate per
///     engine and the per-request service time (EWMAs) and adapts the
///     batchers' coalescing window and TrySubmit shedding to them.
struct SchedulerOptions {
  bool priority = true;
  /// Longest a queued accuracy-first request may be bypassed by later
  /// speed-first arrivals, measured from its admission. Once exceeded the
  /// oldest request wins regardless of class; 0 therefore degenerates to
  /// arrival-order FIFO (no bypass at all).
  std::int64_t priority_aging_us = 5000;

  bool adaptive = true;
  /// Weight of the newest sample in the arrival/service EWMAs (0, 1].
  double ewma_alpha = 0.2;
  /// Bounds of the adapted coalescing window. The controller never moves
  /// `max_wait_us` outside [min_wait_us, max_wait_us_bound].
  std::int64_t min_wait_us = 0;
  std::int64_t max_wait_us_bound = 2000;
};

/// Point-in-time adaptation state, exposed through
/// ServingStatsSnapshot::scheduler.
struct SchedulerSnapshot {
  double arrival_qps = 0.0;  ///< EWMA of admission attempts, per engine
  double service_qps = 0.0;  ///< EWMA of one engine's serving rate
  std::int64_t batch_wait_us = 0;  ///< current adapted coalescing window
  /// Queue depth above which the controller last shed a TrySubmit
  /// (-1 until the service EWMA has formed — no adaptive shedding yet).
  std::int64_t admit_limit = -1;
};

/// One adaptation step of the admission controller: recorded every time a
/// pump completes a batch and the controller re-derives the window and
/// admission limit. The bounded ring of these is the "adaptation trace" —
/// how the scheduler reacted to the arrival process over time.
struct SchedulerTraceEvent {
  double t_ms = 0.0;  ///< since the controller was built
  std::size_t engine = 0;  ///< the engine (shard index) that served the batch
  double arrival_qps = 0.0;
  double service_qps = 0.0;
  /// The window the controller derived at this step — what the *next*
  /// batch will coalesce under.
  std::int64_t batch_wait_us = 0;
  /// The window the recorded batch *actually* coalesced under (read at its
  /// window-open). This is what distinguishes the trace from a guess: a
  /// retune lands mid-window without affecting the batch already open, so
  /// `applied_wait_us` of the next event typically equals `batch_wait_us`
  /// of this one, not of itself.
  std::int64_t applied_wait_us = -1;
  std::int64_t admit_limit = -1;
};

/// Tracks the observed arrival rate (EWMA over inter-arrival gaps of the
/// one queue, divided by the number of engines draining it) and service
/// rate (EWMA over per-request engine time, fed by every pump), and
/// derives from them (a) the coalescing window every batcher should run
/// with and (b) whether a non-blocking admission should be shed because
/// its predicted queue delay already exceeds the request's deadline
/// budget. Both rules see what one engine sees: its share of the arrivals
/// and its share of the queue.
///
/// Thread-safety: every method is safe to call concurrently; the EWMA
/// state is guarded by one mutex (client threads record arrivals, pumps
/// record batches) and the trace ring by its own.
class AdmissionController {
 public:
  /// Trace-ring capacity: old events are overwritten, Trace() returns the
  /// most recent `kTraceCapacity` in chronological order.
  static constexpr std::size_t kTraceCapacity = 256;

  /// `num_engines` is how many pumps drain the queue. Throws
  /// std::invalid_argument on a degenerate configuration (no engines,
  /// ewma_alpha outside (0, 1], negative bounds, min > max, negative
  /// aging).
  AdmissionController(std::size_t num_engines, const SchedulerOptions& options,
                      std::size_t max_batch, std::int64_t base_wait_us);

  /// Records one admission attempt at `now` (admitted or not — the
  /// arrival process is what the queue observes, not what it accepts).
  void RecordArrival(SchedClock::time_point now);

  /// Records one batch `engine` completed: `served` requests in
  /// `engine_ms`. Re-derives the window and appends a trace event.
  /// `applied_wait_us` is the coalescing window the batch actually ran
  /// with (DynamicBatcher::last_window_us()) — stamped into the trace
  /// event verbatim.
  void RecordBatch(std::size_t engine, std::size_t served, double engine_ms,
                   std::int64_t applied_wait_us, SchedClock::time_point now);

  /// The coalescing window the batchers should currently run with.
  /// Equals the base window until adaptation has seen arrivals.
  std::int64_t WaitUs() const {
    return wait_us_.load(std::memory_order_relaxed);
  }

  /// Admission decision for a non-blocking submit: false when the
  /// predicted queue delay (`queue_depth` requests shared by the engines,
  /// depth * service_time / num_engines) already exceeds `budget_ms` — the
  /// request would miss its deadline before reaching an engine, so
  /// shedding it now is cheaper for everyone behind it. Always true until
  /// the service EWMA has formed (never shed blind) or when `adaptive` is
  /// off.
  bool Admit(std::size_t queue_depth, double budget_ms);

  /// Point-in-time adaptation state (the shed counter is tracked by the
  /// ServingEngine, in ServingStatsSnapshot::shed_adaptive).
  SchedulerSnapshot Snapshot() const;

  /// The adaptation trace, oldest first.
  std::vector<SchedulerTraceEvent> Trace() const;

  /// The window-adaptation rule, exposed for unit tests: with arrivals
  /// every `gap = 1e6 / arrival_qps` microseconds, holding a batch open is
  /// only worth what the stragglers amortize —
  ///   * unknown rate (<= 0): keep `base_us` (clamped to the bounds);
  ///   * gap > max_us: the next request will not arrive inside any
  ///     permissible window, so do not hold batches open at all (min_us);
  ///   * otherwise: the expected time to fill a batch,
  ///     (max_batch - 1) * gap, clamped to [min_us, max_us].
  static std::int64_t AdaptWaitUs(double arrival_qps, std::size_t max_batch,
                                  std::int64_t base_us, std::int64_t min_us,
                                  std::int64_t max_us);

 private:
  /// Arrival rate per engine; caller holds mu_.
  double ArrivalQpsLocked() const;
  /// One engine's serving rate; caller holds mu_.
  double ServiceQpsLocked() const;

  const SchedulerOptions options_;
  const std::size_t num_engines_;
  const std::size_t max_batch_;
  const std::int64_t base_wait_us_;
  const SchedClock::time_point start_;

  mutable std::mutex mu_;
  bool has_arrival_ = false;
  /// Whether ewma_gap_us_ holds a real blend yet. Seeding must be tracked
  /// explicitly: testing `ewma_gap_us_ <= 0.0` conflates "unseeded" with "a
  /// zero inter-arrival gap", and a coarse monotone clock hands equal
  /// stamps to back-to-back arrivals routinely — the zero gap would keep
  /// the EWMA at 0 and let the *next* real gap overwrite history instead
  /// of blending in.
  bool ewma_gap_seeded_ = false;
  SchedClock::time_point last_arrival_{};
  double ewma_gap_us_ = 0.0;      ///< inter-arrival EWMA; 0 until 2 arrivals
  double ewma_service_us_ = 0.0;  ///< per-request engine time; 0 until a batch
  std::int64_t last_admit_limit_ = -1;
  /// The adapted window, mirrored out of mu_ so the pumps read it without
  /// taking the lock.
  std::atomic<std::int64_t> wait_us_;

  mutable std::mutex trace_mu_;
  std::vector<SchedulerTraceEvent> trace_;  ///< ring buffer
  std::size_t trace_next_ = 0;
  double last_trace_ms_ = 0.0;  ///< t_ms of the newest event
};

}  // namespace nai::serve

#endif  // NAI_SERVE_SCHEDULER_H_
