#ifndef NAI_SERVE_SCHEDULER_H_
#define NAI_SERVE_SCHEDULER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace nai::serve {

using SchedClock = std::chrono::steady_clock;

/// Knobs of the adaptive serving scheduler (one per ServingEngine; the
/// queue discipline is replicated into every shard queue).
///
/// The three mechanisms are independent and individually disableable so a
/// deployment (or a bench A/B) can isolate each one:
///   * `priority` — speed-first requests bypass queued accuracy-first work
///     inside a shard queue, bounded by `priority_aging_us` so the bypassed
///     class cannot starve.
///   * `stealing` — an idle shard pump steals whole coalesced batches from
///     the most backlogged sibling queue and serves them on its own engine
///     (every shard engine serves the whole snapshot, so results stay
///     bit-identical).
///   * `adaptive` — the admission controller tracks per-shard arrival and
///     service rates (EWMA) and adapts the batcher's coalescing window and
///     TrySubmit shedding to them.
struct SchedulerOptions {
  bool priority = true;
  /// Longest a queued accuracy-first request may be bypassed by later
  /// speed-first arrivals, measured from its admission. Once exceeded the
  /// oldest request wins regardless of class; 0 therefore degenerates to
  /// arrival-order FIFO (no bypass at all).
  std::int64_t priority_aging_us = 5000;

  bool stealing = true;
  /// A victim queue must hold at least this many requests to be stolen
  /// from (stealing a nearly-empty queue just moves the batching window).
  std::size_t steal_min_backlog = 2;
  /// How long an idle pump waits on its own queue before scanning the
  /// sibling queues for work to steal.
  std::int64_t steal_poll_us = 250;

  bool adaptive = true;
  /// Weight of the newest sample in the arrival/service EWMAs (0, 1].
  double ewma_alpha = 0.2;
  /// Bounds of the adapted coalescing window. The controller never moves
  /// `max_wait_us` outside [min_wait_us, max_wait_us_bound].
  std::int64_t min_wait_us = 0;
  std::int64_t max_wait_us_bound = 2000;
};

/// Point-in-time adaptation state of one shard, exposed through
/// ServingStatsSnapshot::scheduler.
struct SchedulerShardSnapshot {
  std::size_t shard = 0;
  double arrival_qps = 0.0;  ///< EWMA of the observed admission attempts
  double service_qps = 0.0;  ///< EWMA of the shard engine's serving rate
  std::int64_t batch_wait_us = 0;  ///< current adapted coalescing window
  /// Queue depth above which the controller last shed a TrySubmit
  /// (-1 until the service EWMA has formed — no adaptive shedding yet).
  std::int64_t admit_limit = -1;
  std::int64_t adaptive_sheds = 0;      ///< TrySubmits shed by the controller
  std::int64_t batches_stolen_from = 0; ///< batches taken out of this queue
  std::int64_t batches_stolen_by = 0;   ///< batches this shard's pump stole
};

/// One adaptation step of the admission controller: recorded every time a
/// shard's pump completes a batch and the controller re-derives that
/// shard's window and admission limit. The bounded ring of these is the
/// "adaptation trace" — how the scheduler reacted to the arrival process
/// over time.
struct SchedulerTraceEvent {
  double t_ms = 0.0;  ///< since the controller was built
  std::size_t shard = 0;
  double arrival_qps = 0.0;
  double service_qps = 0.0;
  /// The window the controller derived at this step — what the *next*
  /// batch will coalesce under.
  std::int64_t batch_wait_us = 0;
  /// The window the recorded batch *actually* coalesced under (read at its
  /// window-open). This is what distinguishes the trace from a guess: a
  /// retune lands mid-window without affecting the batch already open, so
  /// `applied_wait_us` of the next event typically equals `batch_wait_us`
  /// of this one, not of itself. -1 when no window applied at all (stolen
  /// batches are drained directly, never coalesced).
  std::int64_t applied_wait_us = -1;
  std::int64_t admit_limit = -1;
};

/// Tracks the observed per-shard arrival rate (EWMA over inter-arrival
/// gaps) and service rate (EWMA over per-request engine time), and derives
/// from them (a) the coalescing window each shard's batcher should run
/// with and (b) whether a non-blocking admission should be shed because
/// its predicted queue delay already exceeds the request's deadline
/// budget.
///
/// Thread-safety: every method is safe to call concurrently; per-shard
/// state is guarded by a per-shard mutex (client threads record arrivals,
/// the shard's pump records batches) and the trace ring by its own.
class AdmissionController {
 public:
  /// Trace-ring capacity: old events are overwritten, Trace() returns the
  /// most recent `kTraceCapacity` in chronological order.
  static constexpr std::size_t kTraceCapacity = 256;

  /// Throws std::invalid_argument on a degenerate configuration
  /// (ewma_alpha outside (0, 1], negative bounds, min > max,
  /// non-positive steal_poll_us, negative aging).
  AdmissionController(std::size_t num_shards, const SchedulerOptions& options,
                      std::size_t max_batch, std::int64_t base_wait_us);
  ~AdmissionController();

  /// Records one admission attempt at `now` (admitted or not — the
  /// arrival process is what the shard observes, not what it accepts).
  void RecordArrival(std::size_t shard, SchedClock::time_point now);

  /// Records one completed engine batch: `served` requests in `engine_ms`.
  /// Re-derives the shard's window and appends a trace event.
  /// `applied_wait_us` is the coalescing window the batch actually ran
  /// with (DynamicBatcher::last_window_us(); -1 for stolen batches, which
  /// bypass the batcher) — stamped into the trace event verbatim.
  void RecordBatch(std::size_t shard, std::size_t served, double engine_ms,
                   std::int64_t applied_wait_us, SchedClock::time_point now);

  /// The coalescing window shard's batcher should currently run with.
  /// Equals the base window until adaptation has seen arrivals.
  std::int64_t WaitUs(std::size_t shard) const;

  /// Admission decision for a non-blocking submit: false when the
  /// predicted queue delay (`queue_depth` requests at the shard's EWMA
  /// service time each) already exceeds `budget_ms` — the request would
  /// miss its deadline before reaching the engine, so shedding it now is
  /// cheaper for everyone behind it. Always true until the service EWMA
  /// has formed (never shed blind) or when `adaptive` is off.
  bool Admit(std::size_t shard, std::size_t queue_depth, double budget_ms);

  /// Point-in-time adaptation state (steal/shed counters are tracked by
  /// the ServingEngine and merged into ServingStatsSnapshot there).
  SchedulerShardSnapshot Snapshot(std::size_t shard) const;

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
  struct ShardState;

  SchedulerOptions options_;
  std::size_t max_batch_;
  std::int64_t base_wait_us_;
  SchedClock::time_point start_;
  std::vector<std::unique_ptr<ShardState>> shards_;

  mutable std::mutex trace_mu_;
  std::vector<SchedulerTraceEvent> trace_;  ///< ring buffer
  std::size_t trace_next_ = 0;
  double last_trace_ms_ = 0.0;  ///< t_ms of the newest event
};

}  // namespace nai::serve

#endif  // NAI_SERVE_SCHEDULER_H_
