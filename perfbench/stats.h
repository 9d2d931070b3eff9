// Statistics and tracing helpers of the serving benchmark: the percentile
// rule, the due-time request clock and in-memory spans with self time.
// Header-only so the self-test (stats_test.cc) links nothing else.
#ifndef NAI_PERFBENCH_STATS_H_
#define NAI_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A tail percentile as the benchmark reports it: the value, the
/// percentile actually used, the sample count and how many samples lie
/// strictly beyond the value's rank.
struct Tail {
  double value = 0.0;
  double quantile = 0.0;
  std::size_t count = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile of `sorted` (ascending): the sample at rank
/// ceil(q * n), 1-based. 0 for an empty sample.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The highest percentile, capped at `cap`, that leaves at least
/// `min_beyond` samples beyond its rank: p99 once n >= 100 * min_beyond,
/// otherwise the rank n - min_beyond. Never below the median; with fewer
/// than 2 * min_beyond samples the median is reported, and `beyond` says
/// how many samples back it.
inline Tail TailPercentile(std::vector<double> samples, double cap = 0.99,
                           std::size_t min_beyond = 10) {
  Tail tail;
  tail.count = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(cap * static_cast<double>(n) - 1e-9));
  if (n < rank + min_beyond) rank = n > min_beyond ? n - min_beyond : 0;
  const std::size_t median_rank = (n + 1) / 2;
  if (rank < median_rank) rank = median_rank;
  tail.value = samples[rank - 1];
  tail.quantile = static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = n - rank;
  return tail;
}

inline double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, 0.5);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// One request as the load generator saw it, in milliseconds on the
/// benchmark's steady clock. `due` is when the request was scheduled (open
/// loop) or submitted (closed loop); `call` and `ret` bracket the submit
/// call; `done` is when the completion was observed.
struct RequestTimes {
  double due = 0.0;
  double call = 0.0;
  double ret = 0.0;
  double done = 0.0;
};

/// End-to-end latency of a request: from when it was due, not from when
/// the generator got round to sending it, so a stalled generator shows up
/// in every request it delayed.
inline double DueLatencyMs(const RequestTimes& t) { return t.done - t.due; }

/// Completion time of an open-loop request whose future is collected after
/// the fact. The server stamps completion just before it fires the
/// callback and reports it as `server_latency_ms` after its admission
/// stamp, which it takes inside the submit call; a request answered inline
/// (a cache hit) completes when the call returns. The later of the two is
/// the completion, measured from the call start.
inline double OpenLoopDoneMs(double call, double ret,
                             double server_latency_ms) {
  return call + std::max(server_latency_ms, ret - call);
}

/// In-memory spans. A span has a name, an interval and the index of the
/// span that caused it (-1 for a root); spans of one request share its id.
/// Nothing is written until the caller asks for it.
struct Span {
  std::int64_t request = 0;
  std::string name;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  int Add(std::int64_t request, std::string name, int parent, double start,
          double end) {
    spans_.push_back({request, std::move(name), parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// that the union of its children's intervals covers (children clipped
  /// to the parent, overlaps between children counted once).
  std::vector<double> SelfTimes() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.start, s.end});
    }
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>>& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      double cur_lo = 0.0;
      double cur_hi = 0.0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
      self[i] = (s.end - s.start) - covered;
    }
    return self;
  }

  /// Mean self time per span name over spans named `name`.
  double MeanSelfTime(const std::string& name,
                      const std::vector<double>& self) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      sum += self[i];
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // NAI_PERFBENCH_STATS_H_
