// Self-test of the benchmark's stats helpers (stats.h): the percentile
// rule, due-time latency under a stalled generator, and span self time.
// perfbench/run.py runs it before every benchmark run; exit code 0 = pass.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "stats self-test FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  // 2000 samples: p99 is rank 1980, 20 samples beyond.
  perfbench::Tail t = perfbench::TailPercentile(Ramp(2000));
  Check(Near(t.quantile, 0.99) && Near(t.value, 1980) && t.beyond == 20 &&
            t.count == 2000,
        "p99 of 2000 samples");
  // Exactly 1000 samples still support p99 with 10 beyond.
  t = perfbench::TailPercentile(Ramp(1000));
  Check(Near(t.value, 990) && t.beyond == 10, "p99 of 1000 samples");
  // 500 samples: p99 would leave 5 beyond, so the rule steps down to the
  // rank with exactly 10 beyond (p98).
  t = perfbench::TailPercentile(Ramp(500));
  Check(Near(t.value, 490) && t.beyond == 10 && Near(t.quantile, 0.98),
        "tail of 500 samples steps down to p98");
  // Too few samples for any tail: the median, with its backing count.
  t = perfbench::TailPercentile(Ramp(15));
  Check(Near(t.value, 8) && t.beyond == 7 && t.count == 15,
        "tail of 15 samples falls back to the median");
  t = perfbench::TailPercentile({});
  Check(t.count == 0 && Near(t.value, 0), "empty sample");
  Check(Near(perfbench::Median(Ramp(9)), 5), "median of 9");
  Check(Near(perfbench::NearestRank({1, 2, 3, 4}, 0.5), 2),
        "nearest-rank p50 of 4");
}

void TestDueTimeUnderStall() {
  // An open loop due every 1 ms, each request served in 0.5 ms. The
  // generator stalls for 20 ms before request 5, then catches up by
  // sending the overdue requests back to back.
  std::vector<perfbench::RequestTimes> reqs;
  double clock = 0.0;
  for (int i = 0; i < 10; ++i) {
    perfbench::RequestTimes r;
    r.due = i;
    if (i == 5) clock += 20.0;
    clock = std::max(clock, r.due);
    r.call = clock;
    r.ret = clock + 0.01;
    r.done = perfbench::OpenLoopDoneMs(r.call, r.ret, 0.5);
    clock = r.ret;
    reqs.push_back(r);
  }
  Check(Near(perfbench::DueLatencyMs(reqs[0]), 0.5), "on-time request");
  // Request 5 was due at 5 ms and sent at 24.01 ms.
  Check(Near(perfbench::DueLatencyMs(reqs[5]), 24.01 - 5 + 0.5),
        "stalled request counts the stall");
  // Request 9, due at 9 ms, still pays most of the stall; a clock started
  // at the call would have reported 0.5 ms.
  Check(perfbench::DueLatencyMs(reqs[9]) > 15.0 &&
            Near(reqs[9].done - reqs[9].call, 0.5),
        "later requests inherit the stall");
  // A hit answered inline completes when the call returns.
  Check(Near(perfbench::OpenLoopDoneMs(10.0, 10.2, 0.05), 10.2),
        "inline hit completes at return");
}

void TestSelfTime() {
  perfbench::Tracer tracer;
  const int root = tracer.Add(7, "request", -1, 0.0, 10.0);
  tracer.Add(7, "serve.admit", root, 1.0, 2.0);
  tracer.Add(7, "serve.queue", root, 1.5, 4.0);  // overlaps admit
  tracer.Add(7, "serve.exec", root, 4.0, 9.0);
  tracer.Add(7, "late", root, 9.5, 12.0);         // clipped to the parent
  const int lone = tracer.Add(8, "request", -1, 0.0, 3.0);
  const std::vector<double> self = tracer.SelfTimes();
  // Children cover [1, 9] and [9.5, 10]: 8.5 ms of the 10 ms root.
  Check(Near(self[static_cast<std::size_t>(root)], 1.5), "root self time");
  Check(Near(self[static_cast<std::size_t>(lone)], 3.0), "childless span");
  Check(Near(self[1], 1.0) && Near(self[3], 5.0), "leaf self time");
  Check(Near(tracer.MeanSelfTime("request", self), 2.25),
        "mean self time by name");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestDueTimeUnderStall();
  TestSelfTime();
  if (failures == 0) std::printf("stats self-test passed\n");
  return failures == 0 ? 0 : 1;
}
