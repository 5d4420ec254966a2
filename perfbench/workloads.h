// The three workloads and the per-layer probes that fill in the layers
// a workload itself bypasses.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "graph/csr.h"
#include "runtime/query_service.h"

namespace perfbench {

// Every workload reports the same end-to-end metrics; see
// perfbench/README.md for what a query and a latency sample are in each.
struct EndToEnd {
  double edges_per_s = 0;
  double queries_per_s = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
};

// A measured window cut into rounds of equal work (a sweep round, a
// pass over the batch traces, a wire analytics window). Rates are the
// window's totals over its summed round time, not medians over rounds:
// the shared host runs for tens of seconds at one speed and then at
// another, and a median over rounds jumps between the two where a total
// moves with the share of time spent in each. Latencies are
// percentiles over their own samples.
struct Rounds {
  struct Round {
    double seconds = 0;
    std::uint64_t queries = 0;
    std::uint64_t edges = 0;
  };
  std::vector<Round> rounds;
  std::vector<double> latency_ms;

  EndToEnd Metrics() const;
};

void ReportEndToEnd(Result& result, const EndToEnd& m, double setup_s,
                    double peak_rss_mb);

// True when two answers to the same request agree: status, kind,
// shard, source (CC has none), payload and scanned-edge count.
bool SameAnswer(const emogi::runtime::Response& a,
                const emogi::runtime::Response& b);

// True when a served answer equals the ref/ oracle on `csr`. The
// serving workloads check their dedicated-Submit references with it, so
// a policy bug shared by the batched and the dedicated path still shows.
bool MatchesOracle(const emogi::graph::Csr& csr,
                   const emogi::runtime::Response& response);

// Tracing overhead: traced / untraced - 1 for each measured metric, and
// the span buffer's size for peak_rss_mb (one process cannot measure
// its peak twice).
void ReportOverhead(Result& result, const EndToEnd& untraced,
                    const EndToEnd& traced);

// Length of one measured window. A traced run measures twice (untraced,
// then traced) in the time an untraced run measures once.
inline int WindowSeconds(const Args& args) {
  return args.trace ? std::max(1, args.seconds / 2) : args.seconds;
}

// Set-up repetitions per run; the reported setup_s is their median.
// Sweep set-up takes about a second, the serving set-ups a tenth of
// one, so those repeat more often for the same steadiness.
inline constexpr int kSweepSetupReps = 5;
inline constexpr int kServingSetupReps = 9;

int RunSweep(const Args& args, Result* result);
int RunBatch(const Args& args, Result* result);
int RunWire(const Args& args, Result* result);

// Probes, run in the traced mode after the workload itself. Each one
// reproduces the owning workload's layer on that workload's own inputs
// (drawn from the same seed), shortened:
//   ProbeCore   core.*      on the sweep graphs (and the batch shard
//                           for the K = 64 batched policies);
//   ProbeServe  runtime.*, serve.* with one batch trace;
//   ProbeWire   net.*, io.* with a short wire session.
void ProbeCore(const Args& args, Result* result);
void ProbeServe(const Args& args, Result* result);
void ProbeWire(const Args& args, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
