// `batch`: in-process serving through serve::Server::ServeTrace. Two
// shards at scale 2048 -- GU (undirected, CC in the mix) and SK
// (directed). Each seeded trace has an open-loop Poisson part and a
// burst above the queue bound; a share of the queries carries a
// deadline, so admission, shedding and 64-lane waves all run.
//
// Every answered query is compared with a dedicated QueryService::Submit
// of the same request; every simulated count (statuses, waves, lanes,
// rejections, deadline drops, simulated times) must repeat the value the
// warm-up serving of the same trace pinned.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common.h"
#include "graph/datasets.h"
#include "runtime/query_service.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using emogi::graph::Csr;
using emogi::graph::VertexId;
using emogi::runtime::QueryKind;
using emogi::runtime::Request;
using emogi::runtime::Response;
using emogi::runtime::Status;
using emogi::serve::ServeOutcome;
using emogi::serve::TimestampedRequest;

constexpr std::uint64_t kScale = 2048;
const char* const kShards[] = {"GU", "SK"};  // Shard 0 undirected (CC).
constexpr int kPoolSources = 48;  // Seeded sources per shard.
constexpr int kTraces = 8;        // Distinct traces, served once per round.
constexpr double kMeanGapNs = 400e3;  // Simulated inter-arrival mean.
// Every kDeadlineEvery-th burst BFS carries a deadline far shorter than
// the burst's first (SSSP) wave, so each admitted one is shed: a fixed
// count, where a deadline near the typical wait would make the shed
// count, and the trace's cost, swing with every simulated wave time.
constexpr int kDeadlineEvery = 4;
constexpr std::uint64_t kDeadlineNs = 1000;  // 1 us simulated.
// Closed-loop callers serving traces side by side. Two, not nproc: on
// the 4-vCPU host the benchmark was tuned on, four busy threads each
// lost 15-35% of their wall time to gaps of up to 20 ms in which the
// host ran something else, and one or two threads lost under 1%.
constexpr int kCallers = 2;

emogi::serve::ServerOptions Options() {
  emogi::serve::ServerOptions options;
  options.queue_bound = 80;
  options.max_lanes = emogi::core::kMaxBatchLanes;
  // Each ServeTrace runs inline on its caller.
  options.threads = 1;
  return options;
}

struct Shards {
  std::vector<const Csr*> graphs;
  std::unique_ptr<emogi::serve::Server> server;
};

std::vector<double> Setup(Shards* sh) {
  const std::uint64_t t0 = NowNs();
  double generate_s = 0;
  for (const char* symbol : kShards) {
    const std::uint64_t g0 = NowNs();
    ScopedSpan span("graph.LoadOrGenerateDataset");
    sh->graphs.push_back(&emogi::graph::LoadOrGenerateDataset(
        symbol, kScale, emogi::graph::DataSource{}));
    generate_s += NsToS(static_cast<double>(NowNs() - g0));
  }
  emogi::core::EmogiConfig config = emogi::core::EmogiConfig::MergedAligned();
  config.device.scale_factor = kScale;
  sh->server = std::make_unique<emogi::serve::Server>(Options());
  for (std::size_t s = 0; s < sh->graphs.size(); ++s) {
    sh->server->AddShard(*sh->graphs[s], config, kShards[s]);
  }
  return {NsToS(static_cast<double>(NowNs() - t0)), generate_s};
}

// Exact kind counts per trace part, so every trace serves the same
// work and only sources, shards and arrival times vary with the seed.
struct PartMix {
  int bfs, sssp, cc;
};
// Open-loop Poisson part: BFS and SSSP split evenly over both shards.
constexpr PartMix kOpen = {16, 4, 4};
// One instant on shard 0, above the bound.
constexpr PartMix kBurst = {100, 4, 2};

// (kind, shard) slots of one part. The open part comes in seeded order;
// the burst puts SSSP and CC first, so the bound always admits them
// and only BFS overflows.
std::vector<std::pair<QueryKind, int>> Slots(const PartMix& mix, bool burst,
                                             Rng* rng) {
  std::vector<std::pair<QueryKind, int>> slots;
  auto add = [&](QueryKind kind, int count, bool split) {
    for (int i = 0; i < count; ++i) slots.push_back({kind, split ? i % 2 : 0});
  };
  add(QueryKind::kSssp, mix.sssp, !burst);
  add(QueryKind::kCc, mix.cc, false);
  add(QueryKind::kBfs, mix.bfs, !burst);
  for (std::size_t i = slots.size(); !burst && i > 1; --i) {
    std::swap(slots[i - 1], slots[rng->Below(i)]);
  }
  return slots;
}

// One seeded trace: BFS/SSSP over both shards, CC on shard 0 only. The
// burst is mostly BFS on shard 0, so its waves fill all 64 lanes and
// its tail overflows the bound. Deadlines ride on burst BFS queries
// only, so shedding never changes how many of the costly SSSP and CC
// run.
std::vector<TimestampedRequest> MakeTrace(
    const std::vector<std::vector<VertexId>>& pools, Rng* rng) {
  std::vector<TimestampedRequest> trace;
  double t = 0;
  int burst_bfs = 0;
  for (const bool burst : {false, true}) {
    for (const auto& [kind, shard] : Slots(burst ? kBurst : kOpen, burst, rng)) {
      if (!burst) t += -kMeanGapNs * std::log(rng->Uniform());
      TimestampedRequest entry;
      entry.arrival_ns = static_cast<std::uint64_t>(t);
      Request& r = entry.request;
      r.kind = kind;
      r.graph = shard;
      r.source = kind == QueryKind::kCc
                     ? 0
                     : pools[static_cast<std::size_t>(shard)][rng->Below(kPoolSources)];
      if (burst && kind == QueryKind::kBfs && ++burst_bfs % kDeadlineEvery == 0) {
        r.deadline_ns = kDeadlineNs;
      }
      trace.push_back(entry);
    }
  }
  return trace;
}

using AnswerKey = std::tuple<int, int, VertexId>;  // graph, kind, source.

AnswerKey KeyOf(const Request& r) {
  return {r.graph, static_cast<int>(r.kind),
          r.kind == QueryKind::kCc ? VertexId{0} : r.source};
}

// Everything simulated about a serving must repeat exactly.
bool SameOutcome(const ServeOutcome& a, const ServeOutcome& b) {
  if (a.queries.size() != b.queries.size() || a.shards.size() != b.shards.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    const auto& x = a.queries[i];
    const auto& y = b.queries[i];
    if (x.response.status != y.response.status || x.response.wave != y.response.wave ||
        x.response.lane != y.response.lane ||
        x.response.edges_scanned != y.response.edges_scanned ||
        x.start_ns != y.start_ns || x.completion_ns != y.completion_ns ||
        x.latency_ns != y.latency_ns) {
      return false;
    }
  }
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    const auto& x = a.shards[s];
    const auto& y = b.shards[s];
    if (x.arrivals != y.arrivals || x.served != y.served ||
        x.rejected_overload != y.rejected_overload ||
        x.rejected_invalid != y.rejected_invalid ||
        x.dropped_deadline != y.dropped_deadline || x.waves != y.waves ||
        x.wave_lanes != y.wave_lanes || x.busy_ns != y.busy_ns ||
        x.last_completion_ns != y.last_completion_ns) {
      return false;
    }
  }
  return true;
}

// The inputs and the pinned servings of one run.
class BatchRun {
 public:
  BatchRun(const Args& args, Result* result, Shards* shards, int traces)
      : result_(result), sh_(shards) {
    Rng rng = SubRng(args.seed, "batch.sources");
    for (const Csr* csr : sh_->graphs) {
      pools_.push_back(DrawSources(*csr, kPoolSources, &rng));
    }
    Rng trace_rng = SubRng(args.seed, "batch.traces");
    for (int t = 0; t < traces; ++t) traces_.push_back(MakeTrace(pools_, &trace_rng));
  }

  // Dedicated Submit answers for every request the traces carry.
  void ComputeReferences() {
    std::map<AnswerKey, Request> wanted;
    for (const auto& trace : traces_) {
      for (const TimestampedRequest& e : trace) wanted.emplace(KeyOf(e.request), e.request);
    }
    std::vector<Request> jobs;
    for (const auto& [key, request] : wanted) jobs.push_back(request);
    std::vector<Response> answers(jobs.size());
    const emogi::runtime::QueryService& service = sh_->server->service();
    ParallelFor(jobs.size(), [&](std::size_t i) {
      Request dedicated = jobs[i];
      dedicated.deadline_ns = 0;
      answers[i] = service.Submit(dedicated);
      result_->Attempt();
      if (!MatchesOracle(service.graph(dedicated.graph), answers[i])) {
        result_->Fail("batch: a dedicated Submit differs from the ref/ oracle");
      }
    });
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      references_.emplace(KeyOf(jobs[i]), std::move(answers[i]));
    }
  }

  // Serves trace `t` once, timing only the ServeTrace call, and checks
  // the outcome against the references and, once pinned, the pinned
  // serving. Safe to call from several threads.
  ServeOutcome Serve(std::size_t t, double* seconds) {
    const std::uint64_t t0 = NowNs();
    ServeOutcome outcome;
    {
      ScopedSpan span("serve.Server.ServeTrace", t);
      outcome = sh_->server->ServeTrace(traces_[t]);
    }
    *seconds = NsToS(static_cast<double>(NowNs() - t0));
    Check(t, outcome);
    return outcome;
  }

  // The warm-up serving of every trace becomes its pin.
  void Pin() {
    std::vector<ServeOutcome> outcomes(traces_.size());
    ParallelFor(traces_.size(), [&](std::size_t t) {
      double seconds = 0;
      outcomes[t] = Serve(t, &seconds);
    });
    pins_ = std::move(outcomes);
  }

  const std::vector<std::vector<TimestampedRequest>>& traces() const { return traces_; }
  const std::vector<ServeOutcome>& pins() const { return pins_; }

 private:
  void Check(std::size_t t, const ServeOutcome& outcome) {
    result_->Attempt(outcome.queries.size());
    if (outcome.queries.size() != traces_[t].size()) {
      result_->Fail("batch: ServeTrace returned the wrong number of outcomes");
      return;
    }
    for (std::size_t i = 0; i < outcome.queries.size(); ++i) {
      const Response& r = outcome.queries[i].response;
      if (r.status == Status::kOk &&
          !SameAnswer(r, references_.at(KeyOf(traces_[t][i].request)))) {
        result_->Fail("batch: trace " + std::to_string(t) + " query " +
                      std::to_string(i) + " differs from a dedicated Submit");
      }
      if (r.status == Status::kInvalidSource) {
        result_->Fail("batch: a valid query came back kInvalidSource");
      }
    }
    if (!pins_.empty() && !SameOutcome(outcome, pins_[t])) {
      result_->Fail("batch: trace " + std::to_string(t) +
                    " simulated outcome differs from the pinned serving");
    }
  }

  Result* result_;
  Shards* sh_;
  std::vector<std::vector<VertexId>> pools_;
  std::vector<std::vector<TimestampedRequest>> traces_;
  std::map<AnswerKey, Response> references_;
  std::vector<ServeOutcome> pins_;
};

// Rounds of one serving of every trace, on kCallers closed-loop callers,
// until --seconds passed. Each ServeTrace call's wall time (one trace
// served) is a latency sample; checking outcomes is done inside the
// round, per call, outside each ServeTrace. `trace_s` (optional)
// receives the first round's per-call times.
Rounds Measure(BatchRun* run, int seconds, std::vector<double>* trace_s) {
  Rounds out;
  const std::size_t traces = run->traces().size();
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(seconds) * 1000000000ull;
  do {
    std::vector<double> call_s(traces);
    std::atomic<std::uint64_t> answered{0}, edges{0};
    const std::uint64_t t0 = NowNs();
    ParallelFor(traces, [&](std::size_t t) {
      const ServeOutcome outcome = run->Serve(t, &call_s[t]);
      for (const auto& q : outcome.queries) {
        if (q.response.status != Status::kOk) continue;
        ++answered;
        edges += q.response.edges_scanned;
      }
    }, kCallers);
    const double round_s = NsToS(static_cast<double>(NowNs() - t0));
    out.rounds.push_back({round_s, answered.load(), edges.load()});
    for (const double s : call_s) out.latency_ms.push_back(s * 1e3);
    if (trace_s && trace_s->empty()) *trace_s = call_s;
  } while (NowNs() < deadline);
  return out;
}

}  // namespace

// runtime.* and serve.* from servings of `traces`: every wave of every
// outcome is replayed through QueryService::SubmitBatch and timed.
void ServeLayerMetrics(const emogi::serve::Server& server,
                       const std::vector<std::vector<TimestampedRequest>>& traces,
                       const std::vector<ServeOutcome>& outcomes,
                       const std::vector<double>& trace_s, Result* result) {
  std::vector<double> submit_ms, self_s;
  std::uint64_t lanes = 0, waves = 0, lane_edges = 0, union_edges = 0;
  std::uint64_t rejected = 0, dropped = 0;
  for (std::size_t t = 0; t < outcomes.size(); ++t) {
    // (graph, start_ns) identifies a wave; lanes in lane order.
    std::map<std::pair<int, std::uint64_t>, std::vector<std::pair<int, Request>>> by_wave;
    for (std::size_t i = 0; i < outcomes[t].queries.size(); ++i) {
      const auto& q = outcomes[t].queries[i];
      if (q.response.status != Status::kOk) continue;
      by_wave[{q.response.graph, q.start_ns}].push_back(
          {q.response.lane, traces[t][i].request});
    }
    double replay_s = 0;
    for (auto& [key, members] : by_wave) {
      std::sort(members.begin(), members.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      std::vector<Request> requests;
      for (const auto& m : members) requests.push_back(m.second);
      emogi::runtime::BatchRunStats stats;
      const std::uint64_t t0 = NowNs();
      std::vector<Response> responses;
      {
        ScopedSpan span("runtime.QueryService.SubmitBatch", t);
        responses = server.service().SubmitBatch(requests, &stats);
      }
      const double s = NsToS(static_cast<double>(NowNs() - t0));
      submit_ms.push_back(s * 1e3);
      replay_s += s;
      ++waves;
      lanes += requests.size();
      union_edges += stats.EdgesScanned();
      for (const Response& r : responses) lane_edges += r.edges_scanned;
    }
    self_s.push_back(trace_s[t] - replay_s);
    rejected += outcomes[t].RejectedOverload();
    for (const auto& shard : outcomes[t].shards) dropped += shard.dropped_deadline;
  }
  result->Layer("serve.trace_s", Median(trace_s), "s");
  result->Layer("serve.self_s", Median(self_s), "s");
  result->Layer("serve.rejected_overload", static_cast<double>(rejected), "count");
  result->Layer("serve.dropped_deadline", static_cast<double>(dropped), "count");
  result->Layer("runtime.submit_batch_ms.p50", Percentile(submit_ms, 50), "ms");
  result->Layer("runtime.submit_batch_ms.p99", Percentile(submit_ms, 99), "ms");
  result->Layer("runtime.wave_lanes_mean",
                waves ? static_cast<double>(lanes) / static_cast<double>(waves) : 0,
                "count");
  result->Layer("core.edges_scanned", static_cast<double>(union_edges), "count");
  result->Layer("core.amortization",
                union_edges ? static_cast<double>(lane_edges) /
                                  static_cast<double>(union_edges)
                            : 0,
                "ratio");
  result->Samples("runtime.submit_batch_ms", submit_ms.size());
}

int RunBatch(const Args& args, Result* result) {
  std::vector<double> setup_s, generate_s;
  for (const auto& t : ForkedSamples(kServingSetupReps - 1, [] {
         Shards scratch;
         return Setup(&scratch);
       })) {
    if (t.size() != 2) {
      result->Fail("batch: forked set-up failed");
      continue;
    }
    setup_s.push_back(t[0]);
    generate_s.push_back(t[1]);
  }
  Shards shards;
  const std::vector<double> own = Setup(&shards);
  setup_s.push_back(own[0]);
  generate_s.push_back(own[1]);

  BatchRun run(args, result, &shards, kTraces);
  run.ComputeReferences();
  run.Pin();

  const Rounds untraced = Measure(&run, WindowSeconds(args), nullptr);
  const EndToEnd m = untraced.Metrics();
  ReportEndToEnd(*result, m, Median(setup_s), PeakRssMb());
  result->Samples("setup_s", setup_s.size());
  result->Samples("latency_ms", untraced.latency_ms.size());
  result->Note("graph_scales", "GU,SK@" + std::to_string(kScale));
  result->Note("callers", std::to_string(kCallers));

  std::uint64_t waves = 0, lanes = 0, rejected = 0, dropped = 0;
  for (const ServeOutcome& o : run.pins()) {
    rejected += o.RejectedOverload();
    for (const auto& s : o.shards) {
      waves += s.waves;
      lanes += s.wave_lanes;
      dropped += s.dropped_deadline;
    }
  }
  result->Note("batch_pass", std::to_string(run.traces().size()) + " traces, " +
                                 std::to_string(waves) + " waves, " +
                                 std::to_string(lanes) + " lanes, " +
                                 std::to_string(rejected) + " rejected, " +
                                 std::to_string(dropped) + " dropped");

  if (args.trace) {
    Tracer::Get().Enable(true);
    std::vector<double> trace_s;
    const Rounds traced = Measure(&run, WindowSeconds(args), &trace_s);
    ReportOverhead(*result, m, traced.Metrics());
    result->Layer("graph.generate_s", Median(generate_s), "s");
    ServeLayerMetrics(*shards.server, run.traces(), run.pins(), trace_s, result);
  }
  return 0;
}

void ProbeServe(const Args& args, Result* result) {
  Shards shards;
  Setup(&shards);
  BatchRun run(args, result, &shards, 1);
  run.ComputeReferences();
  run.Pin();
  double s = 0;
  run.Serve(0, &s);
  ServeLayerMetrics(*shards.server, run.traces(), run.pins(), {s}, result);
}

}  // namespace perfbench
