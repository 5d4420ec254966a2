// `wire`: live serving over a Unix socket, with a net::Listener inside
// this process. Set-up ingests both shards with io::LoadRealDataset
// from edge-list fixtures that the benchmark writes from the analogs
// first. Two tenants share the listener:
//
//   interactive  weight 4, open-loop BFS at a fixed rate to a small shard
//                (SK at scale 8192, its edge array fits in L2); each
//                request is timed from when it was due to be sent.
//   analytics    weight 1, closed-loop windows of 6 SSSP and 2 CC
//                requests to a larger shard (GU at scale 4096).
//
// The queue bound is far above the in-flight count, so a healthy
// server refuses nothing; a kOverloaded answer counts as a failure.
// Every answer is compared with a dedicated QueryService::Submit.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "graph/datasets.h"
#include "io/ingest.h"
#include "net/client.h"
#include "net/listener.h"
#include "net/protocol.h"
#include "runtime/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using emogi::graph::Csr;
using emogi::graph::VertexId;
using emogi::net::ResponseMsg;
using emogi::runtime::QueryKind;
using emogi::runtime::Request;
using emogi::runtime::Response;
using emogi::runtime::Status;

struct ShardSpec {
  const char* name;    // Fixture and shard name.
  const char* symbol;  // Analog it is written from.
  std::uint64_t scale;
  bool directed;
};
constexpr ShardSpec kInteractive = {"interactive", "SK", 8192, true};
constexpr ShardSpec kAnalytics = {"analytics", "GU", 4096, false};

constexpr double kInteractiveRateHz = 100;
constexpr std::uint32_t kInteractiveWeight = 4;
constexpr std::uint32_t kAnalyticsWeight = 1;
constexpr int kAnalyticsWindow = 8;
// CC requests per window, sent last. A fixed count rather than a
// seeded share keeps the kind mix of every window, and so its work, the
// same for every seed.
constexpr int kAnalyticsCcPerWindow = 2;
constexpr int kInteractivePool = 64;
// SSSP sources; a larger pool makes its mean cost depend less on the seed.
constexpr int kAnalyticsPool = 32;
// Responses kept per tenant for the codec probe.
constexpr std::size_t kRecordedInteractive = 64;
constexpr std::size_t kRecordedAnalytics = 16;

std::string DataDir(const Args& args) { return args.work_dir + "/wire-data"; }

// Writes `csr` as a "u v" edge list (each undirected edge once).
bool WriteEdgeList(const Csr& csr, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    for (auto e = csr.NeighborBegin(v); e < csr.NeighborEnd(v); ++e) {
      const VertexId u = csr.Neighbor(e);
      if (!csr.directed() && u < v) continue;
      std::fprintf(file, "%u %u\n", v, u);
    }
  }
  return std::fclose(file) == 0;
}

// Generates both analogs and writes them as fixtures. Returns the
// generation time (graph.generate_s), or a negative value on failure.
double WriteFixtures(const Args& args) {
  if (!MakeDirs(DataDir(args))) return -1;
  double generate_s = 0;
  for (const ShardSpec& spec : {kInteractive, kAnalytics}) {
    const std::uint64_t t0 = NowNs();
    const Csr* csr = nullptr;
    {
      ScopedSpan span("graph.LoadOrGenerateDataset");
      csr = &emogi::graph::LoadOrGenerateDataset(spec.symbol, spec.scale,
                                                 emogi::graph::DataSource{});
    }
    generate_s += NsToS(static_cast<double>(NowNs() - t0));
    if (!WriteEdgeList(*csr, DataDir(args) + "/" + spec.name + ".el")) return -1;
  }
  return generate_s;
}

emogi::core::EmogiConfig ConfigFor(const ShardSpec& spec) {
  emogi::core::EmogiConfig config = emogi::core::EmogiConfig::MergedAligned();
  config.device.scale_factor = spec.scale;
  return config;
}

// What set-up builds: both shards ingested, the service, the listener.
struct Server {
  Csr interactive;
  Csr analytics;
  emogi::runtime::QueryService service;
  std::unique_ptr<emogi::net::Listener> listener;
};

// One set-up: cold ingest (cache removed first) of both fixtures,
// service, listener bound. Returns {setup_s, ingest_cold_s}, or {} on
// failure with *error set.
std::vector<double> Setup(const Args& args, const std::string& tag, Server* srv,
                          std::string* error) {
  const std::string cache_dir = args.work_dir + "/wire-cache-" + tag;
  for (const ShardSpec& spec : {kInteractive, kAnalytics}) {
    unlink((cache_dir + "/" + spec.name + ".csr").c_str());
  }
  const std::uint64_t t0 = NowNs();
  double ingest_s = 0;
  emogi::io::IngestOptions options;
  options.cache_dir = cache_dir;
  const std::pair<ShardSpec, Csr*> shards[] = {{kInteractive, &srv->interactive},
                                               {kAnalytics, &srv->analytics}};
  for (const auto& [spec, out] : shards) {
    emogi::io::IngestReport report;
    const std::uint64_t i0 = NowNs();
    ScopedSpan span("io.LoadRealDataset");
    if (emogi::io::LoadRealDataset(spec.name, spec.directed, DataDir(args), options,
                                   out, &report,
                                   error) != emogi::io::IngestStatus::kLoaded) {
      return {};
    }
    ingest_s += NsToS(static_cast<double>(NowNs() - i0));
  }
  srv->service.AddGraph(srv->interactive, ConfigFor(kInteractive), kInteractive.name);
  srv->service.AddGraph(srv->analytics, ConfigFor(kAnalytics), kAnalytics.name);
  emogi::net::ListenerOptions options_net;
  options_net.address = args.work_dir + "/wire-" + tag + ".sock";
  options_net.tenant_queue_bound = 4096;
  srv->listener = std::make_unique<emogi::net::Listener>(&srv->service, options_net);
  {
    ScopedSpan span("net.Listener.Open");
    if (!srv->listener->Open(error)) return {};
  }
  return {NsToS(static_cast<double>(NowNs() - t0)), ingest_s};
}

// The seeded request pools of both tenants and their reference answers.
struct Inputs {
  std::vector<Request> interactive;  // Pool, drawn from per send.
  std::vector<Request> analytics;
  std::vector<Response> interactive_ref;
  std::vector<Response> analytics_ref;
};

Inputs MakeInputs(const Args& args, const Server& srv, Result* result) {
  Inputs in;
  Rng rng = SubRng(args.seed, "wire.sources");
  for (const VertexId s : DrawSources(srv.interactive, kInteractivePool, &rng)) {
    Request r;
    r.kind = QueryKind::kBfs;
    r.graph = 0;
    r.source = s;
    in.interactive.push_back(r);
  }
  for (const VertexId s : DrawSources(srv.analytics, kAnalyticsPool, &rng)) {
    Request r;
    r.kind = QueryKind::kSssp;
    r.graph = 1;
    r.source = s;
    in.analytics.push_back(r);
  }
  Request cc;
  cc.kind = QueryKind::kCc;
  cc.graph = 1;
  in.analytics.push_back(cc);  // Last pool entry.

  // One at a time: run side by side, these set the process's peak RSS,
  // and it then varied with how the threads overlapped.
  auto reference = [&](const Request& request) {
    Response ref = srv.service.Submit(request);
    result->Attempt();
    if (!MatchesOracle(srv.service.graph(request.graph), ref)) {
      result->Fail("wire: a dedicated Submit differs from the ref/ oracle");
    }
    return ref;
  };
  for (const Request& r : in.interactive) in.interactive_ref.push_back(reference(r));
  for (const Request& r : in.analytics) in.analytics_ref.push_back(reference(r));
  return in;
}

struct Session {
  Rounds windows;  // One round per analytics window; latency_ms unused.
  std::vector<double> latency_ms;  // Interactive, from the due time.
  std::vector<double> server_ms;
  std::vector<double> transport_ms;
  std::vector<double> late_ms;
  std::vector<std::uint64_t> interactive_seq, analytics_seq;
  std::vector<ResponseMsg> recorded;

  // Rates are totals over the analytics windows, so the analytics
  // tenant sets queries_per_s and edges_per_s; latencies are interactive.
  EndToEnd Metrics() const {
    Rounds r = windows;
    r.latency_ms = latency_ms;
    return r.Metrics();
  }
};

// Runs both tenants against the started listener for `seconds`.
// Uses three threads: the interactive sender and receiver, and the
// caller as the analytics client.
Session RunSession(const Args& args, const Server& srv, const Inputs& in,
                   double seconds, const std::string& stream, Result* result) {
  Session out;
  const std::string address = srv.listener->bound_address().path;
  const auto n = static_cast<std::size_t>(kInteractiveRateHz * seconds);
  const double period_ns = 1e9 / kInteractiveRateHz;
  Rng rng = SubRng(args.seed, "wire.session." + stream);
  std::vector<std::size_t> picks(n);
  for (std::size_t& p : picks) p = rng.Below(in.interactive.size());

  std::string error;
  emogi::net::Client interactive, analytics;
  if (!interactive.Connect(address, "interactive", kInteractiveWeight, &error) ||
      !analytics.Connect(address, "analytics", kAnalyticsWeight, &error)) {
    result->Fail("wire: connect failed: " + error);
    return out;
  }

  const std::uint64_t start = NowNs() + 20000000;  // 20 ms lead.
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::atomic<std::uint64_t>> sent_ns(n);
  // A sample of responses for the codec probe, kept only when tracing;
  // each list is touched by one thread.
  const bool record = Tracer::Get().enabled();
  std::vector<ResponseMsg> interactive_recorded;

  // The interactive Client is shared by the sender (Send) and the
  // receiver (ReadResponse), which touch disjoint state; only a failed
  // read closes the socket under the sender, and the session has
  // already failed then.
  std::thread sender([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const auto due = start + static_cast<std::uint64_t>(period_ns * static_cast<double>(i));
      for (std::uint64_t now = NowNs(); now < due; now = NowNs()) {
        if (due - now > 200000) {
          usleep(static_cast<useconds_t>((due - now - 100000) / 1000));
        }
      }
      sent_ns[i].store(NowNs(), std::memory_order_release);
      std::string send_error;
      ScopedSpan span("net.Client.Send", i);
      if (!interactive.Send(i, in.interactive[picks[i]], &send_error)) {
        result->Fail("wire: interactive send failed: " + send_error);
        return;
      }
    }
  });
  std::thread receiver([&] {
    for (std::size_t k = 0; k < n; ++k) {
      ResponseMsg msg;
      std::string read_error;
      {
        ScopedSpan span("net.Client.ReadResponse", k);
        if (!interactive.ReadResponse(&msg, &read_error)) {
          result->Fail("wire: interactive read failed: " + read_error);
          return;
        }
      }
      const std::uint64_t now = NowNs();
      result->Attempt();
      if (msg.id >= n) {
        result->Fail("wire: response for an unknown id");
        continue;
      }
      const auto i = static_cast<std::size_t>(msg.id);
      const auto due = start + static_cast<std::uint64_t>(period_ns * static_cast<double>(i));
      const std::uint64_t sent = sent_ns[i].load(std::memory_order_acquire);
      if (msg.response.status != Status::kOk ||
          !SameAnswer(msg.response, in.interactive_ref[picks[i]])) {
        result->Fail("wire: interactive answer " + std::to_string(i) +
                     " differs from a dedicated Submit (status " +
                     emogi::runtime::ToString(msg.response.status) + ")");
        continue;
      }
      out.latency_ms.push_back(NsToMs(static_cast<double>(now - due)));
      out.late_ms.push_back(NsToMs(static_cast<double>(sent - due)));
      const double server = static_cast<double>(msg.latency_ns);
      out.server_ms.push_back(NsToMs(server));
      out.transport_ms.push_back(NsToMs(static_cast<double>(now - sent) - server));
      out.interactive_seq.push_back(msg.serve_seq);
      if (record && interactive_recorded.size() < kRecordedInteractive) {
        interactive_recorded.push_back(std::move(msg));
      }
    }
  });

  // Analytics: closed loop, pipelined in windows of kAnalyticsWindow
  // requests. A window is refilled only once all of it has come back,
  // so its requests reach the server together and share a dispatch;
  // refilling one at a time split them across dispatches in ways that
  // changed from run to run. Each window is one round, from its first
  // send to its last answer.
  std::vector<std::size_t> analytics_pick;
  std::uint64_t window_start = 0, window_edges = 0;
  int in_flight = 0;
  while (NowNs() < start) {
  }
  bool sending = true;
  for (;;) {
    if (in_flight == 0) {
      if (!sending || NowNs() >= deadline) break;
      window_start = NowNs();
      window_edges = 0;
      for (int w = 0; w < kAnalyticsWindow && sending; ++w) {
        const std::size_t pick = w >= kAnalyticsWindow - kAnalyticsCcPerWindow
                                     ? in.analytics.size() - 1
                                     : rng.Below(in.analytics.size() - 1);
        std::string send_error;
        ScopedSpan span("net.Client.Send", analytics_pick.size());
        sending = analytics.Send(analytics_pick.size(), in.analytics[pick], &send_error);
        if (!sending) {
          result->Fail("wire: analytics send failed: " + send_error);
          break;
        }
        analytics_pick.push_back(pick);
        ++in_flight;
      }
      if (in_flight == 0) break;
    }
    ResponseMsg msg;
    std::string read_error;
    {
      ScopedSpan span("net.Client.ReadResponse");
      if (!analytics.ReadResponse(&msg, &read_error)) {
        result->Fail("wire: analytics read failed: " + read_error);
        break;
      }
    }
    --in_flight;
    const std::uint64_t answered_ns = NowNs();
    result->Attempt();
    if (msg.id >= analytics_pick.size() || msg.response.status != Status::kOk ||
        !SameAnswer(msg.response, in.analytics_ref[analytics_pick[msg.id]])) {
      result->Fail("wire: analytics answer differs from a dedicated Submit (status " +
                   std::string(emogi::runtime::ToString(msg.response.status)) + ")");
      continue;
    }
    window_edges += msg.response.edges_scanned;
    if (in_flight == 0) {
      out.windows.rounds.push_back(
          {NsToS(static_cast<double>(answered_ns - window_start)),
           static_cast<std::uint64_t>(kAnalyticsWindow), window_edges});
    }
    out.analytics_seq.push_back(msg.serve_seq);
    if (record && out.recorded.size() < kRecordedAnalytics) {
      out.recorded.push_back(std::move(msg));
    }
  }
  sender.join();
  receiver.join();
  for (ResponseMsg& msg : interactive_recorded) out.recorded.push_back(std::move(msg));
  interactive.Close(true);
  analytics.Close(true);
  return out;
}

// net.* from a session and the listener's counters.
void NetLayerMetrics(const Session& s, Result* result) {
  result->Layer("net.server_ms.p50", Percentile(s.server_ms, 50), "ms");
  result->Layer("net.server_ms.p99", Percentile(s.server_ms, 99), "ms");
  result->Layer("net.transport_ms.p50", Percentile(s.transport_ms, 50), "ms");
  result->Layer("net.transport_ms.p99", Percentile(s.transport_ms, 99), "ms");
  result->Layer("net.generator_late_ms.p99", Percentile(s.late_ms, 99), "ms");
  result->Samples("net.server_ms", s.server_ms.size());

  // The interactive share of dispatches while the analytics tenant had
  // work queued: between its first and last dispatch.
  std::uint64_t lo = ~0ull, hi = 0;
  for (const std::uint64_t q : s.analytics_seq) {
    lo = std::min(lo, q);
    hi = std::max(hi, q);
  }
  std::uint64_t inter = 0, total = 0;
  for (const std::uint64_t q : s.interactive_seq) inter += q >= lo && q <= hi;
  for (const std::uint64_t q : s.analytics_seq) total += q >= lo && q <= hi;
  total += inter;
  result->Layer("net.interactive_share",
                total ? static_cast<double>(inter) / static_cast<double>(total) : 0,
                "ratio");

  // Codec: encode, frame-decode and payload-decode the recorded responses.
  std::uint64_t bytes = 0, codec_ns = 0, codec_count = 0;
  for (int round = 0; round < 20; ++round) {
    for (const ResponseMsg& msg : s.recorded) {
      ScopedSpan span("net.codec");
      const std::uint64_t t0 = NowNs();
      const std::vector<std::uint8_t> frame = emogi::net::EncodeResponse(msg);
      emogi::net::Frame decoded;
      std::size_t consumed = 0;
      ResponseMsg back;
      const bool ok =
          emogi::net::DecodeFrame(frame.data(), frame.size(), &decoded, &consumed) ==
              emogi::net::DecodeStatus::kOk &&
          emogi::net::DecodeResponse(decoded.payload, &back);
      codec_ns += NowNs() - t0;
      ++codec_count;
      if (round == 0) {
        bytes += frame.size();
        if (!ok || back.id != msg.id || back.response.levels != msg.response.levels ||
            back.response.distances != msg.response.distances ||
            back.response.labels != msg.response.labels) {
          result->Fail("wire: a recorded response does not round-trip the codec");
        }
      }
    }
  }
  const double recorded = static_cast<double>(s.recorded.size());
  result->Layer("net.codec_us_per_response",
                codec_count ? static_cast<double>(codec_ns) * 1e-3 /
                                  static_cast<double>(codec_count)
                            : 0,
                "us");
  result->Layer("net.response_bytes_mean",
                recorded > 0 ? static_cast<double>(bytes) / recorded : 0, "bytes");
}

// Shuts the listener down and checks its counters: nothing refused, no
// protocol error, a clean drain.
void StopListener(Server* srv, Result* result) {
  srv->listener->Shutdown();
  const int rc = srv->listener->Join();
  const emogi::net::ListenerStats stats = srv->listener->Stats();
  if (rc != 0) result->Fail("wire: listener drain was forced");
  if (stats.protocol_errors != 0) result->Fail("wire: listener sent protocol errors");
  for (const auto& tenant : stats.tenants) {
    if (tenant.rejected_overload != 0 || tenant.rejected_invalid != 0) {
      result->Fail("wire: tenant " + tenant.name + " had refused requests");
    }
  }
}

// Cache-warm ingest of both fixtures (the cache written by set-up).
double WarmIngest(const Args& args, const std::string& tag, Result* result) {
  emogi::io::IngestOptions options;
  options.cache_dir = args.work_dir + "/wire-cache-" + tag;
  double total = 0;
  for (const ShardSpec& spec : {kInteractive, kAnalytics}) {
    Csr csr;
    emogi::io::IngestReport report;
    std::string error;
    const std::uint64_t t0 = NowNs();
    emogi::io::IngestStatus status;
    {
      ScopedSpan span("io.LoadRealDataset");
      status = emogi::io::LoadRealDataset(spec.name, spec.directed, DataDir(args),
                                          options, &csr, &report, &error);
    }
    total += NsToS(static_cast<double>(NowNs() - t0));
    result->Attempt();
    if (status != emogi::io::IngestStatus::kLoaded || !report.from_cache) {
      result->Fail(std::string("wire: warm ingest of ") + spec.name +
                   " missed the CSR cache " + error);
    }
  }
  return total;
}

void RemoveCache(const Args& args, const std::string& tag) {
  const std::string dir = args.work_dir + "/wire-cache-" + tag;
  for (const ShardSpec& spec : {kInteractive, kAnalytics}) {
    unlink((dir + "/" + spec.name + ".csr").c_str());
  }
  rmdir(dir.c_str());
}

}  // namespace

int RunWire(const Args& args, Result* result) {
  const double generate_s = WriteFixtures(args);
  if (generate_s < 0) {
    std::fprintf(stderr, "wire: cannot write fixtures under %s\n", DataDir(args).c_str());
    return 1;
  }
  std::vector<double> setup_s, ingest_s;
  for (const auto& t : ForkedSamples(kServingSetupReps - 1, [&args] {
         Server scratch;
         std::string error;
         const std::string tag = std::to_string(getpid());
         std::vector<double> timings = Setup(args, tag, &scratch, &error);
         if (timings.empty()) std::fprintf(stderr, "wire: set-up failed: %s\n", error.c_str());
         scratch.listener.reset();
         RemoveCache(args, tag);
         return timings;
       })) {
    if (t.size() != 2) {
      result->Fail("wire: forked set-up failed");
      continue;
    }
    setup_s.push_back(t[0]);
    ingest_s.push_back(t[1]);
  }
  const std::string tag = std::to_string(getpid());
  Server srv;
  std::string error;
  const std::vector<double> own = Setup(args, tag, &srv, &error);
  if (own.empty()) {
    std::fprintf(stderr, "wire: set-up failed: %s\n", error.c_str());
    return 1;
  }
  setup_s.push_back(own[0]);
  ingest_s.push_back(own[1]);

  const Inputs in = MakeInputs(args, srv, result);
  srv.listener->Start();
  RunSession(args, srv, in, 1.0, "warmup", result);
  const Session untraced =
      RunSession(args, srv, in, WindowSeconds(args), "measure", result);
  const EndToEnd m = untraced.Metrics();
  Session traced;
  if (args.trace) {
    Tracer::Get().Enable(true);
    traced = RunSession(args, srv, in, WindowSeconds(args), "measure", result);
  }
  StopListener(&srv, result);

  ReportEndToEnd(*result, m, Median(setup_s), PeakRssMb());
  result->Samples("setup_s", setup_s.size());
  result->Samples("latency_ms", untraced.latency_ms.size());
  result->Note("graph_scales", std::string(kInteractive.symbol) + "@" +
                                   std::to_string(kInteractive.scale) + "," +
                                   kAnalytics.symbol + "@" +
                                   std::to_string(kAnalytics.scale));
  result->Note("interactive_rate_hz",
               std::to_string(static_cast<int>(kInteractiveRateHz)));
  if (args.trace) {
    ReportOverhead(*result, m, traced.Metrics());
    NetLayerMetrics(traced, result);
    result->Layer("graph.generate_s", generate_s, "s");
    result->Layer("io.ingest_cold_s", Median(ingest_s), "s");
    result->Layer("io.ingest_warm_s", WarmIngest(args, tag, result), "s");
  }
  srv.listener.reset();
  RemoveCache(args, tag);
  return 0;
}

void ProbeWire(const Args& args, Result* result) {
  constexpr double kProbeSeconds = 2.0;
  if (WriteFixtures(args) < 0) {
    result->Fail("wire probe: cannot write fixtures");
    return;
  }
  const std::string tag = "probe" + std::to_string(getpid());
  Server srv;
  std::string error;
  const std::vector<double> own = Setup(args, tag, &srv, &error);
  if (own.empty()) {
    result->Fail("wire probe: set-up failed: " + error);
    return;
  }
  const Inputs in = MakeInputs(args, srv, result);
  srv.listener->Start();
  const Session s = RunSession(args, srv, in, kProbeSeconds, "probe", result);
  StopListener(&srv, result);
  NetLayerMetrics(s, result);
  result->Layer("io.ingest_cold_s", own[1], "s");
  result->Layer("io.ingest_warm_s", WarmIngest(args, tag, result), "s");
  srv.listener.reset();
  RemoveCache(args, tag);
}

}  // namespace perfbench
