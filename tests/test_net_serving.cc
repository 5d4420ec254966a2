// The wire-serving front end's contracts, against a live in-process
// net::Listener on a Unix-domain socket:
//
//  (a) Multi-connection parity: several concurrent clients (own
//      threads, own tenants) each replay a seeded workload over the
//      wire, and every answer -- status, payload vectors, edge counts,
//      shard routing -- is identical to a dedicated sequential
//      QueryService::Submit of the same request. The TSan CI job runs
//      this file, so the listener's stats/dispatch locking is proven
//      race-free, not assumed.
//  (b) Overload is typed and exact: with dispatch paused and a
//      per-tenant bound of B, a pipelined flood of N > B requests gets
//      exactly N - B immediate kOverloaded responses (serve_seq == 0)
//      and, after Resume, exactly B served answers.
//  (c) Protocol violations are connection-fatal but server-local:
//      garbage bytes, version-skewed frames, requests before Hello, and
//      a duplicate Hello each earn their documented typed kError and a
//      close, while the listener keeps serving fresh connections.
//  (d) max_conns is enforced at accept with a typed
//      kTooManyConnections error frame, not a silent RST.
//  (e) Graceful drain under load: Shutdown() with admitted-but-unserved
//      requests still serves and delivers every one of them, and Run()
//      reports a clean (0) drain.
//  (f) Deadlines are enforced at pop time: a request whose deadline has
//      passed comes back typed kDeadlineExceeded without running, while
//      deadline_ns = 0 opts out.
//  (g) No head-of-line blocking: a BFS on a tiny shard, sent after a CC
//      on a large shard (>= 100x its cost), is answered first because
//      waves run on dispatch workers, one job per (shard, kind).
//  (h) Drain with a wave in flight: Shutdown() while a worker runs a
//      wave still delivers its answer, and Run() returns 0 having joined
//      every worker (TSan flags a leaked thread).

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload.h"
#include "graph/datasets.h"
#include "net/client.h"
#include "net/listener.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "runtime/query_service.h"
#include "test_util.h"

namespace emogi {
namespace {

// A scratch socket path under mkdtemp (sockaddr_un caps paths at ~107
// bytes; build trees can exceed that, /tmp cannot).
struct ScratchSocket {
  std::string dir;
  std::string path;
  ScratchSocket() {
    char tmpl[] = "/tmp/emogi_net_test_XXXXXX";
    CHECK(mkdtemp(tmpl) != nullptr);
    dir = tmpl;
    path = dir + "/serve.sock";
  }
  ~ScratchSocket() {
    unlink(path.c_str());
    rmdir(dir.c_str());
  }
};

const graph::Csr& TestCsr() {
  return graph::LoadOrGenerateDataset("GK", 16384);
}

core::EmogiConfig TestConfig(std::uint64_t scale = 1 << 14) {
  core::EmogiConfig config = core::EmogiConfig::MergedAligned();
  config.device.scale_factor = scale;
  return config;
}

// Two shards far apart in cost: a CC on `large` takes hundreds of times
// longer than a BFS on `tiny` (about 25 ms vs 0.04 ms in Release).
constexpr std::uint64_t kTinyScale = 1 << 18;
constexpr std::uint64_t kLargeScale = 2048;
const graph::Csr& TinyCsr() {
  return graph::LoadOrGenerateDataset("SK", kTinyScale);
}
const graph::Csr& LargeCsr() {
  return graph::LoadOrGenerateDataset("GU", kLargeScale);
}

// Spins until `done(stats)` holds for the listener's stats snapshot.
template <typename Pred>
void WaitForStats(const net::Listener& listener, Pred done) {
  for (int spin = 0; spin < 200000; ++spin) {
    if (done(listener.Stats())) return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  CHECK(false);
}

// Answers must match a dedicated run field-for-field; wave/lane are
// scheduling artifacts (batched vs. dedicated) and deliberately not
// compared.
bool SameAnswer(const runtime::Response& wire,
                const runtime::Response& local) {
  return wire.status == local.status && wire.kind == local.kind &&
         wire.source == local.source && wire.graph == local.graph &&
         wire.levels == local.levels && wire.distances == local.distances &&
         wire.labels == local.labels &&
         wire.edges_scanned == local.edges_scanned;
}

// --- Raw-socket helpers for protocol-violation tests ------------------------

int RawConnect(const std::string& path) {
  net::Address addr;
  std::string error;
  CHECK(net::ParseAddress(path, &addr, &error));
  const int fd = net::ConnectFd(addr, &error);
  CHECK(fd >= 0);
  return fd;
}

void RawWrite(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    CHECK(n > 0);
    off += static_cast<std::size_t>(n);
  }
}

// Reads frames until one decodes (or the peer closes, which fails).
net::Frame RawReadFrame(int fd) {
  std::vector<std::uint8_t> buffer;
  net::Frame frame;
  std::size_t consumed = 0;
  for (;;) {
    const net::DecodeStatus status =
        net::DecodeFrame(buffer.data(), buffer.size(), &frame, &consumed);
    if (status == net::DecodeStatus::kOk) return frame;
    CHECK(status == net::DecodeStatus::kIncomplete);
    std::uint8_t chunk[512];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    CHECK(n > 0);
    buffer.insert(buffer.end(), chunk, chunk + n);
  }
}

// True once the peer has closed the connection (EOF).
bool RawReadEof(int fd) {
  std::uint8_t chunk[64];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) return true;
    if (n < 0) return false;
  }
}

net::ErrorMsg ExpectErrorFrame(int fd, net::ErrorCode code) {
  const net::Frame frame = RawReadFrame(fd);
  CHECK(frame.type == net::FrameType::kError);
  net::ErrorMsg msg;
  CHECK(net::DecodeError(frame.payload, &msg));
  CHECK(msg.code == code);
  return msg;
}

// Completes the Hello handshake on a raw fd.
void RawHello(int fd, const std::string& tenant) {
  net::HelloMsg hello;
  hello.tenant = tenant;
  hello.weight = 1;
  const std::vector<std::uint8_t> bytes = net::EncodeHello(hello);
  RawWrite(fd, bytes.data(), bytes.size());
  const net::Frame ack = RawReadFrame(fd);
  CHECK(ack.type == net::FrameType::kHelloAck);
}

// --- (a) concurrent multi-connection parity ---------------------------------

void TestConcurrentClientsMatchDedicated() {
  const graph::Csr& csr = TestCsr();
  const core::EmogiConfig config = TestConfig();
  runtime::QueryService service;
  service.AddGraph(csr, config, "GK/0");
  service.AddGraph(csr, config, "GK/1");
  runtime::QueryService reference;
  reference.AddGraph(csr, config, "GK/0");
  reference.AddGraph(csr, config, "GK/1");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 8;

  // Per-client request lists (deterministic, distinct seeds) spanning
  // both shards.
  std::vector<std::vector<runtime::Request>> requests(kClients);
  for (int c = 0; c < kClients; ++c) {
    const std::vector<runtime::TraversalQuery> queries =
        bench::GenerateQueryWorkload(csr, kQueriesPerClient, 1000 + c, 0.5);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      runtime::Request request;
      request.kind = queries[q].kind;
      request.source = queries[q].source;
      request.graph = static_cast<int>(q % 2);
      requests[c].push_back(request);
    }
  }

  std::vector<std::vector<net::ResponseMsg>> responses(kClients);
  // Not vector<bool>: adjacent elements must be distinct objects so the
  // client threads' writes don't share a packed word.
  std::vector<char> ok(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      std::string client_error;
      if (!client.Connect(scratch.path, "tenant-" + std::to_string(c), 1,
                          &client_error)) {
        std::fprintf(stderr, "connect: %s\n", client_error.c_str());
        return;
      }
      CHECK(client.server_info().num_graphs == 2);
      std::uint64_t id = 1;
      for (const runtime::Request& request : requests[c]) {
        net::ResponseMsg response;
        if (!client.Submit(id++, request, &response, &client_error)) {
          std::fprintf(stderr, "submit: %s\n", client_error.c_str());
          return;
        }
        responses[c].push_back(std::move(response));
      }
      client.Close(true);
      ok[c] = 1;
    });
  }
  for (std::thread& thread : threads) thread.join();

  listener.Shutdown();
  CHECK(listener.Join() == 0);

  for (int c = 0; c < kClients; ++c) {
    CHECK(ok[c]);
    CHECK(responses[c].size() == requests[c].size());
    for (std::size_t q = 0; q < requests[c].size(); ++q) {
      const runtime::Response local = reference.Submit(requests[c][q]);
      CHECK(SameAnswer(responses[c][q].response, local));
      CHECK(responses[c][q].response.status == runtime::Status::kOk);
      CHECK(responses[c][q].serve_seq > 0);
    }
  }

  // Stats attribute every query to its tenant.
  const net::ListenerStats stats = listener.Stats();
  CHECK(stats.connections_accepted == kClients);
  CHECK(stats.tenants.size() == kClients);
  for (const net::TenantStats& tenant : stats.tenants) {
    CHECK(tenant.arrivals == kQueriesPerClient);
    CHECK(tenant.served == kQueriesPerClient);
    CHECK(tenant.rejected_overload == 0 && tenant.rejected_invalid == 0);
    CHECK(tenant.latencies_ns.size() == kQueriesPerClient);
  }
}

// --- (b) exact typed overload ----------------------------------------------

void TestOverloadIsTypedAndExact() {
  const graph::Csr& csr = TestCsr();
  runtime::QueryService service;
  service.AddGraph(csr, TestConfig(), "GK");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  options.tenant_queue_bound = 4;
  options.start_paused = true;  // Admission runs; dispatch waits.
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  constexpr int kFlood = 10;
  net::Client client;
  CHECK(client.Connect(scratch.path, "flood", 1, &error));
  runtime::Request request;
  request.source = graph::PickSources(csr, 1).front();
  for (std::uint64_t id = 1; id <= kFlood; ++id) {
    CHECK(client.Send(id, request, &error));
  }

  // Wait for all arrivals so the reject count below is exact.
  WaitForStats(listener, [](const net::ListenerStats& stats) {
    return !stats.tenants.empty() && stats.tenants[0].arrivals == kFlood;
  });
  listener.Resume();

  int served = 0, overloaded = 0;
  for (int i = 0; i < kFlood; ++i) {
    net::ResponseMsg response;
    CHECK(client.ReadResponse(&response, &error));
    if (response.response.status == runtime::Status::kOk) {
      CHECK(response.serve_seq > 0);
      ++served;
    } else {
      CHECK(response.response.status == runtime::Status::kOverloaded);
      CHECK(response.serve_seq == 0);
      CHECK(response.id > 4);  // Ids 1..4 fit the bound; 5..10 spill.
      ++overloaded;
    }
  }
  CHECK(served == 4);
  CHECK(overloaded == kFlood - 4);
  client.Close(true);
  listener.Shutdown();
  CHECK(listener.Join() == 0);

  const net::ListenerStats stats = listener.Stats();
  CHECK(stats.tenants.size() == 1);
  CHECK(stats.tenants[0].served == 4);
  CHECK(stats.tenants[0].rejected_overload == kFlood - 4);
}

// --- (c) typed protocol violations, server stays up -------------------------

void TestProtocolViolationsAreTypedAndLocal() {
  const graph::Csr& csr = TestCsr();
  runtime::QueryService service;
  service.AddGraph(csr, TestConfig(), "GK");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  // Garbage bytes: framing is unrecoverable -> kMalformedFrame + close.
  {
    const int fd = RawConnect(scratch.path);
    const char garbage[] = "this is definitely not an EMGI frame";
    RawWrite(fd, reinterpret_cast<const std::uint8_t*>(garbage),
             sizeof(garbage));
    ExpectErrorFrame(fd, net::ErrorCode::kMalformedFrame);
    CHECK(RawReadEof(fd));
    ::close(fd);
  }
  // Version skew: a valid frame from protocol rev 2 -> kVersionSkew.
  {
    const int fd = RawConnect(scratch.path);
    net::HelloMsg hello;
    hello.tenant = "future";
    std::vector<std::uint8_t> bytes = net::EncodeHello(hello);
    bytes[4] = 2;  // Version field (offset 4), little-endian low byte.
    RawWrite(fd, bytes.data(), bytes.size());
    ExpectErrorFrame(fd, net::ErrorCode::kVersionSkew);
    CHECK(RawReadEof(fd));
    ::close(fd);
  }
  // A request before Hello -> kHelloRequired.
  {
    const int fd = RawConnect(scratch.path);
    net::RequestMsg msg;
    msg.id = 1;
    const std::vector<std::uint8_t> bytes = net::EncodeRequest(msg);
    RawWrite(fd, bytes.data(), bytes.size());
    ExpectErrorFrame(fd, net::ErrorCode::kHelloRequired);
    CHECK(RawReadEof(fd));
    ::close(fd);
  }
  // A second Hello after the handshake -> kDuplicateHello.
  {
    const int fd = RawConnect(scratch.path);
    RawHello(fd, "twice");
    net::HelloMsg again;
    again.tenant = "twice";
    const std::vector<std::uint8_t> bytes = net::EncodeHello(again);
    RawWrite(fd, bytes.data(), bytes.size());
    ExpectErrorFrame(fd, net::ErrorCode::kDuplicateHello);
    CHECK(RawReadEof(fd));
    ::close(fd);
  }

  // After all of that abuse the listener still serves a clean client.
  {
    net::Client client;
    CHECK(client.Connect(scratch.path, "survivor", 1, &error));
    runtime::Request request;
    request.source = graph::PickSources(csr, 1).front();
    net::ResponseMsg response;
    CHECK(client.Submit(1, request, &response, &error));
    CHECK(response.response.status == runtime::Status::kOk);
    client.Close(true);
  }

  listener.Shutdown();
  CHECK(listener.Join() == 0);
  const net::ListenerStats stats = listener.Stats();
  CHECK(stats.protocol_errors == 4);
}

// --- (d) max_conns refusal --------------------------------------------------

void TestMaxConnsRefusedTyped() {
  const graph::Csr& csr = TestCsr();
  runtime::QueryService service;
  service.AddGraph(csr, TestConfig(), "GK");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  options.max_conns = 1;
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  net::Client first;
  CHECK(first.Connect(scratch.path, "first", 1, &error));

  const int fd = RawConnect(scratch.path);
  ExpectErrorFrame(fd, net::ErrorCode::kTooManyConnections);
  CHECK(RawReadEof(fd));
  ::close(fd);

  // The admitted connection is unaffected.
  runtime::Request request;
  request.source = graph::PickSources(csr, 1).front();
  net::ResponseMsg response;
  CHECK(first.Submit(1, request, &response, &error));
  CHECK(response.response.status == runtime::Status::kOk);
  first.Close(true);

  listener.Shutdown();
  CHECK(listener.Join() == 0);
  const net::ListenerStats stats = listener.Stats();
  CHECK(stats.connections_accepted == 1);
  CHECK(stats.connections_refused == 1);
}

// --- (e) graceful drain under load ------------------------------------------

void TestDrainServesAdmittedBacklog() {
  const graph::Csr& csr = TestCsr();
  runtime::QueryService service;
  service.AddGraph(csr, TestConfig(), "GK");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  options.start_paused = true;  // Guarantee a backlog exists at Shutdown.
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  constexpr int kBacklog = 8;
  net::Client client;
  CHECK(client.Connect(scratch.path, "drain", 1, &error));
  runtime::Request request;
  request.source = graph::PickSources(csr, 1).front();
  for (std::uint64_t id = 1; id <= kBacklog; ++id) {
    CHECK(client.Send(id, request, &error));
  }
  WaitForStats(listener, [](const net::ListenerStats& stats) {
    return !stats.tenants.empty() && stats.tenants[0].arrivals == kBacklog;
  });

  // Shutdown with every request still queued: the drain must serve and
  // deliver all of them before the loop exits.
  listener.Resume();
  listener.Shutdown();
  for (int i = 0; i < kBacklog; ++i) {
    net::ResponseMsg response;
    CHECK(client.ReadResponse(&response, &error));
    CHECK(response.response.status == runtime::Status::kOk);
  }
  CHECK(listener.Join() == 0);
  client.Close(false);
}

// --- (f) deadline enforcement ---------------------------------------------

void TestExpiredDeadlineIsTyped() {
  const graph::Csr& csr = TestCsr();
  runtime::QueryService service;
  service.AddGraph(csr, TestConfig(), "GK");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  options.start_paused = true;  // The 1 ns deadline passes in the queue.
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  net::Client client;
  CHECK(client.Connect(scratch.path, "deadline", 1, &error));
  runtime::Request expiring;
  expiring.source = graph::PickSources(csr, 1).front();
  expiring.deadline_ns = 1;
  runtime::Request patient = expiring;
  patient.deadline_ns = 0;  // Opts out.
  CHECK(client.Send(1, expiring, &error));
  CHECK(client.Send(2, patient, &error));
  WaitForStats(listener, [](const net::ListenerStats& stats) {
    return !stats.tenants.empty() && stats.tenants[0].arrivals == 2;
  });
  listener.Resume();

  for (int i = 0; i < 2; ++i) {
    net::ResponseMsg response;
    CHECK(client.ReadResponse(&response, &error));
    if (response.id == 1) {
      CHECK(response.response.status == runtime::Status::kDeadlineExceeded);
      CHECK(response.serve_seq == 0);
      CHECK(response.response.levels.empty());
      CHECK(response.response.source == expiring.source);
    } else {
      CHECK(response.id == 2);
      CHECK(response.response.status == runtime::Status::kOk);
      CHECK(response.serve_seq == 1);
    }
  }
  client.Close(true);
  listener.Shutdown();
  CHECK(listener.Join() == 0);
  const net::ListenerStats stats = listener.Stats();
  CHECK(stats.tenants[0].dropped_deadline == 1);
  CHECK(stats.tenants[0].served == 1);
  CHECK(stats.tenants[0].latencies_ns.size() == 1);
}

// --- (g) no head-of-line blocking -------------------------------------------

void TestCheapWaveOvertakesCostlyWave() {
  runtime::QueryService service;
  service.AddGraph(TinyCsr(), TestConfig(kTinyScale), "tiny");
  service.AddGraph(LargeCsr(), TestConfig(kLargeScale), "large");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  net::Client client;
  CHECK(client.Connect(scratch.path, "mixed", 1, &error));
  runtime::Request cc;
  cc.kind = runtime::QueryKind::kCc;
  cc.graph = 1;
  runtime::Request bfs;
  bfs.graph = 0;
  bfs.source = graph::PickSources(TinyCsr(), 1).front();
  CHECK(client.Send(1, cc, &error));
  CHECK(client.Send(2, bfs, &error));

  net::ResponseMsg first, second;
  CHECK(client.ReadResponse(&first, &error));
  CHECK(client.ReadResponse(&second, &error));
  CHECK(first.response.status == runtime::Status::kOk);
  CHECK(second.response.status == runtime::Status::kOk);
  // One worker runs every job in turn; the order holds from two on.
  if (listener.num_workers() >= 2) {
    CHECK(first.id == 2);
    CHECK(second.id == 1);
    CHECK(first.serve_seq > second.serve_seq);  // Popped later, done first.
  } else {
    std::printf("test_net_serving: 1 dispatch worker, order not checked\n");
  }
  client.Close(true);
  listener.Shutdown();
  CHECK(listener.Join() == 0);
}

// --- (h) drain with a wave in flight ----------------------------------------

void TestDrainDeliversInFlightWave() {
  runtime::QueryService service;
  service.AddGraph(LargeCsr(), TestConfig(kLargeScale), "large");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  net::Client client;
  CHECK(client.Connect(scratch.path, "inflight", 1, &error));
  runtime::Request cc;
  cc.kind = runtime::QueryKind::kCc;
  CHECK(client.Send(1, cc, &error));
  // Popped from the WFQ but not yet answered: the wave is on a worker.
  WaitForStats(listener, [](const net::ListenerStats& stats) {
    return !stats.tenants.empty() && stats.tenants[0].arrivals == 1 &&
           stats.tenants[0].queue_depth == 0;
  });
  CHECK(listener.Stats().tenants[0].served == 0);
  listener.Shutdown();

  net::ResponseMsg response;
  CHECK(client.ReadResponse(&response, &error));
  CHECK(response.id == 1);
  CHECK(response.response.status == runtime::Status::kOk);
  CHECK(response.response.labels.size() == LargeCsr().num_vertices());
  CHECK(listener.Join() == 0);
  CHECK(listener.Stats().tenants[0].served == 1);
  client.Close(false);
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestConcurrentClientsMatchDedicated();
  emogi::TestOverloadIsTypedAndExact();
  emogi::TestProtocolViolationsAreTypedAndLocal();
  emogi::TestMaxConnsRefusedTyped();
  emogi::TestDrainServesAdmittedBacklog();
  emogi::TestExpiredDeadlineIsTyped();
  emogi::TestCheapWaveOvertakesCostlyWave();
  emogi::TestDrainDeliversInFlightWave();
  std::printf("test_net_serving: all checks passed\n");
  return 0;
}
