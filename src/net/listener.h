// net::Listener: the wire-protocol front end over runtime::QueryService.
//
// A poll(2) event loop owns every connection and the
// WeightedFairQueue: accept, nonblocking reads into a per-connection
// buffer, frame decode, a Hello-first handshake establishing the
// connection's tenant identity (name + WFQ weight), admission into the
// deficit-round-robin queue, response encoding, and buffered
// nonblocking writes back to each request's origin connection.
//
// Waves run off the poll thread, on a fixed pool of dispatch workers
// (clamp(hardware_concurrency() - 1, 1, 3 x num_graphs), started by
// Run() and joined before it returns). The poll thread is the only WFQ
// caller: it pops a DRR batch only while a worker is free (fewer
// undelivered jobs than workers), stamps serve_seq in pop order, sheds
// requests whose deadline has passed (kDeadlineExceeded, never run),
// and splits the rest into one job per (shard, kind) group. Each job is
// one QueryService::SubmitBatch on a worker, so a cheap BFS wave never
// waits behind a costly SSSP or CC wave. Workers post finished jobs to
// a mutex-guarded completion queue and wake the poll thread through
// the self-pipe; the poll thread moves them into write buffers.
//
// Protocol violations are connection-fatal and loud: the offender gets
// one typed kError frame (malformed frame, version skew, hello
// required, ...) and is closed; other connections are untouched.
//
// Shutdown is a graceful drain: Shutdown() (or a byte written to
// shutdown_write_fd(), which is async-signal-safe for SIGINT/SIGTERM
// handlers) stops accepting and stops reading, every already-admitted
// request is still served -- including jobs in flight on a worker --
// write buffers are flushed, and connections close once empty.
// Connections that cannot drain within drain_timeout_ms are
// force-closed so a dead peer cannot wedge the server.
//
// Pause()/Resume() gate only the pop step -- admission keeps running
// and jobs already on a worker finish -- which lets tests (and
// operators) build a known multi-tenant backlog and then observe the
// exact DRR service order via the serve_seq stamped on every response.

#ifndef EMOGI_NET_LISTENER_H_
#define EMOGI_NET_LISTENER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "net/wfq.h"
#include "runtime/query_service.h"

namespace emogi::net {

struct ListenerOptions {
  std::string address;            // ParseAddress syntax (path or host:port).
  int max_conns = 64;             // Accepts beyond this get kError + close.
  std::size_t tenant_queue_bound = 64;  // Per-tenant WFQ queue bound.
  // Wave width per dispatch batch; 0 = the service's own max_lanes.
  int max_lanes = 0;
  bool start_paused = false;      // Begin with the WFQ pop gated off.
  int drain_timeout_ms = 5000;    // Force-close undrained peers after this.
  int poll_timeout_ms = 200;      // Idle poll tick.
};

// Per-tenant service counters, snapshotted by Stats().
struct TenantStats {
  std::string name;
  std::uint32_t weight = 1;
  std::uint64_t arrivals = 0;          // Well-formed requests received.
  std::uint64_t served = 0;            // Answered by a finished wave.
  std::uint64_t rejected_overload = 0; // Tenant queue at bound on arrival.
  std::uint64_t rejected_invalid = 0;  // Failed QueryService::Validate.
  std::uint64_t dropped_deadline = 0;  // Deadline passed before the pop.
  std::size_t queue_depth = 0;         // In the WFQ, not yet popped.
  std::vector<std::uint64_t> latencies_ns;  // Admission->served, per query.
};

struct ListenerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;  // Over max_conns.
  std::uint64_t protocol_errors = 0;      // kError frames sent.
  std::uint64_t frames_received = 0;
  std::uint64_t responses_sent = 0;
  std::vector<TenantStats> tenants;
};

class Listener {
 public:
  Listener(const runtime::QueryService* service, ListenerOptions options);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds and listens. False (with *error set) on a bad address or a
  // failed bind; no thread is started yet.
  bool Open(std::string* error);

  // The bound address -- for TCP port 0, the kernel-assigned port.
  const Address& bound_address() const { return address_; }

  // Runs the event loop on the calling thread until drained shutdown,
  // with the dispatch workers on threads of its own. Returns 0 on a
  // clean drain, 1 if the drain timed out with answers undelivered
  // (queued, on a worker, or in a write buffer).
  int Run();

  // Run() on a background thread / join it (for in-process tests).
  void Start();
  int Join();

  // Requests a graceful drain (idempotent, thread-safe).
  void Shutdown();

  // An fd a signal handler may write one byte to ('q') to trigger
  // Shutdown without taking locks. Valid after Open().
  int shutdown_write_fd() const { return wake_fds_[1]; }

  // WFQ pop gate (admission continues while paused).
  void Pause();
  void Resume();

  ListenerStats Stats() const;

  // Dispatch workers Run() starts: the fixed rule in the header comment.
  int num_workers() const;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    int tenant = -1;               // -1 until Hello completes.
    std::vector<std::uint8_t> rbuf;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;          // Bytes of wbuf already written.
    bool saw_hello = false;
    bool closing = false;          // Flush wbuf, then close (error/goodbye).
    bool stop_reading = false;     // No more POLLIN (drain or error).
  };

  // One (shard, kind) group of a popped batch, run by one worker.
  struct Job {
    std::vector<PendingRequest> requests;
    std::vector<std::uint64_t> serve_seqs;  // Parallel to requests.
  };
  // A finished job's answers, ready for the origin connections.
  struct Completion {
    std::uint64_t connection = 0;
    int tenant = 0;
    ResponseMsg msg;
  };

  void WorkerLoop();
  void StopWorkers();
  void Wake();
  void AcceptNew();
  int EffectiveLanes() const;
  // False => connection must be closed now.
  bool HandleReadable(Connection* conn);
  bool HandleWritable(Connection* conn);
  bool ProcessFrames(Connection* conn);
  bool HandleFrame(Connection* conn, const Frame& frame);
  void SendError(Connection* conn, ErrorCode code, const std::string& what);
  void AppendResponse(Connection* conn, const ResponseMsg& msg);
  void DispatchBatches();
  void DeliverCompletions();
  // Writes answers to their origin connections; one stats lock for all.
  void Deliver(const std::vector<Completion>& done);
  void CloseConnection(std::uint64_t id);
  bool DrainComplete() const;
  static std::uint64_t NowNs();

  const runtime::QueryService* service_;
  ListenerOptions options_;
  Address address_;
  bool bound_ = false;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // Self-pipe: [0] polled, [1] written.

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, Connection> conns_;

  WeightedFairQueue wfq_;
  std::uint64_t serve_seq_ = 0;
  // Jobs handed to workers whose completions the poll thread has not
  // delivered yet (queued, running, or posted). Poll thread only.
  int outstanding_jobs_ = 0;

  std::mutex work_mu_;  // Guards jobs_, completions_, stop_workers_.
  std::condition_variable work_cv_;
  std::deque<Job> jobs_;
  std::vector<std::vector<Completion>> completions_;  // One entry per job.
  bool stop_workers_ = false;
  std::vector<std::thread> workers_;  // Started and joined by Run().

  std::atomic<bool> draining_{false};
  std::atomic<bool> paused_{false};
  std::uint64_t drain_started_ns_ = 0;
  bool force_closed_ = false;

  std::thread thread_;
  int run_result_ = 0;
  bool joined_ = false;

  mutable std::mutex stats_mu_;
  ListenerStats stats_;
};

}  // namespace emogi::net

#endif  // EMOGI_NET_LISTENER_H_
