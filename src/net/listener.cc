#include "net/listener.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace emogi::net {
namespace {

constexpr std::size_t kReadChunk = 4096;

// The answer to a request that never reaches a wave: a typed status,
// no payload, serve_seq 0.
ResponseMsg Unserved(std::uint64_t id, const runtime::Request& request,
                     runtime::Status status) {
  ResponseMsg out;
  out.id = id;
  out.response.status = status;
  out.response.kind = request.kind;
  out.response.source = request.source;
  out.response.graph = request.graph;
  return out;
}

}  // namespace

Listener::Listener(const runtime::QueryService* service,
                   ListenerOptions options)
    : service_(service),
      options_(std::move(options)),
      wfq_(options_.tenant_queue_bound) {}

Listener::~Listener() {
  Shutdown();
  if (thread_.joinable()) Join();
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
  if (!address_.is_tcp && !address_.path.empty() && bound_) {
    unlink(address_.path.c_str());  // Remove the socket file we created.
  }
}

std::uint64_t Listener::NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool Listener::Open(std::string* error) {
  if (!ParseAddress(options_.address, &address_, error)) return false;
  listen_fd_ = CreateListenFd(&address_, /*backlog=*/128, error);
  if (listen_fd_ < 0) return false;
  bound_ = true;
  if (!SetNonBlocking(listen_fd_)) {
    *error = "fcntl(listen): " + std::string(std::strerror(errno));
    return false;
  }
  if (pipe(wake_fds_) != 0) {
    *error = "pipe: " + std::string(std::strerror(errno));
    return false;
  }
  SetNonBlocking(wake_fds_[0]);
  paused_.store(options_.start_paused);
  return true;
}

void Listener::Wake() {
  if (wake_fds_[1] >= 0) {
    const char byte = 'w';
    [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
  }
}

void Listener::Shutdown() {
  draining_.store(true);
  Wake();
}

void Listener::Pause() { paused_.store(true); }

void Listener::Resume() {
  paused_.store(false);
  Wake();
}

void Listener::Start() {
  thread_ = std::thread([this] { run_result_ = Run(); });
}

int Listener::Join() {
  if (thread_.joinable()) thread_.join();
  return run_result_;
}

ListenerStats Listener::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

int Listener::num_workers() const {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(cores - 1, 3 * service_->num_graphs()));
}

void Listener::AcceptNew() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      return;  // Transient accept errors: try again next poll round.
    }
    if (static_cast<int>(conns_.size()) >= options_.max_conns) {
      // Refuse loudly: one typed error frame, then close. The fd is
      // still blocking here, and the frame is tiny, so a plain write
      // delivers it without joining the event loop.
      ErrorMsg err;
      err.code = ErrorCode::kTooManyConnections;
      err.message = "connection limit " +
                    std::to_string(options_.max_conns) + " reached";
      const std::vector<std::uint8_t> frame = EncodeError(err);
      [[maybe_unused]] ssize_t n = write(fd, frame.data(), frame.size());
      close(fd);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_refused;
      continue;
    }
    SetNonBlocking(fd);
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    const std::uint64_t id = conn.id;
    conns_.emplace(id, std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.connections_accepted;
  }
}

void Listener::SendError(Connection* conn, ErrorCode code,
                         const std::string& what) {
  ErrorMsg err;
  err.code = code;
  err.message = what;
  const std::vector<std::uint8_t> frame = EncodeError(err);
  conn->wbuf.insert(conn->wbuf.end(), frame.begin(), frame.end());
  conn->closing = true;
  conn->stop_reading = true;
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.protocol_errors;
}

// Callers count responses_sent, so one stats lock covers a whole batch.
void Listener::AppendResponse(Connection* conn, const ResponseMsg& msg) {
  const std::vector<std::uint8_t> frame = EncodeResponse(msg);
  conn->wbuf.insert(conn->wbuf.end(), frame.begin(), frame.end());
}

bool Listener::HandleFrame(Connection* conn, const Frame& frame) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.frames_received;
  }
  switch (frame.type) {
    case FrameType::kHello: {
      if (conn->saw_hello) {
        SendError(conn, ErrorCode::kDuplicateHello,
                  "handshake already completed");
        return true;
      }
      HelloMsg hello;
      if (!DecodeHello(frame.payload, &hello)) {
        SendError(conn, ErrorCode::kBadMessage, "undecodable HELLO payload");
        return true;
      }
      conn->saw_hello = true;
      conn->tenant = wfq_.AddTenant(
          hello.tenant.empty() ? "default" : hello.tenant, hello.weight);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        while (static_cast<int>(stats_.tenants.size()) < wfq_.num_tenants()) {
          TenantStats t;
          const int idx = static_cast<int>(stats_.tenants.size());
          t.name = wfq_.tenant_name(idx);
          t.weight = wfq_.tenant_weight(idx);
          stats_.tenants.push_back(std::move(t));
        }
      }
      HelloAckMsg ack;
      ack.num_graphs = static_cast<std::uint32_t>(service_->num_graphs());
      ack.max_lanes = static_cast<std::uint32_t>(EffectiveLanes());
      const std::vector<std::uint8_t> out = EncodeHelloAck(ack);
      conn->wbuf.insert(conn->wbuf.end(), out.begin(), out.end());
      return true;
    }
    case FrameType::kRequest: {
      if (!conn->saw_hello) {
        SendError(conn, ErrorCode::kHelloRequired,
                  "first frame must be HELLO");
        return true;
      }
      RequestMsg req;
      if (!DecodeRequest(frame.payload, &req)) {
        SendError(conn, ErrorCode::kBadMessage, "undecodable REQUEST payload");
        return true;
      }
      // Validation rejections and queue-bound rejections answer
      // immediately with serve_seq 0 -- they never reach a wave, so
      // they overtake queued work on the wire (id-matched, not
      // order-matched).
      const runtime::Status valid = service_->Validate(req.request);
      bool admitted = false;
      if (valid == runtime::Status::kOk) {
        PendingRequest pending;
        pending.id = req.id;
        pending.connection = conn->id;
        pending.enqueue_ns = NowNs();
        pending.request = req.request;
        admitted = wfq_.Enqueue(conn->tenant, std::move(pending));
      }
      const bool overloaded = valid == runtime::Status::kOk && !admitted;
      if (!admitted) {
        AppendResponse(conn, Unserved(req.id, req.request,
                                      overloaded ? runtime::Status::kOverloaded
                                                 : valid));
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      TenantStats& t = stats_.tenants[conn->tenant];
      ++t.arrivals;
      if (!admitted) ++stats_.responses_sent;
      if (overloaded) ++t.rejected_overload;
      if (valid != runtime::Status::kOk) ++t.rejected_invalid;
      t.queue_depth = wfq_.tenant_depth(conn->tenant);
      return true;
    }
    case FrameType::kGoodbye:
      conn->stop_reading = true;
      conn->closing = true;
      return true;
    case FrameType::kHelloAck:
    case FrameType::kResponse:
    case FrameType::kError:
      SendError(conn, ErrorCode::kUnexpectedType,
                std::string("server never accepts ") + ToString(frame.type));
      return true;
  }
  SendError(conn, ErrorCode::kUnexpectedType, "unknown frame type");
  return true;
}

bool Listener::ProcessFrames(Connection* conn) {
  std::size_t offset = 0;
  while (offset < conn->rbuf.size() && !conn->stop_reading) {
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus status = DecodeFrame(
        conn->rbuf.data() + offset, conn->rbuf.size() - offset, &frame,
        &consumed);
    if (status == DecodeStatus::kIncomplete) break;
    if (status != DecodeStatus::kOk) {
      // Framing is lost: one typed error, then flush-and-close.
      const ErrorCode code = status == DecodeStatus::kBadVersion
                                 ? ErrorCode::kVersionSkew
                                 : ErrorCode::kMalformedFrame;
      SendError(conn, code, ToString(status));
      break;
    }
    offset += consumed;
    HandleFrame(conn, frame);
  }
  conn->rbuf.erase(conn->rbuf.begin(),
                   conn->rbuf.begin() + static_cast<std::ptrdiff_t>(offset));
  return true;
}

bool Listener::HandleReadable(Connection* conn) {
  for (;;) {
    const std::size_t old_size = conn->rbuf.size();
    conn->rbuf.resize(old_size + kReadChunk);
    const ssize_t n = read(conn->fd, conn->rbuf.data() + old_size, kReadChunk);
    if (n > 0) {
      conn->rbuf.resize(old_size + static_cast<std::size_t>(n));
      continue;
    }
    conn->rbuf.resize(old_size);
    if (n == 0) {
      // Peer closed its write side. Pending responses still flush; the
      // connection closes once the write buffer empties.
      conn->stop_reading = true;
      conn->closing = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // Hard read error: drop the connection.
  }
  return ProcessFrames(conn);
}

bool Listener::HandleWritable(Connection* conn) {
  while (conn->woff < conn->wbuf.size()) {
    const ssize_t n = write(conn->fd, conn->wbuf.data() + conn->woff,
                            conn->wbuf.size() - conn->woff);
    if (n > 0) {
      conn->woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // Hard write error (EPIPE et al): drop.
  }
  conn->wbuf.clear();
  conn->woff = 0;
  return !conn->closing;
}

int Listener::EffectiveLanes() const {
  int lanes = options_.max_lanes > 0 ? options_.max_lanes
                                     : service_->max_lanes();
  return std::max(1, std::min(lanes, service_->max_lanes()));
}

void Listener::DispatchBatches() {
  const int workers = static_cast<int>(workers_.size());
  while (outstanding_jobs_ < workers && wfq_.TotalPending() > 0) {
    std::vector<PendingRequest> batch =
        wfq_.PopBatch(static_cast<std::size_t>(EffectiveLanes()));
    const std::uint64_t now = NowNs();
    std::vector<Job> jobs;
    std::vector<Completion> shed;
    for (PendingRequest& p : batch) {
      const runtime::Request& request = p.request;
      if (request.deadline_ns > 0 && now > p.enqueue_ns + request.deadline_ns) {
        // Cannot start by its deadline: answer without running it.
        Completion c;
        c.connection = p.connection;
        c.tenant = p.tenant;
        c.msg = Unserved(p.id, request, runtime::Status::kDeadlineExceeded);
        c.msg.latency_ns = now - p.enqueue_ns;
        shed.push_back(std::move(c));
        continue;
      }
      auto job = std::find_if(jobs.begin(), jobs.end(), [&](const Job& j) {
        const runtime::Request& first = j.requests.front().request;
        return first.graph == request.graph && first.kind == request.kind;
      });
      if (job == jobs.end()) job = jobs.emplace(jobs.end());
      job->requests.push_back(std::move(p));
      job->serve_seqs.push_back(++serve_seq_);
    }
    Deliver(shed);
    if (jobs.empty()) continue;
    outstanding_jobs_ += static_cast<int>(jobs.size());
    {
      std::lock_guard<std::mutex> lock(work_mu_);
      for (Job& job : jobs) jobs_.push_back(std::move(job));
    }
    work_cv_.notify_all();
  }
}

void Listener::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] { return stop_workers_ || !jobs_.empty(); });
      if (stop_workers_) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    std::vector<runtime::Request> requests;
    requests.reserve(job.requests.size());
    for (const PendingRequest& p : job.requests) requests.push_back(p.request);
    std::vector<runtime::Response> responses = service_->SubmitBatch(requests);
    const std::uint64_t now = NowNs();
    std::vector<Completion> done(job.requests.size());
    for (std::size_t i = 0; i < done.size(); ++i) {
      const PendingRequest& p = job.requests[i];
      done[i].connection = p.connection;
      done[i].tenant = p.tenant;
      done[i].msg.id = p.id;
      done[i].msg.serve_seq = job.serve_seqs[i];
      done[i].msg.latency_ns = now > p.enqueue_ns ? now - p.enqueue_ns : 0;
      done[i].msg.response = std::move(responses[i]);
    }
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(work_mu_);
      was_empty = completions_.empty();
      completions_.push_back(std::move(done));
    }
    // One wake byte per empty -> nonempty transition: the poll thread
    // takes every posted job at once, so the pipe never fills.
    if (was_empty) Wake();
  }
}

void Listener::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    stop_workers_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void Listener::DeliverCompletions() {
  std::vector<std::vector<Completion>> posted;
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    posted.swap(completions_);
  }
  if (posted.empty()) return;
  outstanding_jobs_ -= static_cast<int>(posted.size());
  std::vector<Completion> done;
  for (std::vector<Completion>& job : posted) {
    for (Completion& c : job) done.push_back(std::move(c));
  }
  Deliver(done);
}

void Listener::Deliver(const std::vector<Completion>& done) {
  std::uint64_t sent = 0;
  for (const Completion& c : done) {
    // The origin connection may have gone away while the request was
    // queued or running; monotonic ids make that a clean drop, never a
    // delivery to whoever reused the fd.
    auto it = conns_.find(c.connection);
    if (it == conns_.end()) continue;
    AppendResponse(&it->second, c.msg);
    ++sent;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.responses_sent += sent;
  for (const Completion& c : done) {
    TenantStats& t = stats_.tenants[c.tenant];
    if (c.msg.response.status == runtime::Status::kDeadlineExceeded) {
      ++t.dropped_deadline;
    } else {
      ++t.served;
      t.latencies_ns.push_back(c.msg.latency_ns);
    }
  }
  for (std::size_t t = 0; t < stats_.tenants.size(); ++t) {
    stats_.tenants[t].queue_depth = wfq_.tenant_depth(static_cast<int>(t));
  }
}

void Listener::CloseConnection(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  close(it->second.fd);
  wfq_.DropConnection(id);
  conns_.erase(it);
}

bool Listener::DrainComplete() const {
  return wfq_.TotalPending() == 0 && outstanding_jobs_ == 0 && conns_.empty();
}

int Listener::Run() {
  for (int i = num_workers(); i > 0; --i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn_ids;
  bool drain_marked = false;

  for (;;) {
    DeliverCompletions();
    const bool draining = draining_.load();
    if (draining && !drain_marked) {
      drain_marked = true;
      drain_started_ns_ = NowNs();
      for (auto& [id, conn] : conns_) conn.stop_reading = true;
    }
    if (!paused_.load() || draining) DispatchBatches();
    if (draining && DrainComplete()) break;

    fds.clear();
    fd_conn_ids.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    fd_conn_ids.push_back(0);
    if (!draining) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn_ids.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = 0;
      if (!conn.stop_reading) events |= POLLIN;
      if (conn.woff < conn.wbuf.size()) events |= POLLOUT;
      if (events == 0 && conn.wbuf.empty() && (conn.closing || draining)) {
        // Nothing left to say in either direction.
        continue;
      }
      fds.push_back({conn.fd, events, 0});
      fd_conn_ids.push_back(id);
    }

    // Everything dispatchable was dispatched above, so poll blocks: new
    // bytes, a worker's completion, Resume or Shutdown all wake it.
    const int timeout = draining ? std::min(options_.poll_timeout_ms, 20)
                                 : options_.poll_timeout_ms;
    const int ready = poll(fds.data(), fds.size(), timeout);
    if (ready < 0 && errno != EINTR) break;

    // Wake pipe: drain it; 'q' bytes request shutdown (signal path).
    if (fds[0].revents & POLLIN) {
      char buf[64];
      ssize_t n;
      while ((n = read(wake_fds_[0], buf, sizeof(buf))) > 0) {
        for (ssize_t i = 0; i < n; ++i) {
          if (buf[i] == 'q') draining_.store(true);
        }
      }
    }

    std::size_t idx = 1;
    if (!draining) {
      if (fds[idx].revents & POLLIN) AcceptNew();
      ++idx;
    }
    std::vector<std::uint64_t> to_close;
    for (; idx < fds.size(); ++idx) {
      const std::uint64_t id = fd_conn_ids[idx];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      if (fds[idx].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        if (!(fds[idx].revents & POLLIN) && conn.wbuf.empty()) {
          to_close.push_back(id);
          continue;
        }
      }
      if (fds[idx].revents & POLLIN) {
        if (!HandleReadable(&conn)) {
          to_close.push_back(id);
          continue;
        }
      }
      if ((fds[idx].revents & POLLOUT) && conn.woff < conn.wbuf.size()) {
        if (!HandleWritable(&conn)) {
          to_close.push_back(id);
          continue;
        }
      }
      if (conn.wbuf.empty() && conn.closing) to_close.push_back(id);
    }
    for (std::uint64_t id : to_close) CloseConnection(id);

    if (draining) {
      // Once nothing is queued or on a worker, connections with empty
      // write buffers are done. (Conservative: any pending work anywhere
      // keeps every connection open until it is answered.)
      const bool work_pending =
          wfq_.TotalPending() > 0 || outstanding_jobs_ > 0;
      std::vector<std::uint64_t> done;
      for (auto& [id, conn] : conns_) {
        if (!work_pending && conn.wbuf.empty()) done.push_back(id);
      }
      for (std::uint64_t id : done) CloseConnection(id);
      const std::uint64_t now = NowNs();
      const std::uint64_t budget =
          static_cast<std::uint64_t>(options_.drain_timeout_ms) * 1000000ull;
      if (now - drain_started_ns_ > budget && !DrainComplete()) {
        if (work_pending) force_closed_ = true;  // Answers never sent.
        for (auto& [id, conn] : conns_) {
          if (!conn.wbuf.empty()) force_closed_ = true;
        }
        std::vector<std::uint64_t> all;
        for (auto& [id, conn] : conns_) all.push_back(id);
        for (std::uint64_t id : all) CloseConnection(id);
        break;
      }
    }
  }
  StopWorkers();
  return force_closed_ ? 1 : 0;
}

}  // namespace emogi::net
