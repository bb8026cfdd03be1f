#include "rpc/server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "api/command.h"
#include "api/service.h"
#include "replication/group.h"
#include "util/codec.h"

namespace fb {
namespace rpc {

namespace {

// epoll user-data ids for the two non-connection fds.
constexpr uint64_t kWakeId = UINT64_MAX;
constexpr uint64_t kListenId = UINT64_MAX - 1;

// iovec fan-in per sendmsg: enough to batch a deep pipeline's replies
// into one syscall without building unbounded iovec arrays.
constexpr int kMaxIov = 64;

}  // namespace

thread_local bool ForkBaseServer::defer_flush_ = false;

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ForkBaseServer>> ForkBaseServer::Start(
    ForkBase* engine, ServerOptions options) {
  if (options.num_workers == 0) options.num_workers = 1;
  if (options.max_queued_requests == 0) options.max_queued_requests = 1;
  if (options.max_protocol_errors == 0) options.max_protocol_errors = 1;
  FB_ASSIGN_OR_RETURN(Endpoint ep, Endpoint::Parse(options.listen));
  std::unique_ptr<ForkBaseServer> server(
      new ForkBaseServer(engine, std::move(options)));
  FB_ASSIGN_OR_RETURN(server->listener_, Listener::Listen(ep));
  server->endpoint_ = server->listener_.bound_endpoint();

  const int lflags = ::fcntl(server->listener_.fd(), F_GETFL, 0);
  if (lflags < 0 ||
      ::fcntl(server->listener_.fd(), F_SETFL, lflags | O_NONBLOCK) != 0) {
    return Status::IOError("fcntl listener O_NONBLOCK: " +
                           std::string(std::strerror(errno)));
  }
  server->epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (server->epfd_ < 0) {
    return Status::IOError("epoll_create1: " +
                           std::string(std::strerror(errno)));
  }
  server->wakefd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (server->wakefd_ < 0) {
    return Status::IOError("eventfd: " + std::string(std::strerror(errno)));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(server->epfd_, EPOLL_CTL_ADD, server->listener_.fd(), &ev) !=
      0) {
    return Status::IOError("epoll_ctl add listener: " +
                           std::string(std::strerror(errno)));
  }
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(server->epfd_, EPOLL_CTL_ADD, server->wakefd_, &ev) != 0) {
    return Status::IOError("epoll_ctl add eventfd: " +
                           std::string(std::strerror(errno)));
  }

  server->loop_thread_ = std::thread([s = server.get()] { s->EventLoop(); });
  server->workers_.reserve(server->options_.num_workers);
  for (size_t i = 0; i < server->options_.num_workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

ForkBaseServer::~ForkBaseServer() { Stop(); }

void ForkBaseServer::Stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true);
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    MutexLock lock(queue_mu_);
  }
  queue_cv_.SignalAll();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  listener_.Close();
  if (epfd_ >= 0) {
    ::close(epfd_);
    epfd_ = -1;
  }
  if (wakefd_ >= 0) {
    ::close(wakefd_);
    wakefd_ = -1;
  }
}

ForkBaseServer::Stats ForkBaseServer::stats() const {
  Stats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return s;
}

void ForkBaseServer::WakeLoop() {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(wakefd_, &one, sizeof(one));
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void ForkBaseServer::EventLoop() {
  epoll_event events[64];
  while (!stopping_.load()) {
    const int n = ::epoll_wait(epfd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(wakefd_, &drained, sizeof(drained));
        continue;
      }
      if (id == kListenId) {
        AcceptReady();
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // reaped earlier in this batch
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        CloseConn(conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        bool alive;
        {
          MutexLock lock(conn->mu);
          alive = conn->closing ? false : FlushLocked(conn.get());
        }
        if (!alive) {
          CloseConn(conn);
          continue;
        }
      }
      if (events[i].events & (EPOLLIN | EPOLLRDHUP)) {
        ReadReady(conn);
      }
    }
    if (abort_count_.exchange(0, std::memory_order_acq_rel) > 0) {
      ReapClosing();
    }
    RetryStalled();
  }
  // Teardown: every connection is shut down and dropped here, on the
  // loop, so no other thread ever touches the registry.
  for (auto& [id, conn] : conns_) {
    MutexLock lock(conn->mu);
    conn->closing = true;
    conn->sock.Shutdown();
  }
  conns_.clear();
}

void ForkBaseServer::AcceptReady() {
  for (;;) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient failure; epoll re-arms
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(Socket(fd));
    if (!conn->sock.SetNonBlocking().ok()) continue;  // drops the socket
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0) {
      continue;  // drops the socket
    }
    conns_.emplace(conn->id, std::move(conn));
    connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ForkBaseServer::ReadReady(const std::shared_ptr<Conn>& conn) {
  if (conn->reaped || conn->stalled) return;
  constexpr size_t kReadChunk = 64u << 10;
  for (;;) {
    if (conn->rbuf.size() < conn->rend + kReadChunk) {
      conn->rbuf.resize(conn->rend + kReadChunk);
    }
    const ssize_t r = ::recv(conn->sock.fd(), conn->rbuf.data() + conn->rend,
                             kReadChunk, 0);
    if (r > 0) {
      conn->rend += static_cast<size_t>(r);
      ParseFrames(conn);
      if (conn->reaped || conn->stalled) return;
      if (static_cast<size_t>(r) < kReadChunk) return;  // likely drained
      continue;
    }
    if (r == 0) {
      CloseConn(conn);  // clean EOF
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(conn);
    return;
  }
}

void ForkBaseServer::ParseFrames(const std::shared_ptr<Conn>& conn) {
  while (!conn->reaped && !conn->stalled) {
    Frame frame;
    size_t consumed = 0;
    const Status s =
        DecodeFrameFromBuffer(conn->rbuf.data() + conn->rpos,
                              conn->rend - conn->rpos, &frame, &consumed);
    conn->rpos += consumed;
    if (s.ok()) {
      if (consumed == 0) break;  // need more bytes
      HandleFrame(conn, std::move(frame));
      continue;
    }
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    ++conn->protocol_errors;
    QueueControl(conn, frame.request_id, s, Slice());
    if (s.IsInvalidArgument() ||
        conn->protocol_errors >= options_.max_protocol_errors) {
      // Oversized length prefix (framing lost) or a client that keeps
      // producing damage: best-effort error reply, then the connection
      // is done.
      CloseConnAfterFlush(conn);
      return;
    }
    // Corruption with a sane length: the boundary held, keep decoding.
  }
  // Compact the consumed prefix so a long-lived connection's buffer
  // does not grow without bound.
  if (conn->rpos == conn->rend) {
    conn->rpos = conn->rend = 0;
  } else if (conn->rpos > (1u << 20)) {
    std::memmove(conn->rbuf.data(), conn->rbuf.data() + conn->rpos,
                 conn->rend - conn->rpos);
    conn->rend -= conn->rpos;
    conn->rpos = 0;
  }
}

void ForkBaseServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                                 Frame frame) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  switch (frame.type) {
    case FrameType::kChunkPeerGet:
    case FrameType::kChunkPeerGetBatch:
      // Served inline (see ServePeerGet): local-store lookups that must
      // not wait behind — or for — the worker pool.
      ServePeerGet(conn, frame);
      return;
    case FrameType::kReply:
    case FrameType::kControlResp: {
      // A client must never send response frames; a bounded number are
      // answered with an error, then the connection is closed — a
      // hostile client cannot loop on free error replies.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ++conn->protocol_errors;
      QueueControl(conn, frame.request_id,
                   Status::InvalidArgument("unexpected response frame"),
                   Slice());
      if (conn->protocol_errors >= options_.max_protocol_errors) {
        CloseConnAfterFlush(conn);
      }
      return;
    }
    default:
      break;
  }
  if (frame.type == FrameType::kCommand && ServeCachedRead(conn, frame)) {
    return;
  }
  bool queued = false;
  {
    MutexLock lock(queue_mu_);
    if (queue_.size() < options_.max_queued_requests) {
      queue_.push_back(WorkItem{conn, std::move(frame)});
      queued = true;
    }
  }
  if (queued) {
    queue_cv_.Signal();
    return;
  }
  // Backpressure: the dispatch queue is full. Park the frame, stop
  // reading this connection (the kernel's flow control throttles the
  // client), and let a draining worker wake the loop to resume.
  conn->stalled = true;
  conn->pending_frame = std::move(frame);
  stall_count_.fetch_add(1, std::memory_order_release);
  MutexLock lock(conn->mu);
  if (!conn->closing) {
    conn->read_off = true;
    RearmLocked(conn.get());
  }
}

void ForkBaseServer::RetryStalled() {
  if (stall_count_.load(std::memory_order_acquire) == 0) return;
  std::vector<std::shared_ptr<Conn>> stalled;
  for (auto& [id, conn] : conns_) {
    if (conn->stalled) stalled.push_back(conn);
  }
  for (auto& conn : stalled) {
    bool queued = false;
    {
      MutexLock lock(queue_mu_);
      if (queue_.size() < options_.max_queued_requests) {
        queue_.push_back(WorkItem{conn, std::move(conn->pending_frame)});
        queued = true;
      }
    }
    if (!queued) return;  // still full; everyone stays parked
    queue_cv_.Signal();
    conn->stalled = false;
    stall_count_.fetch_sub(1, std::memory_order_release);
    {
      MutexLock lock(conn->mu);
      if (!conn->closing) {
        conn->read_off = false;
        RearmLocked(conn.get());
      }
    }
    // Keep working through the backlog this connection buffered while
    // parked (it may immediately re-stall).
    ParseFrames(conn);
  }
}

void ForkBaseServer::ReapClosing() {
  std::vector<std::shared_ptr<Conn>> dead;
  for (auto& [id, conn] : conns_) {
    bool closing;
    {
      MutexLock lock(conn->mu);
      closing = conn->closing;
    }
    if (closing) dead.push_back(conn);
  }
  for (auto& conn : dead) CloseConn(conn);
}

void ForkBaseServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->reaped) return;
  conn->reaped = true;
  {
    MutexLock lock(conn->mu);
    conn->closing = true;
  }
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->sock.fd(), nullptr);
  if (conn->stalled) {
    conn->stalled = false;
    stall_count_.fetch_sub(1, std::memory_order_release);
  }
  conn->sock.Shutdown();
  // The fd itself closes when the last reference (possibly a WorkItem
  // still in flight) drops — after the epoll DEL above, so a recycled
  // fd number can never alias a registered interest.
  conns_.erase(conn->id);
}

void ForkBaseServer::CloseConnAfterFlush(const std::shared_ptr<Conn>& conn) {
  {
    MutexLock lock(conn->mu);
    if (!conn->closing) FlushLocked(conn.get());
  }
  CloseConn(conn);
}

// ---------------------------------------------------------------------------
// Write side
// ---------------------------------------------------------------------------

void ForkBaseServer::RearmLocked(Conn* conn) {
  if (conn->closing) return;
  epoll_event ev{};
  ev.events = EPOLLRDHUP;
  if (!conn->read_off) ev.events |= EPOLLIN;
  if (conn->want_write) ev.events |= EPOLLOUT;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn->sock.fd(), &ev);
}

void ForkBaseServer::AbortLocked(Conn* conn) {
  if (conn->closing) return;
  conn->closing = true;
  conn->sock.Shutdown();
  abort_count_.fetch_add(1, std::memory_order_release);
  WakeLoop();
}

bool ForkBaseServer::FlushLocked(Conn* conn) {
  while (!conn->outq.empty()) {
    iovec iov[kMaxIov];
    int niov = 0;
    size_t skip = conn->front_sent;
    for (const Bytes& b : conn->outq) {
      if (niov == kMaxIov) break;
      iov[niov].iov_base = const_cast<uint8_t*>(b.data()) + skip;
      iov[niov].iov_len = b.size() - skip;
      ++niov;
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(niov);
    const ssize_t w = ::sendmsg(conn->sock.fd(), &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_write) {
          conn->want_write = true;
          RearmLocked(conn);
        }
        return true;
      }
      AbortLocked(conn);
      return false;
    }
    size_t sent = static_cast<size_t>(w);
    conn->outq_bytes -= sent;
    while (sent > 0) {
      Bytes& front = conn->outq.front();
      const size_t avail = front.size() - conn->front_sent;
      if (sent >= avail) {
        sent -= avail;
        conn->front_sent = 0;
        conn->outq.pop_front();
      } else {
        conn->front_sent += sent;
        sent = 0;
      }
    }
  }
  if (conn->want_write) {
    conn->want_write = false;
    RearmLocked(conn);
  }
  return true;
}

void ForkBaseServer::QueueWrite(const std::shared_ptr<Conn>& conn,
                                Bytes wire) {
  MutexLock lock(conn->mu);
  if (conn->closing) return;  // dead connection; the reply has no reader
  conn->outq_bytes += wire.size();
  conn->outq.push_back(std::move(wire));
  if (conn->outq_bytes > options_.max_output_buffer_bytes) {
    // The client stopped reading. The loop never blocks on a send, so
    // the only protection against unbounded buffering is to cut the
    // connection loose.
    AbortLocked(conn.get());
    return;
  }
  if (!defer_flush_) FlushLocked(conn.get());
}

void ForkBaseServer::FlushConn(const std::shared_ptr<Conn>& conn) {
  MutexLock lock(conn->mu);
  if (conn->closing || conn->outq.empty()) return;
  FlushLocked(conn.get());
}

void ForkBaseServer::QueueControl(const std::shared_ptr<Conn>& conn,
                                  uint64_t request_id, const Status& s,
                                  Slice body) {
  Bytes payload;
  EncodeControl(s, body, &payload);
  Bytes wire;
  wire.reserve(kFrameHeaderSize + payload.size());
  EncodeFrame(FrameType::kControlResp, request_id, Slice(payload), &wire);
  QueueWrite(conn, std::move(wire));
}

void ForkBaseServer::QueueReply(const std::shared_ptr<Conn>& conn,
                                uint64_t request_id, const Reply& reply) {
  const Bytes body = reply.Serialize();
  Bytes wire;
  wire.reserve(kFrameHeaderSize + body.size());
  EncodeFrame(FrameType::kReply, request_id, Slice(body), &wire);
  QueueWrite(conn, std::move(wire));
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

bool ForkBaseServer::ServeCachedRead(const std::shared_ptr<Conn>& conn,
                                     const Frame& frame) {
  // Peek at the envelope's version and op bytes; only GetValue is parsed
  // here. A frame that does not parse is the worker's to report.
  const Slice payload(frame.payload);
  if (payload.size() < 2 || payload[0] != kCommandWireVersion ||
      payload[1] != static_cast<uint8_t>(CommandOp::kGetValue)) {
    return false;
  }
  Result<Command> cmd = Command::Parse(payload);
  // A read never mutates, so a follower serves it like a leader does.
  ValueReadout hit;
  if (!cmd.ok() || !engine_->GetCachedValue(cmd->key, cmd->branch,
                                            kMaxInlineReadBytes, &hit)) {
    return false;
  }
  QueueReply(conn, frame.request_id, ValueReply(std::move(hit)));
  return true;
}

void ForkBaseServer::ServePeerGet(const std::shared_ptr<Conn>& conn,
                                  const Frame& frame) {
  const Slice payload(frame.payload);
  ChunkStore* store = options_.local_chunk_store != nullptr
                          ? options_.local_chunk_store
                          : engine_->store();
  if (frame.type == FrameType::kChunkPeerGet) {
    if (payload.size() != Hash::kSize) {
      QueueControl(conn, frame.request_id,
                   Status::InvalidArgument("peer chunk get wants one cid"),
                   Slice());
      return;
    }
    Sha256::Digest d;
    std::memcpy(d.data(), payload.data(), Hash::kSize);
    Chunk chunk;
    const Status s = store->Get(Hash(d), &chunk);
    const Bytes body = s.ok() ? chunk.Serialize() : Bytes();
    QueueControl(conn, frame.request_id, s, Slice(body));
    return;
  }
  // Batched form: per-cid present flags, absence at this store is part
  // of the answer (the resolver asks the next peer for the leftovers).
  std::vector<Hash> cids;
  Status s = DecodeCidList(payload, &cids);
  if (!s.ok()) {
    QueueControl(conn, frame.request_id, s, Slice());
    return;
  }
  std::vector<Chunk> chunks(cids.size());
  std::vector<bool> present(cids.size(), false);
  for (size_t i = 0; i < cids.size(); ++i) {
    const Status got = store->Get(cids[i], &chunks[i]);
    if (got.ok()) {
      present[i] = true;
    } else if (!got.IsNotFound()) {
      QueueControl(conn, frame.request_id, got, Slice());
      return;
    }
  }
  Bytes body;
  EncodeChunkBatchReply(chunks, present, &body);
  QueueControl(conn, frame.request_id, Status::OK(), Slice(body));
}

void ForkBaseServer::WorkerLoop() {
  std::vector<WorkItem> batch;
  batch.reserve(kWorkerBatch);
  for (;;) {
    {
      MutexLock lock(queue_mu_);
      while (!stopping_.load() && queue_.empty()) queue_cv_.Wait(queue_mu_);
      if (queue_.empty()) {
        if (stopping_.load()) return;
        continue;
      }
      while (!queue_.empty() && batch.size() < kWorkerBatch) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // A connection may be parked on the bound we just drained below.
    if (stall_count_.load(std::memory_order_acquire) > 0) WakeLoop();
    // Responses queue without flushing while the batch runs, then each
    // touched connection flushes once: one sendmsg per batch per
    // connection, not per frame.
    defer_flush_ = true;
    for (const WorkItem& item : batch) Dispatch(item);
    defer_flush_ = false;
    for (size_t i = 0; i < batch.size(); ++i) {
      bool seen = false;
      for (size_t j = 0; j < i; ++j) {
        if (batch[j].conn == batch[i].conn) {
          seen = true;
          break;
        }
      }
      if (!seen) FlushConn(batch[i].conn);
    }
    batch.clear();
  }
}

void ForkBaseServer::Dispatch(const WorkItem& item) {
  const uint64_t id = item.frame.request_id;
  const std::shared_ptr<Conn>& conn = item.conn;
  const Slice payload(item.frame.payload);

  switch (item.frame.type) {
    case FrameType::kCommand: {
      Result<Command> cmd = Command::Parse(payload);
      Reply reply = cmd.ok() ? Reply() : Reply::FromStatus(cmd.status());
      if (cmd.ok()) {
        repl::ReplicaGroup* g =
            replication_.load(std::memory_order_acquire);
        if (g != nullptr && g->role() == repl::Role::kFollower &&
            CommandMutates(cmd->op)) {
          // Followers serve reads locally; writes go to the leader. The
          // hint lets the client swap its primary without a re-probe.
          reply = Reply::FromStatus(Status::Unavailable(
              "not leader; leader=" + g->leader_endpoint()));
        } else {
          reply = ApplyCommand(engine_, *cmd);
        }
      }
      QueueReply(conn, id, reply);
      return;
    }
    case FrameType::kChunkGet: {
      if (payload.size() != Hash::kSize) {
        QueueControl(conn, id,
                     Status::InvalidArgument("chunk get wants one cid"),
                     Slice());
        return;
      }
      Sha256::Digest d;
      std::memcpy(d.data(), payload.data(), Hash::kSize);
      Chunk chunk;
      const Status s = engine_->store()->Get(Hash(d), &chunk);
      const Bytes body = s.ok() ? chunk.Serialize() : Bytes();
      QueueControl(conn, id, s, Slice(body));
      return;
    }
    case FrameType::kChunkGetBatch: {
      std::vector<Hash> cids;
      Status s = DecodeCidList(payload, &cids);
      if (!s.ok()) {
        QueueControl(conn, id, s, Slice());
        return;
      }
      std::vector<Chunk> chunks(cids.size());
      std::vector<bool> present(cids.size(), false);
      for (size_t i = 0; i < cids.size(); ++i) {
        const Status got = engine_->store()->Get(cids[i], &chunks[i]);
        if (got.ok()) {
          present[i] = true;
        } else if (!got.IsNotFound()) {
          // Unavailable & co. poison the whole batch: per-cid flags can
          // only express proven absence.
          QueueControl(conn, id, got, Slice());
          return;
        }
      }
      Bytes body;
      EncodeChunkBatchReply(chunks, present, &body);
      QueueControl(conn, id, Status::OK(), Slice(body));
      return;
    }
    case FrameType::kChunkPut: {
      if (payload.size() <= Hash::kSize) {
        QueueControl(conn, id,
                     Status::InvalidArgument("chunk put wants cid+bytes"),
                     Slice());
        return;
      }
      Sha256::Digest d;
      std::memcpy(d.data(), payload.data(), Hash::kSize);
      Chunk chunk;
      if (!Chunk::Deserialize(payload.subslice(Hash::kSize), &chunk)) {
        QueueControl(conn, id, Status::Corruption("undecodable chunk"),
                     Slice());
        return;
      }
      QueueControl(conn, id, engine_->store()->Put(Hash(d), chunk), Slice());
      return;
    }
    case FrameType::kChunkPutBatch: {
      ByteReader r(payload);
      uint64_t n = 0;
      Status s = r.ReadVarint64(&n);
      ChunkBatch batch;
      if (s.ok() && n > r.remaining() / (Hash::kSize + 1)) {
        s = Status::Corruption("chunk batch length exceeds payload");
      }
      for (uint64_t i = 0; s.ok() && i < n; ++i) {
        Slice raw;
        s = r.ReadRaw(Hash::kSize, &raw);
        if (!s.ok()) break;
        Sha256::Digest d;
        std::memcpy(d.data(), raw.data(), Hash::kSize);
        Slice bytes;
        s = r.ReadLengthPrefixed(&bytes);
        if (!s.ok()) break;
        Chunk chunk;
        if (!Chunk::Deserialize(bytes, &chunk)) {
          s = Status::Corruption("undecodable chunk in batch");
          break;
        }
        batch.emplace_back(Hash(d), std::move(chunk));
      }
      if (s.ok() && !r.AtEnd()) {
        s = Status::Corruption("trailing bytes in chunk batch");
      }
      if (s.ok()) s = engine_->store()->PutBatch(batch);
      QueueControl(conn, id, s, Slice());
      return;
    }
    case FrameType::kChunkHas: {
      if (payload.size() != Hash::kSize) {
        QueueControl(conn, id,
                     Status::InvalidArgument("chunk has wants one cid"),
                     Slice());
        return;
      }
      Sha256::Digest d;
      std::memcpy(d.data(), payload.data(), Hash::kSize);
      const uint8_t present = engine_->store()->Contains(Hash(d)) ? 1 : 0;
      QueueControl(conn, id, Status::OK(), Slice(&present, 1));
      return;
    }
    case FrameType::kHello: {
      Bytes body;
      HelloReplInfo info;
      if (repl::ReplicaGroup* g =
              replication_.load(std::memory_order_acquire)) {
        const repl::GroupStatus st = g->Snapshot();
        info.has_group = true;
        info.role = st.role;
        info.epoch = st.epoch;
        info.leader = st.leader;
      }
      EncodeHello(engine_->tree_config(), options_.peer_count, info, &body);
      QueueControl(conn, id, Status::OK(), Slice(body));
      return;
    }
    case FrameType::kStoreStats: {
      Bytes body;
      EncodeStoreStats(engine_->store()->stats(), &body);
      QueueControl(conn, id, Status::OK(), Slice(body));
      return;
    }
    case FrameType::kChunkPeerGet:
    case FrameType::kChunkPeerGetBatch:
      // Normally served inline on the event loop; answer here too so
      // the op works regardless of which path a frame took.
      ServePeerGet(conn, item.frame);
      return;
    case FrameType::kReplAppend:
    case FrameType::kReplSnapshot:
    case FrameType::kReplStatus: {
      repl::ReplicaGroup* g = replication_.load(std::memory_order_acquire);
      if (g == nullptr) {
        QueueControl(conn, id,
                     Status::InvalidArgument("replication not enabled"),
                     Slice());
        return;
      }
      Bytes body;
      Status s;
      if (item.frame.type == FrameType::kReplAppend) {
        s = g->HandleAppend(payload, &body);
      } else if (item.frame.type == FrameType::kReplSnapshot) {
        s = g->HandleSnapshot(payload, &body);
      } else {
        s = g->HandleStatus(payload, &body);
      }
      QueueControl(conn, id, s, Slice(body));
      return;
    }
    case FrameType::kReply:
    case FrameType::kControlResp:
      // Filtered on the event loop (HandleFrame) before dispatch.
      QueueControl(conn, id,
                   Status::InvalidArgument("unexpected response frame"),
                   Slice());
      return;
  }
}

}  // namespace rpc
}  // namespace fb
