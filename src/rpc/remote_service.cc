#include "rpc/remote_service.h"

#include <cstring>
#include <utility>

#include "util/codec.h"

namespace fb {
namespace rpc {

// ---------------------------------------------------------------------------
// Connection management
// ---------------------------------------------------------------------------

Result<std::unique_ptr<RemoteService>> RemoteService::Connect(
    const std::string& endpoint, RemoteServiceOptions options) {
  if (options.pool_size == 0) options.pool_size = 1;
  std::unique_ptr<RemoteService> service(
      new RemoteService(endpoint, options));
  {
    // Single-threaded here (nothing else can see `service` yet), but the
    // annotations want the lock and it is uncontended.
    MutexLock lock(service->pool_mu_);
    service->pool_.resize(options.pool_size);
  }
  // The handshake both validates the endpoint (first connection opens
  // here) and fetches the server's chunking parameters.
  FB_ASSIGN_OR_RETURN(Bytes hello,
                      service->CallControl(FrameType::kHello, Slice()));
  FB_RETURN_NOT_OK(DecodeHello(Slice(hello), &service->tree_config_,
                               &service->server_peer_count_,
                               &service->server_repl_));
  return service;
}

RemoteService::~RemoteService() {
  std::vector<std::shared_ptr<Connection>> conns;
  {
    MutexLock lock(pool_mu_);
    conns.swap(all_conns_);
    pool_.clear();
  }
  std::vector<std::thread> helpers;
  for (auto& c : conns) {
    {
      MutexLock lock(c->out_mu);
      c->writer_stop = true;
      if (c->writer.joinable()) helpers.push_back(std::move(c->writer));
      if (c->reader.joinable()) helpers.push_back(std::move(c->reader));
    }
    c->out_cv.SignalAll();
    c->sock.Shutdown();
  }
  for (std::thread& t : helpers) t.join();
}

Result<std::shared_ptr<RemoteService::Connection>>
RemoteService::OpenConnection() {
  FB_ASSIGN_OR_RETURN(Endpoint ep, Endpoint::Parse(endpoint_));
  auto conn = std::make_shared<Connection>();
  FB_ASSIGN_OR_RETURN(conn->sock, Socket::Connect(ep));
  {
    // A deep pipeline keeps thousands of requests registered; pre-sizing
    // the id map keeps the hot path off the rehash cliff.
    MutexLock lock(conn->pending_mu);
    conn->pending.reserve(4096);
  }
  connections_opened_.fetch_add(1, std::memory_order_relaxed);
  return conn;
}

Result<std::shared_ptr<RemoteService::Connection>>
RemoteService::GetConnection() {
  // Thread affinity, not round-robin: concurrent callers spread over the
  // pool, but one thread's requests stay on one connection, so a
  // pipelined burst coalesces into that connection's writer batches
  // instead of being split (and syscall'd) across every socket.
  const size_t slot =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      options_.pool_size;
  std::shared_ptr<Connection> idle;
  {
    MutexLock lock(pool_mu_);
    std::shared_ptr<Connection>& c = pool_[slot];
    if (c != nullptr) {
      MutexLock plock(c->pending_mu);
      // A connection that is being read, or that a registered request is
      // about to read, learns of a close from that read.
      if (c->alive && (c->read_held || !c->pending.empty())) return c;
      if (c->alive) idle = c;
    }
  }
  // Nobody reads an idle connection, so a server that closed it (a
  // restart) would surface only as the next call's failed reply. Check
  // it before reuse, and replace it if the server is gone.
  if (idle != nullptr) {
    if (!idle->sock.PeerClosed()) return idle;
    FailPending(idle.get(), Status::IOError("connection closed by server"));
  }
  // Slot empty or dead: reconnect outside the pool lock (connect can
  // block), then install. A concurrent reconnect of the same slot just
  // yields one extra pooled connection in all_conns_; harmless.
  FB_ASSIGN_OR_RETURN(std::shared_ptr<Connection> fresh, OpenConnection());
  std::shared_ptr<Connection> evicted;
  {
    MutexLock lock(pool_mu_);
    evicted = std::move(pool_[slot]);
    pool_[slot] = fresh;
    all_conns_.push_back(fresh);
  }
  if (evicted != nullptr) {
    bool evicted_alive;
    {
      MutexLock plock(evicted->pending_mu);
      evicted_alive = evicted->alive;
    }
    // A live evictee is a concurrent reconnect's fresh connection: its
    // callers still read it and complete its pending normally (it stays
    // in all_conns_), so failing them would kill good requests. A dead
    // one was drained when it died; drain again defensively so no
    // pipelined Submit can outlive its connection unresolved.
    if (!evicted_alive) {
      FailPending(evicted.get(),
                  Status::IOError("connection replaced after failure"));
    }
  }
  return fresh;
}

bool RemoteService::ReadSideHeld() {
  MutexLock lock(pool_mu_);
  for (const std::shared_ptr<Connection>& c : pool_) {
    if (c == nullptr) continue;
    MutexLock plock(c->pending_mu);
    if (c->read_held) return true;
  }
  return false;
}

void RemoteService::FailPending(Connection* conn, const Status& why) {
  std::unordered_map<uint64_t, Completion> drained;
  {
    MutexLock lock(conn->pending_mu);
    conn->alive = false;
    drained.swap(conn->pending);
  }
  for (auto& [id, on_done] : drained) {
    Frame none;
    on_done(why, std::move(none));
  }
  // The reader thread may be waiting for a read side that nobody needs
  // any more.
  conn->read_cv.SignalAll();
}

void RemoteService::ReadFrames(Connection* conn, uint64_t own_id) {
  for (;;) {
    Frame frame;
    const Status s = conn->frames.Next(&frame);
    if (!s.ok()) {
      // Checksum damage on the response stream leaves the frame
      // boundary intact but the affected request unidentifiable in
      // general; treat the connection as poisoned so no caller hangs.
      FailPending(conn, s.IsCorruption()
                            ? s
                            : Status::IOError("connection lost: " +
                                              s.ToString()));
      conn->sock.Shutdown();
      return;
    }
    const uint64_t id = frame.request_id;
    Completion on_done;
    {
      MutexLock lock(conn->pending_mu);
      auto it = conn->pending.find(id);
      if (it != conn->pending.end()) {
        on_done = std::move(it->second);
        conn->pending.erase(it);
      }
    }
    // Replies to ids we never sent (or already failed) are dropped.
    if (!on_done) continue;
    on_done(Status::OK(), std::move(frame));
    if (id == own_id) return;
  }
}

void RemoteService::ReaderLoop(Connection* conn) {
  {
    MutexLock lock(conn->pending_mu);
    while (conn->alive && conn->read_held) {
      conn->read_cv.Wait(conn->pending_mu);
    }
    if (!conn->alive) return;
    conn->read_held = true;
  }
  ReadFrames(conn, /*own_id=*/0);
  {
    MutexLock lock(conn->pending_mu);
    conn->read_held = false;
  }
  conn->read_cv.SignalAll();
}

void RemoteService::WriterLoop(Connection* conn) {
  // Ships whatever Submit()s queued since the last pass in one SendAll.
  // While a send is on the wire, new frames pile into outbuf — the
  // deeper the pipeline, the more frames each syscall carries.
  Bytes batch;
  MutexLock lock(conn->out_mu);
  for (;;) {
    while (!conn->writer_stop && conn->outbuf.empty()) {
      conn->out_cv.Wait(conn->out_mu);
    }
    if (conn->outbuf.empty()) {
      if (conn->writer_stop) return;
      continue;
    }
    batch.clear();
    batch.swap(conn->outbuf);
    lock.Unlock();
    Status sent;
    {
      MutexLock wlock(conn->write_mu);
      sent = conn->sock.SendAll(batch.data(), batch.size());
    }
    if (!sent.ok()) {
      // Poison the socket: whoever holds the read side fails every
      // registered request (queued-but-unsent ones included — they
      // registered in pending before queuing). From here on queued
      // bytes are just dropped.
      conn->sock.Shutdown();
      lock.Lock();
      conn->write_failed = true;
      conn->outbuf.clear();
      continue;
    }
    lock.Lock();
  }
}

Result<Frame> RemoteService::RoundTrip(FrameType type, Slice payload) {
  FB_ASSIGN_OR_RETURN(std::shared_ptr<Connection> conn, GetConnection());
  Connection* c = conn.get();
  const uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  SyncCall call;
  {
    // Register before sending so a fast reply read by another thread
    // finds its completion.
    MutexLock lock(c->pending_mu);
    if (!c->alive) return Status::IOError("connection lost");
    c->pending.emplace(id, [c, &call](Status s, Frame&& frame) {
      MutexLock lock(c->pending_mu);
      call.status = std::move(s);
      call.frame = std::move(frame);
      call.done = true;
      c->read_cv.SignalAll();
    });
  }
  Status sent;
  {
    MutexLock lock(c->write_mu);
    sent = SendFrame(&c->sock, type, id, payload);
  }
  if (!sent.ok()) {
    // Poison the connection: every registered request, this one
    // included, fails now, and the next call reconnects.
    c->sock.Shutdown();
    FailPending(c, sent);
  }
  // Read until this call's reply is completed — by this thread, or by
  // whichever thread holds the read side (it signals read_cv).
  MutexLock lock(c->pending_mu);
  while (!call.done) {
    if (c->read_held) {
      c->read_cv.Wait(c->pending_mu);
      continue;
    }
    c->read_held = true;
    lock.Unlock();
    ReadFrames(c, id);
    lock.Lock();
    c->read_held = false;
    // Waiting callers (or the reader thread) take the read side over.
    c->read_cv.SignalAll();
  }
  if (!call.status.ok()) return call.status;
  return std::move(call.frame);
}

Status RemoteService::SendPipelined(FrameType type, Slice payload,
                                    Completion on_done) {
  FB_ASSIGN_OR_RETURN(std::shared_ptr<Connection> conn, GetConnection());
  Connection* c = conn.get();
  const uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  {
    // Bail if the connection died before registration (the callback
    // would never fire).
    MutexLock lock(c->pending_mu);
    if (!c->alive) return Status::IOError("connection lost");
    c->pending.emplace(id, std::move(on_done));
  }
  // Hand the frame to the writer. If the writer already failed, the
  // drain owns the callback (registration above happened while the
  // connection was still alive), so report OK either way.
  MutexLock lock(c->out_mu);
  if (!c->writer.joinable() && !c->writer_stop) {
    c->reader = std::thread([c] { ReaderLoop(c); });
    c->writer = std::thread([c] { WriterLoop(c); });
  }
  if (!c->write_failed) {
    EncodeFrame(type, id, payload, &c->outbuf);
    c->out_cv.Signal();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Command path
// ---------------------------------------------------------------------------

namespace {

Reply ReplyFromFrame(const Frame& frame) {
  if (frame.type == FrameType::kReply) {
    Result<Reply> reply = Reply::Parse(Slice(frame.payload));
    return reply.ok() ? std::move(*reply) : Reply::FromStatus(reply.status());
  }
  if (frame.type == FrameType::kControlResp) {
    // The server could not treat this as a command (damaged frame,
    // protocol error); the carried status explains why.
    Status remote;
    Slice body;
    const Status d = DecodeControl(Slice(frame.payload), &remote, &body);
    return Reply::FromStatus(d.ok() ? remote : d);
  }
  return Reply::FromStatus(
      Status::Corruption("unexpected response frame type"));
}

}  // namespace

Reply RemoteService::Execute(const Command& cmd) {
  const Bytes wire = cmd.Serialize();
  Result<Frame> frame = RoundTrip(FrameType::kCommand, Slice(wire));
  return frame.ok() ? ReplyFromFrame(*frame)
                    : Reply::FromStatus(frame.status());
}

std::future<Reply> RemoteService::Submit(Command cmd) {
  auto promise = std::make_shared<std::promise<Reply>>();
  std::future<Reply> future = promise->get_future();
  const Bytes wire = cmd.Serialize();
  const Status s = SendPipelined(
      FrameType::kCommand, Slice(wire),
      [promise](Status transport, Frame&& frame) {
        promise->set_value(transport.ok() ? ReplyFromFrame(frame)
                                          : Reply::FromStatus(transport));
      });
  if (!s.ok()) promise->set_value(Reply::FromStatus(s));
  return future;
}

// ---------------------------------------------------------------------------
// Control path (chunk transfer, handshake, stats)
// ---------------------------------------------------------------------------

Result<Bytes> RemoteService::CallControl(FrameType type, Slice payload) {
  FB_ASSIGN_OR_RETURN(Frame frame, RoundTrip(type, payload));
  if (frame.type != FrameType::kControlResp) {
    return Status::Corruption("unexpected response frame type");
  }
  Status remote;
  Slice body;
  FB_RETURN_NOT_OK(DecodeControl(Slice(frame.payload), &remote, &body));
  FB_RETURN_NOT_OK(remote);
  return body.ToBytes();
}

Status RemoteService::GetChunkLocal(const Hash& cid, Chunk* chunk) {
  Result<Bytes> body = CallControl(FrameType::kChunkPeerGet, cid.slice());
  FB_RETURN_NOT_OK(body.status());
  if (!Chunk::Deserialize(Slice(*body), chunk)) {
    return Status::Corruption("undecodable chunk from peer");
  }
  return Status::OK();
}

Status RemoteService::GetChunksLocal(const std::vector<Hash>& cids,
                                     std::vector<Chunk>* chunks,
                                     std::vector<bool>* present) {
  chunks->assign(cids.size(), Chunk());
  present->assign(cids.size(), false);
  if (cids.empty()) return Status::OK();
  Bytes payload;
  EncodeCidList(cids, &payload);
  Result<Bytes> body =
      CallControl(FrameType::kChunkPeerGetBatch, Slice(payload));
  FB_RETURN_NOT_OK(body.status());
  return DecodeChunkBatchReply(Slice(*body), cids.size(), chunks, present);
}

// ---------------------------------------------------------------------------
// RemoteChunkStore
// ---------------------------------------------------------------------------

Status RemoteChunkStore::Put(const Hash& cid, const Chunk& chunk) {
  Bytes payload = cid.slice().ToBytes();
  const Bytes bytes = chunk.Serialize();
  payload.insert(payload.end(), bytes.begin(), bytes.end());
  const Status s =
      service_->CallControl(FrameType::kChunkPut, Slice(payload)).status();
  // Read-own-writes for free: the chunk just shipped is the freshest
  // thing this client could possibly re-read.
  if (s.ok() && cache_ != nullptr) cache_->Put(cid, chunk);
  return s;
}

Status RemoteChunkStore::Get(const Hash& cid, Chunk* chunk) const {
  if (cache_ != nullptr && cache_->Get(cid, chunk)) return Status::OK();
  Result<Bytes> body =
      service_->CallControl(FrameType::kChunkGet, cid.slice());
  FB_RETURN_NOT_OK(body.status());
  if (!Chunk::Deserialize(Slice(*body), chunk)) {
    return Status::Corruption("undecodable chunk from server");
  }
  if (cache_ != nullptr) cache_->Put(cid, *chunk);
  return Status::OK();
}

Status RemoteChunkStore::GetBatch(const std::vector<Hash>& cids,
                                  std::vector<Chunk>* chunks) const {
  chunks->assign(cids.size(), Chunk());
  std::vector<size_t> missing;
  missing.reserve(cids.size());
  for (size_t i = 0; i < cids.size(); ++i) {
    if (cache_ == nullptr || !cache_->Get(cids[i], &(*chunks)[i])) {
      missing.push_back(i);
    }
  }
  if (missing.empty()) return Status::OK();
  std::vector<Hash> want;
  want.reserve(missing.size());
  for (const size_t i : missing) want.push_back(cids[i]);
  Bytes payload;
  EncodeCidList(want, &payload);
  Result<Bytes> body =
      service_->CallControl(FrameType::kChunkGetBatch, Slice(payload));
  FB_RETURN_NOT_OK(body.status());
  std::vector<Chunk> fetched;
  std::vector<bool> present;
  FB_RETURN_NOT_OK(
      DecodeChunkBatchReply(Slice(*body), want.size(), &fetched, &present));
  for (size_t j = 0; j < missing.size(); ++j) {
    // GetBatch keeps Get's contract: the first absent cid fails the
    // call (per-cid absence is the PEER-fetch protocol's business).
    if (!present[j]) {
      return Status::NotFound("chunk not found: " + want[j].ToHex());
    }
    (*chunks)[missing[j]] = std::move(fetched[j]);
    if (cache_ != nullptr) cache_->Put(cids[missing[j]], (*chunks)[missing[j]]);
  }
  return Status::OK();
}

bool RemoteChunkStore::Contains(const Hash& cid) const {
  Result<Bytes> body =
      service_->CallControl(FrameType::kChunkHas, cid.slice());
  return body.ok() && body->size() == 1 && (*body)[0] != 0;
}

Status RemoteChunkStore::PutBatch(const ChunkBatch& batch) {
  if (batch.empty()) return Status::OK();
  Bytes payload;
  PutVarint64(&payload, batch.size());
  for (const auto& [cid, chunk] : batch) {
    payload.insert(payload.end(), cid.slice().begin(), cid.slice().end());
    PutLengthPrefixed(&payload, Slice(chunk.Serialize()));
  }
  const Status s =
      service_->CallControl(FrameType::kChunkPutBatch, Slice(payload))
          .status();
  if (s.ok() && cache_ != nullptr) {
    for (const auto& [cid, chunk] : batch) cache_->Put(cid, chunk);
  }
  return s;
}

ChunkStoreStats RemoteChunkStore::stats() const {
  Result<Bytes> body =
      service_->CallControl(FrameType::kStoreStats, Slice());
  ChunkStoreStats stats;
  if (body.ok()) (void)DecodeStoreStats(Slice(*body), &stats);
  if (cache_ != nullptr) cache_->AddStatsTo(&stats);
  return stats;
}

}  // namespace rpc
}  // namespace fb
