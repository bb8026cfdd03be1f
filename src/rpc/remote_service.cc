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
  for (auto& c : conns) {
    {
      MutexLock lock(c->out_mu);
      c->writer_stop = true;
    }
    c->out_cv.SignalAll();
    c->sock.Shutdown();
  }
  for (auto& c : conns) {
    if (c->writer.joinable()) c->writer.join();
    if (c->reader.joinable()) c->reader.join();
  }
}

Result<std::shared_ptr<RemoteService::Connection>>
RemoteService::OpenConnection() {
  FB_ASSIGN_OR_RETURN(Endpoint ep, Endpoint::Parse(endpoint_));
  auto conn = std::make_shared<Connection>();
  FB_ASSIGN_OR_RETURN(conn->sock, Socket::Connect(ep));
  // A deep pipeline keeps thousands of requests registered; pre-sizing
  // the id map keeps the hot path off the rehash cliff.
  conn->pending.reserve(4096);
  conn->reader = std::thread([c = conn.get()] { ReaderLoop(c); });
  conn->writer = std::thread([c = conn.get()] { WriterLoop(c); });
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
  {
    MutexLock lock(pool_mu_);
    std::shared_ptr<Connection>& c = pool_[slot];
    if (c != nullptr) {
      MutexLock plock(c->pending_mu);
      if (c->alive) return c;
    }
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
    // reader is healthy and completes its pending normally (it stays in
    // all_conns_), so failing them would kill good requests. A dead one
    // was normally drained by its own reader; drain again defensively so
    // no pipelined Submit can outlive its connection unresolved.
    if (!evicted_alive) {
      FailPending(evicted.get(),
                  Status::IOError("connection replaced after failure"));
    }
  }
  return fresh;
}

void RemoteService::FailPending(Connection* conn, const Status& why) {
  std::unordered_map<uint64_t, std::function<void(Status, Frame&&)>> drained;
  {
    MutexLock lock(conn->pending_mu);
    conn->alive = false;
    drained.swap(conn->pending);
  }
  for (auto& [id, on_done] : drained) {
    Frame none;
    on_done(why, std::move(none));
  }
}

void RemoteService::ReaderLoop(Connection* conn) {
  // Buffered reads: a pipelined response burst is drained in large
  // gulps, many frames per recv syscall.
  FrameReader reader(&conn->sock);
  for (;;) {
    Frame frame;
    const Status s = reader.Next(&frame);
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
    std::function<void(Status, Frame&&)> on_done;
    {
      MutexLock lock(conn->pending_mu);
      auto it = conn->pending.find(frame.request_id);
      if (it != conn->pending.end()) {
        on_done = std::move(it->second);
        conn->pending.erase(it);
      }
    }
    // Replies to ids we never sent (or already failed) are dropped.
    if (on_done) on_done(Status::OK(), std::move(frame));
  }
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
      // Poison the socket: the reader fails every registered request
      // (queued-but-unsent ones included — they registered in pending
      // before queuing). From here on queued bytes are just dropped.
      conn->sock.Shutdown();
      lock.Lock();
      conn->write_failed = true;
      conn->outbuf.clear();
      continue;
    }
    lock.Lock();
  }
}

Status RemoteService::SendRequest(
    FrameType type, Slice payload,
    std::function<void(Status, Frame&&)> on_done, bool pipelined) {
  FB_ASSIGN_OR_RETURN(std::shared_ptr<Connection> conn, GetConnection());
  const uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  {
    // Register before sending so a fast reply cannot race the
    // registration; bail if the reader declared the connection dead in
    // between (the callback would never fire).
    MutexLock lock(conn->pending_mu);
    if (!conn->alive) return Status::IOError("connection lost");
    conn->pending.emplace(id, std::move(on_done));
  }
  if (pipelined) {
    // Hand the frame to the writer. If the writer already failed, the
    // reader's drain owns the callback (registration above happened
    // while the connection was still alive), so report OK either way.
    MutexLock lock(conn->out_mu);
    if (!conn->write_failed) {
      EncodeFrame(type, id, payload, &conn->outbuf);
      conn->out_cv.Signal();
    }
    return Status::OK();
  }
  Status sent;
  {
    MutexLock lock(conn->write_mu);
    sent = SendFrame(&conn->sock, type, id, payload);
  }
  if (!sent.ok()) {
    // Poison the connection (the reader will fail the other pending
    // requests off the dead socket) and reclaim our callback. If the
    // reader got there first the callback has already run — report OK
    // so the caller does not complete the promise a second time.
    conn->sock.Shutdown();
    bool reclaimed = false;
    {
      MutexLock lock(conn->pending_mu);
      reclaimed = conn->pending.erase(id) > 0;
    }
    if (!reclaimed) return Status::OK();
  }
  return sent;
}

// ---------------------------------------------------------------------------
// Command path
// ---------------------------------------------------------------------------

std::future<Reply> RemoteService::DispatchCommand(const Command& cmd,
                                                  bool pipelined) {
  auto promise = std::make_shared<std::promise<Reply>>();
  std::future<Reply> future = promise->get_future();
  const Bytes wire = cmd.Serialize();
  const Status s = SendRequest(
      FrameType::kCommand, Slice(wire),
      [promise](Status transport, Frame&& frame) {
        if (!transport.ok()) {
          promise->set_value(Reply::FromStatus(transport));
          return;
        }
        if (frame.type == FrameType::kReply) {
          Result<Reply> reply = Reply::Parse(Slice(frame.payload));
          promise->set_value(reply.ok() ? std::move(*reply)
                                        : Reply::FromStatus(reply.status()));
          return;
        }
        if (frame.type == FrameType::kControlResp) {
          // The server could not treat this as a command (damaged
          // frame, protocol error); the carried status explains why.
          Status remote;
          Slice body;
          const Status d = DecodeControl(Slice(frame.payload), &remote, &body);
          promise->set_value(Reply::FromStatus(d.ok() ? remote : d));
          return;
        }
        promise->set_value(Reply::FromStatus(
            Status::Corruption("unexpected response frame type")));
      },
      pipelined);
  if (!s.ok()) promise->set_value(Reply::FromStatus(s));
  return future;
}

Reply RemoteService::Execute(const Command& cmd) {
  return DispatchCommand(cmd, /*pipelined=*/false).get();
}

std::future<Reply> RemoteService::Submit(Command cmd) {
  return DispatchCommand(cmd, /*pipelined=*/true);
}

// ---------------------------------------------------------------------------
// Control path (chunk transfer, handshake, stats)
// ---------------------------------------------------------------------------

Result<Bytes> RemoteService::CallControl(FrameType type, Slice payload) {
  auto promise = std::make_shared<std::promise<Result<Bytes>>>();
  std::future<Result<Bytes>> future = promise->get_future();
  const Status s = SendRequest(
      type, payload, [promise](Status transport, Frame&& frame) {
        if (!transport.ok()) {
          promise->set_value(transport);
          return;
        }
        if (frame.type != FrameType::kControlResp) {
          promise->set_value(
              Status::Corruption("unexpected response frame type"));
          return;
        }
        Status remote;
        Slice body;
        const Status d = DecodeControl(Slice(frame.payload), &remote, &body);
        if (!d.ok()) {
          promise->set_value(d);
        } else if (!remote.ok()) {
          promise->set_value(remote);
        } else {
          promise->set_value(body.ToBytes());
        }
      });
  FB_RETURN_NOT_OK(s);
  return future.get();
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
