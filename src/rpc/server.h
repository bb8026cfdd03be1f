// ForkBaseServer: serves a ForkBase engine over the socket RPC transport.
//
// One server = one servlet process. A single epoll event loop owns every
// connection: it accepts, reads whatever the kernel has buffered, and
// decodes frames incrementally — so a pipelined client costs one recv
// per batch of frames, not one thread wakeup and two syscalls per frame.
// Decoded Command/chunk frames feed a bounded worker pool; workers
// dispatch through ApplyCommand (the same single dispatch point the
// embedded adapter and the in-process cluster use) and append their
// encoded responses to the connection's output queue, which is flushed
// with scatter-gather writes (one sendmsg ships many response frames).
// Requests pipelined on one connection complete out of order.
//
// Backpressure: when the dispatch queue is full, the connection that
// produced the overflowing frame has its EPOLLIN interest dropped and
// its socket stops draining — the kernel's flow control pushes back on
// the client — until workers catch up. The loop itself never blocks.
//
// Protocol damage never crashes the server: a frame with a bad checksum
// is answered with an error response and the connection keeps going (the
// length prefix was valid, so framing is intact); an oversized length
// prefix or a mid-frame disconnect closes only that connection. A client
// that keeps producing protocol errors — damaged frames or frames a
// client must never send (kReply/kControlResp) — is disconnected after
// max_protocol_errors of them.
//
// Peer chunk fetches (kChunkPeerGet / kChunkPeerGetBatch) are served
// inline on the event loop, bypassing the worker queue: peer gets stay
// serviceable even when every worker is parked on its own outbound peer
// fetch (the cross-server worker-pool deadlock).
//
// So is a GetValue whose key's current head the engine's hot-head cache
// holds (ForkBase::GetCachedValue, the uid-guarded probe that never
// touches the chunk store): a hot read costs the event loop a map lookup
// and a send, not a hand-off to a worker and back. A miss, a hit larger
// than kMaxInlineReadBytes, and every other command go to the worker
// pool. Because of this an inline read can overtake a Put pipelined
// ahead of it on the same connection; a Put whose reply has arrived is
// always seen.

#ifndef FORKBASE_RPC_SERVER_H_
#define FORKBASE_RPC_SERVER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/command.h"
#include "api/db.h"
#include "rpc/frame.h"
#include "rpc/socket.h"
#include "util/mutex.h"

namespace fb {
namespace repl {
class ReplicaGroup;
}  // namespace repl

namespace rpc {

struct ServerOptions {
  // "host:port" (":0" picks an ephemeral port) or "unix:/path".
  std::string listen = "127.0.0.1:0";
  size_t num_workers = 4;
  // Backpressure bound on frames decoded but not yet dispatched; when
  // full, the offending connection's reads pause and the kernel's flow
  // control pushes back on the client.
  size_t max_queued_requests = 1024;
  // Cap on response bytes queued for one connection. A client that
  // stops reading accumulates its replies here (the event loop never
  // blocks on a send); past the cap only that connection is torn down.
  size_t max_output_buffer_bytes = 64u << 20;
  // A connection is closed after this many protocol errors (damaged
  // frames, response-type frames a client must never send): a hostile
  // client cannot loop on free error replies forever.
  size_t max_protocol_errors = 8;

  // Peer topology (server-to-server chunk fetch, Section 4.6). The
  // store kChunkPeerGet answers from: it must be the servlet's PHYSICAL
  // store, never a peer-resolving view — a peer-aware store would
  // recurse back out to the peers and two servlets missing the same cid
  // would ping-pong forever. Null = the engine's store (correct only
  // when that store has no peer resolver attached).
  ChunkStore* local_chunk_store = nullptr;
  // Advertised in the kHello handshake: how many peer servlets this
  // server resolves misses from (0 = peer fetch disabled).
  size_t peer_count = 0;
};

class ForkBaseServer {
 public:
  // Binds, spawns the event loop and worker pool, and returns a running
  // server. The engine is caller-owned and must outlive the server.
  static Result<std::unique_ptr<ForkBaseServer>> Start(ForkBase* engine,
                                                       ServerOptions options);

  ~ForkBaseServer();
  ForkBaseServer(const ForkBaseServer&) = delete;
  ForkBaseServer& operator=(const ForkBaseServer&) = delete;

  // The resolved listen endpoint (real port when ":0" was requested).
  const std::string& endpoint() const { return endpoint_; }

  // Late-binds the replication group (null detaches). Late because the
  // group needs this server's resolved endpoint (":0" listens) before
  // it can exist; the server then routes kReplAppend / kReplSnapshot /
  // kReplStatus to it, advertises its standing in the kHello response,
  // and bounces mutating commands while the group is a follower. The
  // group must outlive the server or be detached before destruction.
  void set_replication(repl::ReplicaGroup* group) {
    replication_.store(group, std::memory_order_release);
  }

  // Stops accepting, tears down every connection, drains the worker
  // pool and joins all threads. Idempotent; called by the destructor.
  void Stop();

  struct Stats {
    uint64_t connections = 0;      // accepted over the lifetime
    uint64_t requests = 0;         // frames handled (inline or dispatched)
    uint64_t protocol_errors = 0;  // damaged / out-of-protocol frames
  };
  Stats stats() const;

 private:
  // One live connection. Read-side state (rbuf, stall, error count)
  // belongs to the event-loop thread alone; the write side (output
  // queue, epoll interest) is shared with workers under mu.
  struct Conn {
    explicit Conn(Socket s) : sock(std::move(s)) {}

    Socket sock;
    uint64_t id = 0;

    // --- event-loop thread only ---
    Bytes rbuf;       // input buffer; grows, never re-zeroed per recv
    size_t rpos = 0;  // consumed prefix of rbuf
    size_t rend = 0;  // received bytes end here; the rest is scratch
    bool stalled = false;  // one decoded frame waits for queue space
    Frame pending_frame;
    uint64_t protocol_errors = 0;
    bool reaped = false;  // deregistered and erased from the registry

    // --- shared with workers (guarded by mu) ---
    Mutex mu{kRankServerConn, "server-conn"};
    std::deque<Bytes> outq GUARDED_BY(mu);  // encoded response frames
    size_t outq_bytes GUARDED_BY(mu) = 0;
    // bytes of outq.front() already on the wire
    size_t front_sent GUARDED_BY(mu) = 0;
    bool want_write GUARDED_BY(mu) = false;  // EPOLLOUT armed
    bool read_off GUARDED_BY(mu) = false;    // EPOLLIN disarmed (backpressure)
    bool closing GUARDED_BY(mu) = false;     // deregistered; drop writes
  };

  struct WorkItem {
    std::shared_ptr<Conn> conn;
    Frame frame;
  };

  // Workers drain up to this many queued frames per wakeup and flush
  // each touched connection ONCE at the end — a pipelined burst ships
  // many response frames per sendmsg instead of one syscall each.
  static constexpr size_t kWorkerBatch = 32;

  // The event loop answers a hot-head hit only up to this size (meta +
  // value). It copies a hit about three times before sending it, while
  // every other connection waits; larger hits go to the workers, which
  // copy them in parallel.
  static constexpr size_t kMaxInlineReadBytes = 64u << 10;

  ForkBaseServer(ForkBase* engine, ServerOptions options)
      : engine_(engine), options_(std::move(options)) {}

  void EventLoop();
  void AcceptReady();
  void ReadReady(const std::shared_ptr<Conn>& conn);
  // Decodes and handles every complete frame buffered in conn->rbuf;
  // stops early on stall or teardown.
  void ParseFrames(const std::shared_ptr<Conn>& conn);
  void HandleFrame(const std::shared_ptr<Conn>& conn, Frame frame);
  // Answers a GetValue command frame on the event loop when the hot-head
  // cache holds the head and its value is at most kMaxInlineReadBytes;
  // returns false, answering nothing, otherwise.
  bool ServeCachedRead(const std::shared_ptr<Conn>& conn, const Frame& frame);
  // Queue-space retry for connections parked on the dispatch bound.
  void RetryStalled();
  // Reaps connections aborted off-loop (write overflow, send failure).
  void ReapClosing();
  void CloseConn(const std::shared_ptr<Conn>& conn);
  // Best-effort flush of queued responses, then close: the path for
  // protocol-error disconnects, where the error reply should still try
  // to make it out.
  void CloseConnAfterFlush(const std::shared_ptr<Conn>& conn);
  void WakeLoop();

  void WorkerLoop();
  void Dispatch(const WorkItem& item);
  // Answers a peer's chunk fetch (single or batched) from the local
  // store, inline on the event loop.
  void ServePeerGet(const std::shared_ptr<Conn>& conn, const Frame& frame);

  // Appends one encoded frame to the connection's output queue and
  // flushes opportunistically. Any thread. A worker mid-batch defers
  // the flush (see defer_flush_) so its whole batch coalesces.
  void QueueWrite(const std::shared_ptr<Conn>& conn, Bytes wire);
  // Flushes whatever responses a dispatch batch queued on `conn`.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void QueueControl(const std::shared_ptr<Conn>& conn, uint64_t request_id,
                    const Status& s, Slice body);
  void QueueReply(const std::shared_ptr<Conn>& conn, uint64_t request_id,
                  const Reply& reply);
  // Non-blocking scatter-gather flush of the output queue; arms
  // EPOLLOUT when the socket fills. Returns false when the connection
  // was aborted by a send failure.
  bool FlushLocked(Conn* conn) REQUIRES(conn->mu);
  // Re-applies the epoll interest mask.
  void RearmLocked(Conn* conn) REQUIRES(conn->mu);
  // Marks the connection dead and unblocks the loop to reap it.
  void AbortLocked(Conn* conn) REQUIRES(conn->mu);

  ForkBase* engine_;
  ServerOptions options_;
  std::string endpoint_;
  Listener listener_;
  std::atomic<repl::ReplicaGroup*> replication_{nullptr};

  int epfd_ = -1;
  int wakefd_ = -1;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  // Outermost rank: workers take queue_mu_, release it, and only then
  // touch connection locks or the engine.
  Mutex queue_mu_{kRankService, "server-queue"};
  CondVar queue_cv_;  // work arrived / stopping
  std::deque<WorkItem> queue_ GUARDED_BY(queue_mu_);

  // Event-loop-thread-only connection registry (Stop() goes through the
  // loop: it wakes it and lets it tear everything down itself).
  uint64_t next_conn_id_ = 0;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns_;

  // Connections parked on the dispatch bound; workers wake the loop
  // when they pop while this is nonzero.
  std::atomic<size_t> stall_count_{0};
  // Connections aborted off-loop, waiting for the loop to reap them.
  std::atomic<size_t> abort_count_{0};

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> protocol_errors_{0};

  // True while the current thread dispatches a worker batch: QueueWrite
  // appends without flushing, and WorkerLoop flushes each touched
  // connection once after the batch.
  static thread_local bool defer_flush_;
};

}  // namespace rpc
}  // namespace fb

#endif  // FORKBASE_RPC_SERVER_H_
