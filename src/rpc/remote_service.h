// RemoteService: a ForkBaseService over a socket connection to a
// ForkBaseServer — the client half of the RPC transport.
//
// Every typed M1-M17 wrapper works unchanged: Execute serializes the
// Command into a frame, ships it, and parses the Reply frame that comes
// back. Submit() is the pipelined path: many requests may be in flight
// on one connection, each tagged with a request id, and the per-
// connection reader thread completes futures in whatever order the
// server's worker pool finishes them.
//
// A small connection pool (RemoteServiceOptions::pool_size) spreads
// concurrent callers over independent sockets; a connection that dies
// (server restart, mid-stream disconnect) fails its in-flight requests
// with IOError and is transparently replaced on the next call.
//
// Client-side value construction (CreateBlob & co., Figure 4) works
// against store(): a RemoteChunkStore that moves cid-addressed chunks
// over the same connections, with the server's TreeConfig fetched at
// connect time so client-built POS-Trees produce byte-identical cids.

#ifndef FORKBASE_RPC_REMOTE_SERVICE_H_
#define FORKBASE_RPC_REMOTE_SERVICE_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/service.h"
#include "chunk/block_cache.h"
#include "rpc/frame.h"
#include "rpc/socket.h"
#include "util/mutex.h"

namespace fb {
namespace rpc {

class RemoteService;

// The client's view of the remote chunk store. Thread-safe (the
// underlying connections are). An optional client-side cache sits
// in front of the wire: chunks are immutable and content-addressed, so
// a cached copy can never go stale, and a re-read of a chunk this
// client already pulled (or just wrote) costs no round trip at all.
class RemoteChunkStore : public ChunkStore {
 public:
  RemoteChunkStore(RemoteService* service, size_t cache_bytes)
      : service_(service),
        cache_(cache_bytes > 0
                   ? std::make_unique<AdmissionChunkCache>(cache_bytes)
                   : nullptr) {}

  using ChunkStore::Put;
  Status Put(const Hash& cid, const Chunk& chunk) override;
  Status Get(const Hash& cid, Chunk* chunk) const override;
  bool Contains(const Hash& cid) const override;
  Status PutBatch(const ChunkBatch& batch) override;
  // One kChunkGetBatch round trip for every cid the cache cannot serve.
  Status GetBatch(const std::vector<Hash>& cids,
                  std::vector<Chunk>* chunks) const override;
  // Server-side counters, with this client's cache counters folded into
  // the cache_* fields.
  ChunkStoreStats stats() const override;

 private:
  RemoteService* service_;
  const std::unique_ptr<AdmissionChunkCache> cache_;
};

struct RemoteServiceOptions {
  size_t pool_size = 2;  // concurrent sockets to the server
  // Byte budget of the client-side chunk cache (0 disables it).
  size_t chunk_cache_bytes = AdmissionChunkCache::kViewCapacityBytes;
};

class RemoteService : public ForkBaseService {
 public:
  // Connects and fetches the server's TreeConfig (the handshake that
  // keeps client-side chunking byte-identical to the server's).
  static Result<std::unique_ptr<RemoteService>> Connect(
      const std::string& endpoint, RemoteServiceOptions options = {});

  ~RemoteService() override;
  RemoteService(const RemoteService&) = delete;
  RemoteService& operator=(const RemoteService&) = delete;

  // Synchronous round-trip; transport failures surface as IOError
  // replies (never silently retried: a sent Put may have committed).
  Reply Execute(const Command& cmd) override;

  // Pipelined dispatch: returns immediately; the future resolves when
  // the server's reply frame arrives (possibly out of submission order).
  std::future<Reply> Submit(Command cmd);

  // Fetches a chunk from the server's LOCAL store only — no server-side
  // peer resolution (kChunkPeerGet). The building block PeerChunkResolver
  // uses for server-to-server fetches: NotFound from this call is an
  // authoritative "this servlet does not hold the cid".
  Status GetChunkLocal(const Hash& cid, Chunk* chunk);

  // Batched form (kChunkPeerGetBatch): one round trip asks the server's
  // LOCAL store for every cid; (*present)[i] says whether (*chunks)[i]
  // came back. A false flag is the same authoritative "not here" as a
  // NotFound from GetChunkLocal — absence never fails the call.
  Status GetChunksLocal(const std::vector<Hash>& cids,
                        std::vector<Chunk>* chunks,
                        std::vector<bool>* present);

  // Sync non-command round trip: ships `payload` under `type` and
  // returns the kControlResp body on OK. The transport the replication
  // subsystem ships its kReplAppend / kReplSnapshot / kReplStatus
  // payloads over.
  Result<Bytes> Call(FrameType type, Slice payload) {
    return CallControl(type, payload);
  }

  ChunkStore* store() const override { return &chunk_view_; }
  const TreeConfig& tree_config() const override { return tree_config_; }
  const std::string& endpoint() const { return endpoint_; }
  // From the kHello handshake: how many peer servlets the server can
  // resolve chunk misses from (0 = peer fetch disabled over there).
  uint64_t server_peer_count() const { return server_peer_count_; }
  // From the kHello handshake: the server's replication standing
  // (has_group=false against a non-replicated server).
  const HelloReplInfo& server_repl_info() const { return server_repl_; }

  // Connections established over the lifetime (1 + reconnects + pool
  // growth); test surface for reconnect behavior.
  uint64_t connections_opened() const {
    return connections_opened_.load(std::memory_order_relaxed);
  }

 private:
  friend class RemoteChunkStore;

  // One pooled connection with its demultiplexing reader and its
  // send-coalescing writer. Sync calls send inline (latency path);
  // pipelined Submits append encoded frames to outbuf and the writer
  // ships whatever has accumulated in one SendAll — a deep pipeline
  // costs a fraction of a syscall per request on the way out.
  // The three per-connection locks share one (innermost) rank: they are
  // never held together — write_mu covers only the SendAll/SendFrame
  // syscall, pending_mu only the id-map touch, out_mu only the writer
  // queue — and the rank checker enforces exactly that.
  struct Connection {
    Socket sock;
    Mutex write_mu{kRankRemoteConn,
                   "remote-write"};  // serializes bytes onto the socket
    Mutex pending_mu{kRankRemoteConn, "remote-pending"};
    bool alive GUARDED_BY(pending_mu) = true;
    // request id -> completion; invoked by the reader thread (or by the
    // drain when the connection dies).
    std::unordered_map<uint64_t, std::function<void(Status, Frame&&)>> pending
        GUARDED_BY(pending_mu);
    std::thread reader;

    // --- writer state (guarded by out_mu) ---
    Mutex out_mu{kRankRemoteConn, "remote-out"};
    CondVar out_cv;
    // encoded frames awaiting the writer
    Bytes outbuf GUARDED_BY(out_mu);
    // writer hit a transport error
    bool write_failed GUARDED_BY(out_mu) = false;
    bool writer_stop GUARDED_BY(out_mu) = false;
    std::thread writer;
  };

  RemoteService(std::string endpoint, RemoteServiceOptions options)
      : endpoint_(std::move(endpoint)), options_(options) {}

  // Round-robin pick; replaces dead slots by reconnecting.
  Result<std::shared_ptr<Connection>> GetConnection();
  Result<std::shared_ptr<Connection>> OpenConnection();
  static void ReaderLoop(Connection* conn);
  static void WriterLoop(Connection* conn);
  static void FailPending(Connection* conn, const Status& why);

  // Registers the callback and sends one frame. Sync (default): the
  // frame goes out inline; on transport failure the callback is NOT
  // invoked and the error returns to the caller. Pipelined: the frame
  // is handed to the connection's writer thread (coalesced with
  // whatever else is queued) and failures surface through the callback.
  Status SendRequest(FrameType type, Slice payload,
                     std::function<void(Status, Frame&&)> on_done,
                     bool pipelined = false);

  std::future<Reply> DispatchCommand(const Command& cmd, bool pipelined);
  // Sync non-command call: remote status, with the response body on OK.
  Result<Bytes> CallControl(FrameType type, Slice payload);

  const std::string endpoint_;
  const RemoteServiceOptions options_;
  TreeConfig tree_config_;
  uint64_t server_peer_count_ = 0;
  HelloReplInfo server_repl_;
  // Declared after options_: the member-init order guarantee that lets
  // the cache size come from the already-initialized options.
  mutable RemoteChunkStore chunk_view_{this, options_.chunk_cache_bytes};

  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> connections_opened_{0};

  // Acquired before any per-connection lock (GetConnection checks slot
  // liveness under pool_mu_ then pending_mu).
  Mutex pool_mu_{kRankRemoteClient, "remote-pool"};
  // fixed pool_size slots
  std::vector<std::shared_ptr<Connection>> pool_ GUARDED_BY(pool_mu_);
  // Every connection ever opened, so the destructor can join all reader
  // threads (replaced slots included).
  std::vector<std::shared_ptr<Connection>> all_conns_ GUARDED_BY(pool_mu_);
};

}  // namespace rpc
}  // namespace fb

#endif  // FORKBASE_RPC_REMOTE_SERVICE_H_
