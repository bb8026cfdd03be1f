// Frame layer of the ForkBase RPC transport.
//
// Every message on a connection is one frame:
//
//   [u32 payload_len][u8 type][u64 request_id][u32 crc32(payload)][payload]
//
// (all integers little-endian, 17-byte header). The request id is chosen
// by the client and echoed by the server, so pipelined requests on one
// connection may complete out of order — the server's worker pool
// dispatches frames concurrently and replies whenever each finishes.
//
// Command frames carry the byte-stable Command/Reply envelope
// (src/api/command.h) as their payload; chunk frames carry cid-addressed
// chunk transfers so a remote client can build and read chunkable values
// (client-side construction, Figure 4) against a server's store.
//
// Damage handling is split by how much of the stream survives:
//   * bad checksum      -> Corruption; the length was valid, so the frame
//                          boundary is intact and the CONNECTION IS STILL
//                          USABLE (the server answers with an error reply).
//   * oversized length  -> InvalidArgument; the boundary cannot be
//                          trusted, the connection must close.
//   * short read / EOF  -> IOError (peer went away mid-frame).

#ifndef FORKBASE_RPC_FRAME_H_
#define FORKBASE_RPC_FRAME_H_

#include <cstdint>

#include "chunk/chunk_store.h"
#include "pos_tree/config.h"
#include "rpc/socket.h"
#include "util/slice.h"
#include "util/status.h"

namespace fb {
namespace rpc {

enum class FrameType : uint8_t {
  kCommand = 0,        // payload: Command::Serialize()
  kReply = 1,          // payload: Reply::Serialize()
  kChunkGet = 2,       // payload: [32B cid]
  kChunkPut = 3,       // payload: [32B cid][chunk bytes]
  kChunkPutBatch = 4,  // payload: varint n, n x ([32B cid][LP chunk bytes])
  kChunkHas = 5,       // payload: [32B cid]
  kHello = 6,          // payload: empty; resp body: TreeConfig + peer count
  kStoreStats = 7,     // payload: empty; resp body: varint-encoded stats
  kControlResp = 8,    // payload: [u8 code][LP message][body] (non-command resp)
  kChunkPeerGet = 9,   // payload: [32B cid]; served from the LOCAL store only
                       // (no recursive peer resolution — the op peers use
                       // to fetch from each other without ping-ponging)
  kChunkPeerGetBatch = 10,  // payload: cid list; the multi-cid kChunkPeerGet —
                            // one round trip resolves a whole traversal's
                            // misses. Same LOCAL-store-only rule.
  kChunkGetBatch = 11,      // payload: cid list; multi-cid kChunkGet against
                            // the engine's (possibly peer-resolving) store
  kReplAppend = 12,    // payload: repl::EncodeAppend — leader ships log
                       // records; resp: kControlResp with ack body
  kReplSnapshot = 13,  // payload: repl::EncodeSnapshot — full branch-state
                       // bootstrap; resp: kControlResp with ack body
  kReplStatus = 14,    // payload: repl::EncodeStatusRequest — probe or
                       // follower registration; resp: kControlResp with
                       // repl::GroupStatus body
};
inline constexpr uint8_t kMaxFrameType =
    static_cast<uint8_t>(FrameType::kReplStatus);

// Hard cap on one frame's payload. Large values ship as chunk batches
// well below this; anything bigger is a corrupt or hostile length prefix.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

inline constexpr size_t kFrameHeaderSize = 4 + 1 + 8 + 4;

// Standard CRC-32 (reflected, poly 0xEDB88320) over `data`.
uint32_t Crc32(Slice data);

struct Frame {
  FrameType type = FrameType::kCommand;
  uint64_t request_id = 0;
  Bytes payload;
};

// Appends the full wire encoding of one frame to `out`.
void EncodeFrame(FrameType type, uint64_t request_id, Slice payload,
                 Bytes* out);

// Sends one frame. The caller serializes concurrent senders per socket.
Status SendFrame(Socket* sock, FrameType type, uint64_t request_id,
                 Slice payload);

// Receives one frame, enforcing the payload cap and checksum (error
// taxonomy in the header comment above).
Status RecvFrame(Socket* sock, Frame* out);

// Buffered frame receiver: reads the socket in large gulps and decodes
// frames out of the buffer, so a pipelined response stream costs one
// recv syscall per many frames instead of two per frame. Same error
// taxonomy as RecvFrame; after Corruption the stream stays framed and
// Next() keeps going.
class FrameReader {
 public:
  explicit FrameReader(Socket* sock) : sock_(sock) {}
  Status Next(Frame* out);

 private:
  // Ensures at least `need` unconsumed bytes are buffered.
  Status Fill(size_t need);

  Socket* sock_;
  Bytes buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  size_t end_ = 0;  // received bytes end here; the rest is scratch
};

// Incremental frame decoder over caller-owned bytes — the event-loop
// half of the framing layer (no socket, no blocking). Feed it raw
// input; Decode returns:
//   * OK with *consumed > 0   — one frame decoded into *out.
//   * OK with *consumed == 0  — not enough bytes yet; read more.
//   * Corruption              — damaged frame (bad crc / unknown type);
//                               *consumed skips it, the stream is still
//                               framed and decoding may continue.
//   * InvalidArgument         — oversized length prefix; framing lost,
//                               the connection must close.
Status DecodeFrameFromBuffer(const uint8_t* data, size_t len, Frame* out,
                             size_t* consumed);

// --- Payload bodies shared by both sides of the protocol ------------------

// kControlResp payload: [u8 code][LP message][body].
void EncodeControl(const Status& s, Slice body, Bytes* payload);
// Returns non-OK only when the payload itself is undecodable; the
// carried status lands in *remote and the body (a view into `payload`)
// in *body.
Status DecodeControl(Slice payload, Status* remote, Slice* body);

// kHello response body: the server's TreeConfig, so a remote client
// builds byte-identical POS-Trees (same cids) as the server would,
// followed (since the peer-fetch extension) by a varint peer count —
// how many peer servlets the server can resolve chunk misses from.
// DecodeHello accepts a body without the trailing count (an older
// server) and reports 0 peers.
void EncodeTreeConfig(const TreeConfig& config, Bytes* out);
Status DecodeTreeConfig(Slice body, TreeConfig* out);
void EncodeHello(const TreeConfig& config, uint64_t peer_count, Bytes* out);
Status DecodeHello(Slice body, TreeConfig* config, uint64_t* peer_count);

// Replication tail of the hello body (since the replication extension):
// [u8 has_group][u8 role][fixed64 epoch][LP leader_endpoint]. A client
// uses it to learn whether the server is a replica-group member, its
// role, and where the leader is (leader re-discovery after failover).
// Decoding tolerates a body without the tail (older server) and reports
// has_group=false.
struct HelloReplInfo {
  bool has_group = false;
  uint8_t role = 0;  // repl::Role when has_group
  uint64_t epoch = 0;
  std::string leader;  // leader endpoint hint ("" when unknown)
};
void EncodeHello(const TreeConfig& config, uint64_t peer_count,
                 const HelloReplInfo& repl, Bytes* out);
Status DecodeHello(Slice body, TreeConfig* config, uint64_t* peer_count,
                   HelloReplInfo* repl);

// kStoreStats response body: counter snapshot of the server's store.
void EncodeStoreStats(const ChunkStoreStats& stats, Bytes* out);
Status DecodeStoreStats(Slice body, ChunkStoreStats* out);

// kChunkPeerGetBatch / kChunkGetBatch request body: varint n, n x 32B
// cids. DecodeCidList bounds n against the payload so a hostile length
// cannot force a huge allocation.
void EncodeCidList(const std::vector<Hash>& cids, Bytes* out);
Status DecodeCidList(Slice body, std::vector<Hash>* out);

// Batched-get response body: varint n, n x ([u8 present][LP chunk bytes
// when present]). Present flags are per cid, so one absent chunk does
// not fail the whole batch — absence at THIS store is part of the
// answer (the resolver asks the next peer for the leftovers).
void EncodeChunkBatchReply(const std::vector<Chunk>& chunks,
                           const std::vector<bool>& present, Bytes* out);
Status DecodeChunkBatchReply(Slice body, size_t expected,
                             std::vector<Chunk>* chunks,
                             std::vector<bool>* present);

}  // namespace rpc
}  // namespace fb

#endif  // FORKBASE_RPC_FRAME_H_
