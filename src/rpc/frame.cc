#include "rpc/frame.h"

#include <array>
#include <cstring>

#include "api/command.h"
#include "util/codec.h"

namespace fb {
namespace rpc {

namespace {

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time CRC-32
// table; table[k][b] advances the CRC of byte b through k further zero
// bytes. Checksums are bit-identical to the one-table algorithm — this
// is a pure speedup (the CRC was the single largest per-frame CPU cost
// on the pipelined path), not a wire format change.
std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

void PutLe32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void PutLe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t GetLe32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t GetLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

uint32_t Crc32(Slice data) {
  static const std::array<std::array<uint32_t, 256>, 8> kT = MakeCrcTables();
  uint32_t c = 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    const uint32_t lo = c ^ GetLe32(p);
    const uint32_t hi = GetLe32(p + 4);
    c = kT[7][lo & 0xFF] ^ kT[6][(lo >> 8) & 0xFF] ^
        kT[5][(lo >> 16) & 0xFF] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFF] ^
        kT[2][(hi >> 8) & 0xFF] ^ kT[1][(hi >> 16) & 0xFF] ^ kT[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) c = kT[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void EncodeFrame(FrameType type, uint64_t request_id, Slice payload,
                 Bytes* out) {
  const size_t base = out->size();
  out->resize(base + kFrameHeaderSize);
  uint8_t* h = out->data() + base;
  PutLe32(h, static_cast<uint32_t>(payload.size()));
  h[4] = static_cast<uint8_t>(type);
  PutLe64(h + 5, request_id);
  PutLe32(h + 13, Crc32(payload));
  out->insert(out->end(), payload.begin(), payload.end());
}

Status SendFrame(Socket* sock, FrameType type, uint64_t request_id,
                 Slice payload) {
  Bytes wire;
  wire.reserve(kFrameHeaderSize + payload.size());
  EncodeFrame(type, request_id, payload, &wire);
  return sock->SendAll(wire.data(), wire.size());
}

Status RecvFrame(Socket* sock, Frame* out) {
  uint8_t header[kFrameHeaderSize];
  FB_RETURN_NOT_OK(sock->RecvAll(header, sizeof(header)));
  const uint32_t len = GetLe32(header);
  const uint8_t type = header[4];
  out->request_id = GetLe64(header + 5);
  const uint32_t crc = GetLe32(header + 13);
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload length " +
                                   std::to_string(len) + " exceeds cap");
  }
  if (type > kMaxFrameType) {
    // The boundary is still trustworthy (length was sane): drain the
    // payload so the connection stays usable, then report.
    out->payload.resize(len);
    FB_RETURN_NOT_OK(sock->RecvAll(out->payload.data(), len));
    return Status::Corruption("unknown frame type " + std::to_string(type));
  }
  out->type = static_cast<FrameType>(type);
  out->payload.resize(len);
  FB_RETURN_NOT_OK(sock->RecvAll(out->payload.data(), len));
  if (Crc32(Slice(out->payload)) != crc) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::OK();
}

Status DecodeFrameFromBuffer(const uint8_t* data, size_t len, Frame* out,
                             size_t* consumed) {
  *consumed = 0;
  if (len < kFrameHeaderSize) return Status::OK();
  const uint32_t payload_len = GetLe32(data);
  const uint8_t type = data[4];
  out->request_id = GetLe64(data + 5);  // set early: error replies are
                                        // attributable even on damage
  const uint32_t crc = GetLe32(data + 13);
  if (payload_len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload length " +
                                   std::to_string(payload_len) +
                                   " exceeds cap");
  }
  const size_t total = kFrameHeaderSize + payload_len;
  if (len < total) return Status::OK();
  *consumed = total;
  if (type > kMaxFrameType) {
    return Status::Corruption("unknown frame type " + std::to_string(type));
  }
  out->type = static_cast<FrameType>(type);
  out->payload.assign(data + kFrameHeaderSize, data + total);
  if (Crc32(Slice(out->payload)) != crc) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::OK();
}

Status FrameReader::Fill(size_t need) {
  // 256 KB gulps: a pipelined reply stream of small frames decodes many
  // frames per recv instead of paying two syscalls per frame.
  static constexpr size_t kGulp = 256u << 10;
  while (end_ - pos_ < need) {
    if (pos_ == end_) {
      pos_ = end_ = 0;
    } else if (pos_ > kGulp) {
      std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
    }
    const size_t missing = need - (end_ - pos_);
    const size_t want = missing > kGulp ? missing : kGulp;
    // The buffer only grows: bytes past end_ are scratch, so a stream of
    // small replies reuses it without re-zeroing a gulp per recv.
    if (buf_.size() < end_ + want) buf_.resize(end_ + want);
    size_t got = 0;
    FB_RETURN_NOT_OK(sock_->RecvSome(buf_.data() + end_, want, &got));
    end_ += got;
  }
  return Status::OK();
}

Status FrameReader::Next(Frame* out) {
  FB_RETURN_NOT_OK(Fill(kFrameHeaderSize));
  const uint8_t* h = buf_.data() + pos_;
  const uint32_t len = GetLe32(h);
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload length " +
                                   std::to_string(len) + " exceeds cap");
  }
  FB_RETURN_NOT_OK(Fill(kFrameHeaderSize + len));
  size_t consumed = 0;
  const Status s =
      DecodeFrameFromBuffer(buf_.data() + pos_, kFrameHeaderSize + len, out,
                            &consumed);
  pos_ += consumed;
  return s;
}

// ---------------------------------------------------------------------------
// Payload bodies
// ---------------------------------------------------------------------------

void EncodeControl(const Status& s, Slice body, Bytes* payload) {
  payload->push_back(static_cast<uint8_t>(s.code()));
  PutLengthPrefixed(payload, Slice(s.message()));
  payload->insert(payload->end(), body.begin(), body.end());
}

Status DecodeControl(Slice payload, Status* remote, Slice* body) {
  ByteReader r(payload);
  Slice b;
  FB_RETURN_NOT_OK(r.ReadRaw(1, &b));
  if (b[0] > kMaxStatusCode) {
    return Status::Corruption("bad status code in control response");
  }
  const StatusCode code = static_cast<StatusCode>(b[0]);
  Slice msg;
  FB_RETURN_NOT_OK(r.ReadLengthPrefixed(&msg));
  *remote = MakeStatus(code, msg.ToString());
  *body = payload.subslice(r.position());
  return Status::OK();
}

void EncodeTreeConfig(const TreeConfig& config, Bytes* out) {
  PutVarint64(out, static_cast<uint64_t>(config.leaf_pattern_bits));
  PutVarint64(out, static_cast<uint64_t>(config.index_pattern_bits));
  PutVarint64(out, config.window);
  PutVarint64(out, config.size_alpha);
}

Status DecodeTreeConfig(Slice body, TreeConfig* out) {
  ByteReader r(body);
  uint64_t leaf = 0, index = 0, window = 0, alpha = 0;
  FB_RETURN_NOT_OK(r.ReadVarint64(&leaf));
  FB_RETURN_NOT_OK(r.ReadVarint64(&index));
  FB_RETURN_NOT_OK(r.ReadVarint64(&window));
  FB_RETURN_NOT_OK(r.ReadVarint64(&alpha));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in tree config");
  out->leaf_pattern_bits = static_cast<int>(leaf);
  out->index_pattern_bits = static_cast<int>(index);
  out->window = window;
  out->size_alpha = alpha;
  return Status::OK();
}

void EncodeHello(const TreeConfig& config, uint64_t peer_count, Bytes* out) {
  EncodeHello(config, peer_count, HelloReplInfo{}, out);
}

void EncodeHello(const TreeConfig& config, uint64_t peer_count,
                 const HelloReplInfo& repl, Bytes* out) {
  EncodeTreeConfig(config, out);
  PutVarint64(out, peer_count);
  out->push_back(repl.has_group ? 1 : 0);
  out->push_back(repl.role);
  PutFixed64(out, repl.epoch);
  PutLengthPrefixed(out, Slice(repl.leader));
}

Status DecodeHello(Slice body, TreeConfig* config, uint64_t* peer_count) {
  HelloReplInfo ignored;
  return DecodeHello(body, config, peer_count, &ignored);
}

Status DecodeHello(Slice body, TreeConfig* config, uint64_t* peer_count,
                   HelloReplInfo* repl) {
  ByteReader r(body);
  uint64_t leaf = 0, index = 0, window = 0, alpha = 0;
  FB_RETURN_NOT_OK(r.ReadVarint64(&leaf));
  FB_RETURN_NOT_OK(r.ReadVarint64(&index));
  FB_RETURN_NOT_OK(r.ReadVarint64(&window));
  FB_RETURN_NOT_OK(r.ReadVarint64(&alpha));
  *peer_count = 0;
  *repl = HelloReplInfo{};
  if (!r.AtEnd()) {
    // Peer-fetch-era server; older ones stop at the TreeConfig.
    FB_RETURN_NOT_OK(r.ReadVarint64(peer_count));
  }
  if (!r.AtEnd()) {
    // Replication-era server; older ones stop at the peer count.
    Slice flags;
    FB_RETURN_NOT_OK(r.ReadRaw(2, &flags));
    repl->has_group = flags.data()[0] != 0;
    repl->role = static_cast<uint8_t>(flags.data()[1]);
    FB_RETURN_NOT_OK(r.ReadFixed64(&repl->epoch));
    Slice leader;
    FB_RETURN_NOT_OK(r.ReadLengthPrefixed(&leader));
    repl->leader = leader.ToString();
    if (!r.AtEnd()) return Status::Corruption("trailing bytes in hello");
  }
  config->leaf_pattern_bits = static_cast<int>(leaf);
  config->index_pattern_bits = static_cast<int>(index);
  config->window = window;
  config->size_alpha = alpha;
  return Status::OK();
}

void EncodeStoreStats(const ChunkStoreStats& stats, Bytes* out) {
  PutVarint64(out, stats.puts);
  PutVarint64(out, stats.dedup_hits);
  PutVarint64(out, stats.gets);
  PutVarint64(out, stats.chunks);
  PutVarint64(out, stats.stored_bytes);
  PutVarint64(out, stats.logical_bytes);
  PutVarint64(out, stats.cache_hits);
  PutVarint64(out, stats.cache_misses);
  PutVarint64(out, stats.peer_fetches);
  PutVarint64(out, stats.peer_fetch_failures);
  PutVarint64(out, stats.peer_fetch_negatives);
  PutVarint64(out, stats.peer_round_trips);
  PutVarint64(out, stats.cache_hit_bytes);
  PutVarint64(out, stats.cache_miss_bytes);
  PutVarint64(out, stats.cache_admissions);
  PutVarint64(out, stats.cache_rejections);
}

Status DecodeStoreStats(Slice body, ChunkStoreStats* out) {
  ByteReader r(body);
  FB_RETURN_NOT_OK(r.ReadVarint64(&out->puts));
  FB_RETURN_NOT_OK(r.ReadVarint64(&out->dedup_hits));
  FB_RETURN_NOT_OK(r.ReadVarint64(&out->gets));
  FB_RETURN_NOT_OK(r.ReadVarint64(&out->chunks));
  FB_RETURN_NOT_OK(r.ReadVarint64(&out->stored_bytes));
  FB_RETURN_NOT_OK(r.ReadVarint64(&out->logical_bytes));
  FB_RETURN_NOT_OK(r.ReadVarint64(&out->cache_hits));
  FB_RETURN_NOT_OK(r.ReadVarint64(&out->cache_misses));
  out->peer_fetches = 0;
  out->peer_fetch_failures = 0;
  out->peer_fetch_negatives = 0;
  out->peer_round_trips = 0;
  if (!r.AtEnd()) {
    // Peer-fetch-era server; older ones stop at the cache counters.
    FB_RETURN_NOT_OK(r.ReadVarint64(&out->peer_fetches));
    FB_RETURN_NOT_OK(r.ReadVarint64(&out->peer_fetch_failures));
  }
  if (!r.AtEnd()) {
    // Batched-fetch-era server; the middle era stops at failures.
    FB_RETURN_NOT_OK(r.ReadVarint64(&out->peer_fetch_negatives));
    FB_RETURN_NOT_OK(r.ReadVarint64(&out->peer_round_trips));
  }
  out->cache_hit_bytes = 0;
  out->cache_miss_bytes = 0;
  out->cache_admissions = 0;
  out->cache_rejections = 0;
  if (!r.AtEnd()) {
    // Block-cache-era server; earlier ones stop at the round trips.
    FB_RETURN_NOT_OK(r.ReadVarint64(&out->cache_hit_bytes));
    FB_RETURN_NOT_OK(r.ReadVarint64(&out->cache_miss_bytes));
    FB_RETURN_NOT_OK(r.ReadVarint64(&out->cache_admissions));
    FB_RETURN_NOT_OK(r.ReadVarint64(&out->cache_rejections));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in store stats");
  return Status::OK();
}

void EncodeCidList(const std::vector<Hash>& cids, Bytes* out) {
  PutVarint64(out, cids.size());
  for (const Hash& cid : cids) {
    out->insert(out->end(), cid.slice().begin(), cid.slice().end());
  }
}

Status DecodeCidList(Slice body, std::vector<Hash>* out) {
  ByteReader r(body);
  uint64_t n = 0;
  FB_RETURN_NOT_OK(r.ReadVarint64(&n));
  if (n > r.remaining() / Hash::kSize) {
    return Status::Corruption("cid list length exceeds payload");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Slice raw;
    FB_RETURN_NOT_OK(r.ReadRaw(Hash::kSize, &raw));
    Sha256::Digest d;
    std::memcpy(d.data(), raw.data(), Hash::kSize);
    out->emplace_back(d);
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in cid list");
  return Status::OK();
}

void EncodeChunkBatchReply(const std::vector<Chunk>& chunks,
                           const std::vector<bool>& present, Bytes* out) {
  PutVarint64(out, chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    out->push_back(present[i] ? 1 : 0);
    if (present[i]) PutLengthPrefixed(out, Slice(chunks[i].Serialize()));
  }
}

Status DecodeChunkBatchReply(Slice body, size_t expected,
                             std::vector<Chunk>* chunks,
                             std::vector<bool>* present) {
  ByteReader r(body);
  uint64_t n = 0;
  FB_RETURN_NOT_OK(r.ReadVarint64(&n));
  if (n != expected) {
    return Status::Corruption("batched chunk reply answers " +
                              std::to_string(n) + " of " +
                              std::to_string(expected) + " cids");
  }
  chunks->clear();
  chunks->resize(n);
  present->assign(n, false);
  for (uint64_t i = 0; i < n; ++i) {
    Slice flag;
    FB_RETURN_NOT_OK(r.ReadRaw(1, &flag));
    if (flag[0] == 0) continue;
    Slice bytes;
    FB_RETURN_NOT_OK(r.ReadLengthPrefixed(&bytes));
    if (!Chunk::Deserialize(bytes, &(*chunks)[i])) {
      return Status::Corruption("undecodable chunk in batched reply");
    }
    (*present)[i] = true;
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in batched chunk reply");
  }
  return Status::OK();
}

}  // namespace rpc
}  // namespace fb
