#include "chunk/record_file.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace fb {

uint32_t AppendRecord(Bytes* buf, const Hash& cid, const Chunk& chunk) {
  const Bytes body = chunk.Serialize();
  const uint32_t len = static_cast<uint32_t>(body.size());
  uint8_t header[kRecordHeaderSize];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<uint8_t>(len >> (8 * i));
  }
  std::memcpy(header + 4, cid.data(), Hash::kSize);
  buf->insert(buf->end(), header, header + sizeof(header));
  buf->insert(buf->end(), body.begin(), body.end());
  return len;
}

Status ScanRecords(const std::string& path, bool forgive_torn_tail,
                   uint64_t* end_offset, const RecordFn& on_record) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("open " + path);
  uint64_t off = 0;
  Status out = Status::OK();
  for (;;) {
    uint8_t header[kRecordHeaderSize];
    const size_t got = std::fread(header, 1, sizeof(header), f);
    if (got == 0) break;  // clean end of file
    if (got != sizeof(header)) {
      out = forgive_torn_tail
                ? Status::OutOfRange("torn tail")
                : Status::Corruption("truncated record header in " + path);
      break;
    }
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= uint32_t{header[i]} << (8 * i);
    Sha256::Digest d;
    std::memcpy(d.data(), header + 4, Hash::kSize);
    const Hash cid{d};
    Bytes body(len);
    const size_t body_got = len > 0 ? std::fread(body.data(), 1, len, f) : 0;
    if (len > 0 && body_got != len) {
      out = forgive_torn_tail
                ? Status::OutOfRange("torn tail")
                : Status::Corruption("truncated record body in " + path);
      break;
    }
    Chunk chunk;
    if (!Chunk::Deserialize(Slice(body), &chunk)) {
      out = Status::Corruption("bad chunk encoding in " + path);
      break;
    }
    if (chunk.ComputeCid() != cid) {
      out = Status::Corruption("cid mismatch (tampered chunk) in " + path);
      break;
    }
    out = on_record(cid, std::move(chunk), off, len);
    if (!out.ok()) break;
    off += kRecordHeaderSize + len;
  }
  std::fclose(f);
  *end_offset = off;
  return out;
}

namespace {

// pread until `n` bytes land; a file that ends first is a short record.
Status PreadFully(std::FILE* f, uint8_t* dst, size_t n, uint64_t offset) {
  while (n > 0) {
    const ssize_t got =
        ::pread(::fileno(f), dst, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      return Status::IOError(std::string("pread: ") + std::strerror(errno));
    }
    if (got == 0) return Status::Corruption("short record read");
    dst += got;
    n -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return Status::OK();
}

}  // namespace

Status ReadRecordAt(std::FILE* f, uint64_t offset, uint32_t length,
                    Chunk* chunk) {
  Bytes body(length);
  FB_RETURN_NOT_OK(
      PreadFully(f, body.data(), length, offset + kRecordHeaderSize));
  if (!Chunk::Deserialize(Slice(body), chunk)) {
    return Status::Corruption("bad chunk encoding");
  }
  return Status::OK();
}

Status ReadRawRecordAt(std::FILE* f, uint64_t offset, uint32_t length,
                       Bytes* record) {
  record->resize(kRecordHeaderSize + length);
  return PreadFully(f, record->data(), record->size(), offset);
}

Status SyncFile(std::FILE* f, const char* what) {
  if (std::fflush(f) != 0) {
    return Status::IOError(std::string("fflush ") + what);
  }
  if (::fsync(::fileno(f)) != 0) {
    return Status::IOError(std::string("fsync ") + what + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace fb
