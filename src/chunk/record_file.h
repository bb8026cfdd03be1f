// The on-disk chunk record shared by every persistent ChunkStore file —
// LogChunkStore segments and LsmChunkStore WALs and SSTs:
//
//   [fixed32 body length][cid 32B][body: Chunk::Serialize()]
//
// This file is the only place the record header is encoded or decoded.

#ifndef FORKBASE_CHUNK_RECORD_FILE_H_
#define FORKBASE_CHUNK_RECORD_FILE_H_

#include <cstdio>
#include <functional>
#include <string>

#include "chunk/chunk.h"
#include "util/status.h"

namespace fb {

constexpr size_t kRecordHeaderSize = 4 + Hash::kSize;

// Appends the record of `chunk` under `cid` to `buf`; returns the body
// length (the record spans kRecordHeaderSize + that many bytes).
uint32_t AppendRecord(Bytes* buf, const Hash& cid, const Chunk& chunk);

// Receives each scanned record: its cid, decoded chunk, the file offset
// of its header and its body length. A non-OK return stops the scan.
using RecordFn = std::function<Status(const Hash& cid, Chunk chunk,
                                      uint64_t offset, uint32_t length)>;

// Reads every record of `path` in order, verifying each body against its
// cid (tamper evidence), and sets *end_offset just past the last good
// record. A truncated record — short header or short body, the
// footprint of a crash mid-append — is Corruption, unless
// `forgive_torn_tail`: then the scan stops there and returns OutOfRange,
// and the caller decides what to do with the bytes past *end_offset. A
// full-length record whose cid does not verify is Corruption either way.
Status ScanRecords(const std::string& path, bool forgive_torn_tail,
                   uint64_t* end_offset, const RecordFn& on_record);

// Reads the chunk of the record whose header starts at `offset` and
// whose body is `length` bytes. Positional reads (pread): concurrent
// readers of one file need no lock, and the stream position is untouched.
Status ReadRecordAt(std::FILE* f, uint64_t offset, uint32_t length,
                    Chunk* chunk);

// Reads that whole record, header included, into *record: for copying
// records between files unchanged.
Status ReadRawRecordAt(std::FILE* f, uint64_t offset, uint32_t length,
                       Bytes* record);

// fflush + fsync; `what` names the file in the error.
Status SyncFile(std::FILE* f, const char* what);

}  // namespace fb

#endif  // FORKBASE_CHUNK_RECORD_FILE_H_
