// Pattern-based chunking for POS-Tree construction (Section 4.3, Alg. 1).
//
// LeafChunker consumes a stream of serialized elements and cuts leaf
// chunks where the rolling-hash pattern P fires (checked at element
// boundaries only — a pattern inside an element extends the boundary to
// the element's end, so no element spans two chunks). The rolling hash is
// reset at every emitted boundary, making each boundary a deterministic
// function of the chunk's own content; this is what lets an incremental
// splice resynchronize with the old chunk sequence.
//
// IndexChunker cuts index nodes with the cheaper pattern P' over child
// cids (low r bits zero); BuildIndexLevels stacks such levels bottom-up
// until a single root remains. Both chunkers also cut at the size caps of
// TreeConfig.

#ifndef FORKBASE_POS_TREE_CHUNKER_H_
#define FORKBASE_POS_TREE_CHUNKER_H_

#include <vector>

#include "chunk/chunk_store.h"
#include "pos_tree/config.h"
#include "pos_tree/node.h"
#include "util/rolling_hash.h"

namespace fb {

// Whole encoded elements stored back to back: element i of n spans
// [bounds[i], bounds[i + 1]) of `base`.
struct ElementRun {
  const uint8_t* base;
  const uint32_t* bounds;  // n + 1 offsets
  size_t n;
};

class LeafChunker {
 public:
  // Completed leaf chunks go to `writer`, which batches them into
  // PutBatch calls; the owner flushes it.
  LeafChunker(BatchedChunkWriter* writer, ChunkType leaf_type,
              const TreeConfig& cfg)
      : leaf_type_(leaf_type),
        cfg_(cfg),
        hasher_(cfg.window),
        writer_(writer) {}

  // Appends one serialized element contributing `count_units` base
  // elements (1 for List/Set/Map). `key` is the element's ordering key
  // (empty for unsorted types). May emit a completed leaf chunk.
  Status AppendElement(Slice element_bytes, Slice key, uint64_t count_units);

  // Appends the elements of `run`, cutting exactly where one
  // AppendElement per element would, but hashing the run's bytes in
  // place: no element is decoded or copied on its own.
  Status AppendRun(const ElementRun& run);

  // Blob fast path: appends raw bytes, each byte being an element.
  Status AppendRaw(Slice bytes);

  // Appends `count` whole elements (bytes for Blob) that the caller knows
  // cannot hold a boundary, without testing them: the old tree chunked
  // the same bytes from the same hash state without cutting, and they
  // stay under the size cap. Only their last window is hashed.
  void AppendQuiet(Slice bytes, uint64_t count, Slice last_key);

  // True when no partial chunk is buffered, i.e. the stream position is a
  // chunk boundary. Used by splice resynchronization.
  bool AtBoundary() const { return buf_.empty(); }

  // Bytes fed since the last boundary.
  size_t pending_bytes() const { return buf_.size(); }

  // Emits the trailing partial chunk, which legitimately may not end with
  // a pattern. Chunks reach the store only when the writer is flushed.
  Status Finish();

  // Entries for all leaves emitted so far, in order. Entries are valid
  // immediately (cids are computed locally).
  std::vector<Entry>& entries() { return entries_; }

 private:
  Status Commit();
  // Buffers elements [from, to) of `run` without hashing them.
  void Buffer(const ElementRun& run, size_t from, size_t to);

  ChunkType leaf_type_;
  TreeConfig cfg_;
  RollingHash hasher_;

  Bytes buf_;
  uint64_t buf_count_ = 0;
  Bytes last_key_;
  std::vector<Entry> entries_;
  BatchedChunkWriter* writer_;
};

class IndexChunker {
 public:
  IndexChunker(BatchedChunkWriter* writer, ChunkType index_type,
               const TreeConfig& cfg)
      : writer_(writer),
        index_type_(index_type),
        mask_((uint64_t{1} << cfg.index_pattern_bits) - 1),
        max_entries_(cfg.max_index_entries()) {}

  // Appends one child entry; emits a node when P' fires on its cid or the
  // node reaches max_index_entries.
  Status Append(const Hash& cid, uint64_t count, Slice key);

  bool AtBoundary() const { return node_entries_ == 0; }

  // Emits the trailing partial node.
  Status Finish();

  std::vector<Entry>& entries() { return entries_; }

 private:
  Status Commit();

  BatchedChunkWriter* writer_;
  ChunkType index_type_;
  uint64_t mask_;
  size_t max_entries_;

  Bytes buf_;
  uint64_t node_count_ = 0;
  Bytes node_key_;
  size_t node_entries_ = 0;
  std::vector<Entry> entries_;
};

// Builds all index levels above `level` and returns the root cid. An
// empty level produces the canonical empty leaf chunk; a single entry is
// the root itself. Chunks go to `writer`; the caller flushes it.
Result<Hash> BuildIndexLevels(BatchedChunkWriter* writer,
                              const TreeConfig& cfg, ChunkType leaf_type,
                              std::vector<Entry> level);

}  // namespace fb

#endif  // FORKBASE_POS_TREE_CHUNKER_H_
