#include "pos_tree/chunker.h"

#include <algorithm>

namespace fb {

Status LeafChunker::Commit() {
  FB_ASSIGN_OR_RETURN(Hash cid, writer_->Add(Chunk(leaf_type_, buf_)));
  entries_.push_back(Entry{cid, buf_count_, last_key_});
  buf_.clear();
  buf_count_ = 0;
  last_key_.clear();
  hasher_.Reset();
  return Status::OK();
}

Status LeafChunker::AppendElement(Slice element_bytes, Slice key,
                                  uint64_t count_units) {
  // A pattern anywhere inside the element extends the boundary to the
  // element's end, where Commit() resets the hasher — so once the pattern
  // fires the element's remaining bytes can never influence a future
  // state and FeedUntilPattern is free to stop early.
  bool hit = false;
  hasher_.FeedUntilPattern(element_bytes.data(), element_bytes.size(),
                           cfg_.leaf_pattern_bits, &hit);
  buf_.insert(buf_.end(), element_bytes.begin(), element_bytes.end());
  buf_count_ += count_units;
  last_key_.assign(key.begin(), key.end());
  if (hit || buf_.size() >= cfg_.max_leaf_bytes()) {
    FB_RETURN_NOT_OK(Commit());
  }
  return Status::OK();
}

void LeafChunker::Buffer(const ElementRun& run, size_t from, size_t to) {
  if (from == to) return;
  buf_.insert(buf_.end(), run.base + run.bounds[from],
              run.base + run.bounds[to]);
  buf_count_ += to - from;
  const Slice last(run.base + run.bounds[to - 1],
                   run.bounds[to] - run.bounds[to - 1]);
  const Slice key = DecodeElement(leaf_type_, last).key;
  last_key_.assign(key.begin(), key.end());
}

Status LeafChunker::AppendRun(const ElementRun& run) {
  const size_t max = cfg_.max_leaf_bytes();
  const size_t end = run.bounds[run.n];
  size_t first = 0;  // first element not yet buffered
  size_t off = run.bounds[0];
  while (off < end) {
    // Hash up to the size cap: the element holding the byte that reaches
    // it is cut whatever its remaining bytes hash to.
    const size_t room = max - buf_.size();
    bool hit = false;
    const size_t took = hasher_.FeedUntilPattern(
        run.base + off, std::min(end - off, room), cfg_.leaf_pattern_bits,
        &hit);
    if (!hit && took < room) {
      Buffer(run, first, run.n);
      return Status::OK();
    }
    // Cut at the end of the element holding the last byte hashed.
    const size_t last = static_cast<size_t>(
        std::upper_bound(run.bounds + first, run.bounds + run.n + 1,
                         off + took - 1) -
        run.bounds - 1);
    Buffer(run, first, last + 1);
    FB_RETURN_NOT_OK(Commit());
    first = last + 1;
    off = run.bounds[first];
  }
  return Status::OK();
}

Status LeafChunker::AppendRaw(Slice bytes) {
  const uint8_t* p = bytes.data();
  size_t remaining = bytes.size();
  while (remaining > 0) {
    const size_t room = cfg_.max_leaf_bytes() - buf_.size();
    bool hit = false;
    const size_t took = hasher_.FeedUntilPattern(
        p, remaining < room ? remaining : room, cfg_.leaf_pattern_bits, &hit);
    buf_.insert(buf_.end(), p, p + took);
    buf_count_ += took;
    p += took;
    remaining -= took;
    if (hit || buf_.size() >= cfg_.max_leaf_bytes()) {
      FB_RETURN_NOT_OK(Commit());
    }
  }
  return Status::OK();
}

void LeafChunker::AppendQuiet(Slice bytes, uint64_t count, Slice last_key) {
  hasher_.Absorb(bytes.data(), bytes.size());
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  buf_count_ += count;
  last_key_.assign(last_key.begin(), last_key.end());
}

Status LeafChunker::Finish() {
  if (!buf_.empty()) FB_RETURN_NOT_OK(Commit());
  return Status::OK();
}

Status IndexChunker::Commit() {
  FB_ASSIGN_OR_RETURN(Hash cid, writer_->Add(Chunk(index_type_, buf_)));
  entries_.push_back(Entry{cid, node_count_, node_key_});
  buf_.clear();
  node_count_ = 0;
  node_key_.clear();
  node_entries_ = 0;
  return Status::OK();
}

Status IndexChunker::Append(const Hash& cid, uint64_t count, Slice key) {
  EncodeEntry(cid, count, key, &buf_);
  node_count_ += count;
  node_key_.assign(key.begin(), key.end());
  ++node_entries_;
  // Pattern P': boundary when the child cid's low r bits are zero.
  if ((cid.Low64() & mask_) == 0 || node_entries_ >= max_entries_) {
    return Commit();
  }
  return Status::OK();
}

Status IndexChunker::Finish() {
  if (node_entries_ > 0) return Commit();
  return Status::OK();
}

Result<Hash> BuildIndexLevels(BatchedChunkWriter* writer,
                              const TreeConfig& cfg, ChunkType leaf_type,
                              std::vector<Entry> level) {
  if (level.empty()) {
    // Canonical empty tree: a single empty leaf chunk.
    return writer->Add(Chunk(leaf_type, {}));
  }
  while (level.size() > 1) {
    IndexChunker chunker(writer, IndexTypeFor(leaf_type), cfg);
    for (const Entry& e : level) {
      FB_RETURN_NOT_OK(chunker.Append(e.cid, e.count, Slice(e.key)));
    }
    FB_RETURN_NOT_OK(chunker.Finish());
    level = std::move(chunker.entries());
  }
  return level[0].cid;
}

}  // namespace fb
