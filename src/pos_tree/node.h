// On-chunk node formats for the POS-Tree.
//
// Leaf chunks hold serialized elements back-to-back:
//   Blob : raw bytes (one element == one byte)
//   List : [varint len][bytes] per element
//   Set  : [varint klen][key] per element, sorted by key
//   Map  : [varint klen][key][varint vlen][value] per entry, sorted by key
//
// Index chunks (UIndex for Blob/List, SIndex for Set/Map) hold entries:
//   [cid 32B][varint count][varint klen][key]
// where `count` is the number of base elements in the subtree and `key` is
// the subtree's maximum key (empty for unsorted types).

#ifndef FORKBASE_POS_TREE_NODE_H_
#define FORKBASE_POS_TREE_NODE_H_

#include <vector>

#include "chunk/chunk.h"
#include "util/codec.h"
#include "util/status.h"

namespace fb {

// True for the four leaf chunk types.
inline bool IsLeafType(ChunkType t) {
  return t == ChunkType::kBlob || t == ChunkType::kList ||
         t == ChunkType::kSet || t == ChunkType::kMap;
}
inline bool IsIndexType(ChunkType t) {
  return t == ChunkType::kUIndex || t == ChunkType::kSIndex;
}
// True for types whose elements carry an ordering key.
inline bool IsSortedType(ChunkType t) {
  return t == ChunkType::kSet || t == ChunkType::kMap;
}
// The index chunk type paired with a leaf type.
inline ChunkType IndexTypeFor(ChunkType leaf) {
  return IsSortedType(leaf) ? ChunkType::kSIndex : ChunkType::kUIndex;
}

// A decoded element. For Map, `key`/`value` are views into the leaf
// payload; for Set only `key` is set; for List `value` holds the element
// bytes; Blob leaves are not decoded element-wise (fast path on raw bytes).
struct ElementView {
  Slice key;
  Slice value;
};

// An owned element, used when splicing new content into a tree.
struct Element {
  Bytes key;
  Bytes value;
};

// Serializes one element in its on-chunk form.
void EncodeElement(ChunkType leaf_type, Slice key, Slice value, Bytes* out);

// Decodes all elements of a non-Blob leaf payload.
Status DecodeLeafElements(ChunkType leaf_type, Slice payload,
                          std::vector<ElementView>* out);

// Number of base elements in a leaf chunk (bytes for Blob).
Result<uint64_t> LeafElementCount(ChunkType leaf_type, Slice payload);

// Element boundaries of a non-Blob leaf payload, found by reading only
// the length headers: (*bounds)[i] is where element i starts and
// bounds->back() == payload.size(), so a leaf of n elements yields n + 1
// offsets.
Status LeafElementBounds(ChunkType leaf_type, Slice payload,
                         std::vector<uint32_t>* bounds);

// Decodes one element given exactly its bytes (as LeafElementBounds
// delimits them); a malformed element decodes to empty views.
ElementView DecodeElement(ChunkType leaf_type, Slice element);

// An index entry describing one child node.
struct Entry {
  Hash cid;
  uint64_t count = 0;  // base elements in the subtree
  Bytes key;           // max key in the subtree (sorted types only)
};

// An index entry decoded in place: `key` views the node's payload.
struct EntryView {
  Hash cid;
  uint64_t count = 0;
  Slice key;
};

// Serializes one index entry.
void EncodeEntry(const Hash& cid, uint64_t count, Slice key, Bytes* out);

// Decodes all entries of an index chunk payload.
Status DecodeIndexEntries(Slice payload, std::vector<Entry>* out);
Status DecodeIndexEntryViews(Slice payload, std::vector<EntryView>* out);

// Child choice when descending an index node (entries non-empty). By
// key: the first entry whose max key is >= `key`, else the last. By
// position: the entry holding element `pos`, else the last (pos ==
// total appends there). `*skipped` receives the element count of the
// entries before the chosen one.
size_t ChildForKey(const std::vector<EntryView>& entries, Slice key,
                   uint64_t* skipped);
size_t ChildForPos(const std::vector<EntryView>& entries, uint64_t pos,
                   uint64_t* skipped);

}  // namespace fb

#endif  // FORKBASE_POS_TREE_NODE_H_
