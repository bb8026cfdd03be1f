// PosTree: the Pattern-Oriented-Split Tree (Section 4.3).
//
// A POS-Tree is an immutable, content-addressed search tree over a
// sequence of elements. It combines:
//   * a B+-tree     — index nodes with split keys / element counts give
//                     O(log n) point lookups and positional access;
//   * a Merkle tree — child pointers are cids (cryptographic hashes), so
//                     the root hash commits to the entire content and two
//                     trees can be compared by recursive cid comparison;
//   * content-based slicing — node boundaries are derived from content
//                     patterns, so the tree shape is a pure function of
//                     the element sequence (history independence), which
//                     maximizes chunk-level deduplication across versions,
//                     branches and objects.
//
// Mutations are copy-on-write: they read and write only the paths they
// touch, re-chunking each level just around its changes (tree.cc), and
// return a new root; every other chunk is shared. The new root equals a
// build from scratch of the new content. One FMap::Set on a 1M-entry map
// (height 4) costs ~77 µs and ~4 chunk gets + 4 puts, and a 16-byte
// Blob::Splice in a 128 MB blob about the same (bench_ablation_pos_tree,
// section E: Release build, 4-vCPU Xeon VM, MemChunkStore, default
// TreeConfig).

#ifndef FORKBASE_POS_TREE_TREE_H_
#define FORKBASE_POS_TREE_TREE_H_

#include <optional>
#include <vector>

#include "chunk/chunk_store.h"
#include "pos_tree/chunker.h"
#include "pos_tree/config.h"
#include "pos_tree/node.h"

namespace fb {

class PosTree {
 public:
  // Wraps an existing tree rooted at `root` (leaf or index chunk).
  PosTree(ChunkStore* store, const TreeConfig& cfg, ChunkType leaf_type,
          Hash root)
      : store_(store), cfg_(cfg), leaf_type_(leaf_type), root_(root) {}

  // Builds the canonical tree for an element sequence and stores it.
  static Result<Hash> BuildFromElements(ChunkStore* store,
                                        const TreeConfig& cfg,
                                        ChunkType leaf_type,
                                        const std::vector<Element>& elements);

  // Blob fast path.
  static Result<Hash> BuildFromBytes(ChunkStore* store, const TreeConfig& cfg,
                                     Slice bytes);

  // Stores and returns the canonical empty tree.
  static Result<Hash> EmptyRoot(ChunkStore* store, ChunkType leaf_type);

  Hash root() const { return root_; }
  ChunkType leaf_type() const { return leaf_type_; }
  ChunkStore* store() const { return store_; }
  const TreeConfig& config() const { return cfg_; }

  // Total number of base elements (bytes for Blob). Reads only the root.
  Result<uint64_t> Count() const;

  // Number of levels (1 for a single-leaf tree).
  Result<size_t> Height() const;

  // --- Sorted types (Map / Set) ---------------------------------------

  // Map: value for `key`; Set: empty bytes when present. nullopt if absent.
  Result<std::optional<Bytes>> Find(Slice key) const;

  // Inserts or replaces; updates root(). No-op root change if identical.
  Status InsertOrAssign(Slice key, Slice value);

  // Removes `key`; Status::NotFound if absent.
  Status Erase(Slice key);

  // Applies many upserts in ONE pass: one descent and one re-chunk per
  // touched region, instead of one per key. `upserts` need not be
  // sorted; duplicate keys keep the last value. Untouched leaves and
  // index nodes are reused without being read.
  Status UpsertBatch(std::vector<Element> upserts);

  // --- Unsorted types (Blob / List) ------------------------------------

  // Generic splice at element position `pos`: delete `n_delete` elements
  // (clamped at the end), then insert `insert` there. Works for List /
  // Set-like bulk loads too.
  Status SpliceElements(uint64_t pos, uint64_t n_delete,
                        const std::vector<Element>& insert);

  // Blob: splice raw bytes.
  Status SpliceBytes(uint64_t pos, uint64_t n_delete, Slice insert);

  // Blob: read `n` bytes from byte offset `pos` (clamped at the end).
  Result<Bytes> ReadBytes(uint64_t pos, uint64_t n) const;

  // List: element at index.
  Result<Bytes> GetElement(uint64_t index) const;

  // --- Introspection ----------------------------------------------------

  // All leaf-level entries in order (reads index nodes only, not leaves).
  Status LoadLeafEntries(std::vector<Entry>* out) const;

  // All cids reachable from the root including the root (index + leaves).
  Status CollectChunkIds(std::vector<Hash>* out) const;

  // Verifies every reachable chunk hashes to its cid (tamper check).
  Status VerifyIntegrity() const;

  // --- Iteration --------------------------------------------------------

  // Forward iterator over elements. For sorted types, key()/value() are
  // the element's key and value; for List, value() is the element.
  //
  // Leaf chunks are fetched lazily: positional queries (Valid, AtLeafStart,
  // leaf_cid) never touch the store, so a diff that skips equal-cid leaves
  // (SkipLeaf) reads neither of them.
  class Iterator {
   public:
    bool Valid() const { return leaf_idx_ < leaves_.size(); }
    Status Next();
    Slice key() const {
      MustLoad();
      return elems_[elem_idx_].key;
    }
    Slice value() const {
      MustLoad();
      return elems_[elem_idx_].value;
    }

    // True when positioned on the first element of the current leaf.
    bool AtLeafStart() const { return elem_idx_ == 0; }
    const Hash& leaf_cid() const { return leaves_[leaf_idx_].cid; }
    uint64_t leaf_count() const { return leaves_[leaf_idx_].count; }

    // Jumps over the current leaf without reading it (diff fast path).
    // Only meaningful when AtLeafStart().
    Status SkipLeaf();

    // Fetches the current leaf if not yet loaded. key()/value() call this
    // implicitly and assert success; call it explicitly to handle store
    // errors gracefully.
    Status EnsureLoaded() const;

   private:
    friend class PosTree;
    void MustLoad() const;

    const PosTree* tree_ = nullptr;
    std::vector<Entry> leaves_;
    size_t leaf_idx_ = 0;
    size_t elem_idx_ = 0;
    mutable bool loaded_ = false;
    mutable Chunk current_;  // keeps elems_ views alive
    mutable std::vector<ElementView> elems_;
  };

  // Iterator at the first element (not supported for Blob).
  Result<Iterator> Begin() const;

 private:
  Status ReadNode(const Hash& cid, Chunk* chunk) const;

  ChunkStore* store_;
  TreeConfig cfg_;
  ChunkType leaf_type_;
  Hash root_;
};

}  // namespace fb

#endif  // FORKBASE_POS_TREE_TREE_H_
