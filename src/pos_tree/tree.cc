#include "pos_tree/tree.h"

#include <algorithm>
#include <deque>
#include <map>

namespace fb {

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Result<Hash> PosTree::BuildFromElements(ChunkStore* store,
                                        const TreeConfig& cfg,
                                        ChunkType leaf_type,
                                        const std::vector<Element>& elements) {
  BatchedChunkWriter writer(store);
  LeafChunker chunker(&writer, leaf_type, cfg);
  Bytes encoded;
  for (const Element& e : elements) {
    encoded.clear();
    EncodeElement(leaf_type, Slice(e.key), Slice(e.value), &encoded);
    FB_RETURN_NOT_OK(chunker.AppendElement(Slice(encoded), Slice(e.key), 1));
  }
  FB_RETURN_NOT_OK(chunker.Finish());
  FB_ASSIGN_OR_RETURN(Hash root,
                      BuildIndexLevels(&writer, cfg, leaf_type,
                                       std::move(chunker.entries())));
  FB_RETURN_NOT_OK(writer.Flush());
  return root;
}

Result<Hash> PosTree::BuildFromBytes(ChunkStore* store, const TreeConfig& cfg,
                                     Slice bytes) {
  BatchedChunkWriter writer(store);
  LeafChunker chunker(&writer, ChunkType::kBlob, cfg);
  FB_RETURN_NOT_OK(chunker.AppendRaw(bytes));
  FB_RETURN_NOT_OK(chunker.Finish());
  FB_ASSIGN_OR_RETURN(Hash root,
                      BuildIndexLevels(&writer, cfg, ChunkType::kBlob,
                                       std::move(chunker.entries())));
  FB_RETURN_NOT_OK(writer.Flush());
  return root;
}

Result<Hash> PosTree::EmptyRoot(ChunkStore* store, ChunkType leaf_type) {
  return store->Put(Chunk(leaf_type, {}));
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Status PosTree::ReadNode(const Hash& cid, Chunk* chunk) const {
  return store_->Get(cid, chunk);
}

Result<uint64_t> PosTree::Count() const {
  Chunk root;
  Status s = ReadNode(root_, &root);
  if (!s.ok()) return s;
  if (IsLeafType(root.type())) {
    return LeafElementCount(root.type(), root.payload());
  }
  std::vector<Entry> entries;
  s = DecodeIndexEntries(root.payload(), &entries);
  if (!s.ok()) return s;
  uint64_t total = 0;
  for (const Entry& e : entries) total += e.count;
  return total;
}

Result<size_t> PosTree::Height() const {
  size_t h = 1;
  Hash cur = root_;
  for (;;) {
    Chunk chunk;
    Status s = ReadNode(cur, &chunk);
    if (!s.ok()) return s;
    if (IsLeafType(chunk.type())) return h;
    std::vector<Entry> entries;
    s = DecodeIndexEntries(chunk.payload(), &entries);
    if (!s.ok()) return s;
    if (entries.empty()) return Status::Corruption("empty index node");
    cur = entries.front().cid;
    ++h;
  }
}

Result<std::optional<Bytes>> PosTree::Find(Slice key) const {
  if (!IsSortedType(leaf_type_)) {
    return Status::InvalidArgument("Find requires a sorted type");
  }
  Chunk node;
  FB_RETURN_NOT_OK(ReadNode(root_, &node));
  std::vector<EntryView> entries;
  while (IsIndexType(node.type())) {
    FB_RETURN_NOT_OK(DecodeIndexEntryViews(node.payload(), &entries));
    if (entries.empty()) return Status::Corruption("empty index node");
    uint64_t skipped = 0;
    const Hash child = entries[ChildForKey(entries, key, &skipped)].cid;
    FB_RETURN_NOT_OK(ReadNode(child, &node));
  }
  // Elements are sorted: scan up to the first key not below `key`.
  std::vector<uint32_t> bounds;
  FB_RETURN_NOT_OK(LeafElementBounds(node.type(), node.payload(), &bounds));
  const uint8_t* base = node.payload().data();
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    const ElementView e = DecodeElement(
        node.type(), Slice(base + bounds[i], bounds[i + 1] - bounds[i]));
    const int c = e.key.compare(key);
    if (c == 0) return std::optional<Bytes>{e.value.ToBytes()};
    if (c > 0) break;
  }
  return std::optional<Bytes>{};
}

Status PosTree::LoadLeafEntries(std::vector<Entry>* out) const {
  out->clear();
  // DFS over index nodes only; leaves are never fetched.
  struct Frame {
    std::vector<Entry> entries;
    size_t next = 0;
  };
  Chunk root;
  FB_RETURN_NOT_OK(ReadNode(root_, &root));
  if (IsLeafType(root.type())) {
    FB_ASSIGN_OR_RETURN(uint64_t count,
                        LeafElementCount(root.type(), root.payload()));
    Bytes last_key;
    if (IsSortedType(root.type()) && count > 0) {
      std::vector<ElementView> elems;
      FB_RETURN_NOT_OK(DecodeLeafElements(root.type(), root.payload(), &elems));
      last_key = elems.back().key.ToBytes();
    }
    if (count > 0 || true) {
      // The canonical empty tree still has one (empty) leaf entry so that
      // splice-from-empty goes through the normal path.
      out->push_back(Entry{root_, count, std::move(last_key)});
    }
    return Status::OK();
  }

  // Every root-to-leaf path has the same length (levels are built
  // uniformly), so with the height known in advance the walk can
  // classify entries by depth and never needs to fetch leaf chunks.
  FB_ASSIGN_OR_RETURN(const size_t height, Height());

  // Breadth-first, one level at a time: every index node of a level is
  // fetched in ONE GetBatch, so against a remote or peer-resolving
  // store the traversal costs one round trip per level, not one per
  // node. Entries stay in left-to-right order throughout.
  std::vector<Entry> level;
  FB_RETURN_NOT_OK(DecodeIndexEntries(root.payload(), &level));
  for (size_t depth = 1; depth + 1 < height; ++depth) {
    std::vector<Hash> cids;
    cids.reserve(level.size());
    for (const Entry& e : level) cids.push_back(e.cid);
    std::vector<Chunk> chunks;
    FB_RETURN_NOT_OK(store_->GetBatch(cids, &chunks));
    std::vector<Entry> next;
    for (const Chunk& chunk : chunks) {
      if (!IsIndexType(chunk.type())) {
        return Status::Corruption("expected index node above leaf level");
      }
      std::vector<Entry> entries;
      FB_RETURN_NOT_OK(DecodeIndexEntries(chunk.payload(), &entries));
      next.insert(next.end(), std::make_move_iterator(entries.begin()),
                  std::make_move_iterator(entries.end()));
    }
    level = std::move(next);
  }
  *out = std::move(level);
  return Status::OK();
}

Status PosTree::CollectChunkIds(std::vector<Hash>* out) const {
  out->clear();
  std::vector<Hash> pending{root_};
  while (!pending.empty()) {
    const Hash cid = pending.back();
    pending.pop_back();
    out->push_back(cid);
    Chunk chunk;
    FB_RETURN_NOT_OK(ReadNode(cid, &chunk));
    if (IsIndexType(chunk.type())) {
      std::vector<Entry> entries;
      FB_RETURN_NOT_OK(DecodeIndexEntries(chunk.payload(), &entries));
      for (const Entry& e : entries) pending.push_back(e.cid);
    }
  }
  return Status::OK();
}

Status PosTree::VerifyIntegrity() const {
  std::vector<Hash> cids;
  FB_RETURN_NOT_OK(CollectChunkIds(&cids));
  for (const Hash& cid : cids) {
    Chunk chunk;
    FB_RETURN_NOT_OK(ReadNode(cid, &chunk));
    if (chunk.ComputeCid() != cid) {
      return Status::Corruption("chunk " + cid.ToShortHex() +
                                " fails integrity check");
    }
  }
  return Status::OK();
}

Result<Bytes> PosTree::ReadBytes(uint64_t pos, uint64_t n) const {
  if (leaf_type_ != ChunkType::kBlob) {
    return Status::InvalidArgument("ReadBytes requires Blob");
  }
  std::vector<Entry> leaves;
  Status s = LoadLeafEntries(&leaves);
  if (!s.ok()) return s;
  // Collect every overlapping leaf first, then fetch them in ONE
  // GetBatch: against a remote or peer-resolving store the whole read
  // costs one round trip instead of one per leaf.
  struct Want {
    uint64_t from;
    uint64_t len;
  };
  std::vector<Hash> cids;
  std::vector<Want> wants;
  uint64_t cum = 0;
  for (const Entry& leaf : leaves) {
    const uint64_t leaf_end = cum + leaf.count;
    if (leaf_end > pos && cum < pos + n) {
      const uint64_t from = pos > cum ? pos - cum : 0;
      const uint64_t to =
          std::min<uint64_t>(leaf.count, pos + n > cum ? pos + n - cum : 0);
      if (to > from) {
        cids.push_back(leaf.cid);
        wants.push_back({from, to - from});
      }
    }
    cum = leaf_end;
    if (cum >= pos + n) break;
  }
  std::vector<Chunk> chunks;
  s = store_->GetBatch(cids, &chunks);
  if (!s.ok()) return s;
  Bytes out;
  for (size_t i = 0; i < cids.size(); ++i) {
    const Slice part =
        chunks[i].payload().subslice(wants[i].from, wants[i].len);
    AppendSlice(&out, part);
  }
  return out;
}

Result<Bytes> PosTree::GetElement(uint64_t index) const {
  if (leaf_type_ != ChunkType::kList) {
    return Status::InvalidArgument("GetElement requires List");
  }
  Chunk node;
  FB_RETURN_NOT_OK(ReadNode(root_, &node));
  std::vector<EntryView> entries;
  while (IsIndexType(node.type())) {
    FB_RETURN_NOT_OK(DecodeIndexEntryViews(node.payload(), &entries));
    if (entries.empty()) return Status::Corruption("empty index node");
    uint64_t skipped = 0;
    const Hash child = entries[ChildForPos(entries, index, &skipped)].cid;
    index -= skipped;
    FB_RETURN_NOT_OK(ReadNode(child, &node));
  }
  // Past the end, the descent ends in the last leaf, beyond its elements.
  std::vector<uint32_t> bounds;
  FB_RETURN_NOT_OK(LeafElementBounds(node.type(), node.payload(), &bounds));
  if (index + 1 >= bounds.size()) return Status::OutOfRange("list index");
  const size_t at = static_cast<size_t>(index);
  return DecodeElement(node.type(),
                       node.payload().subslice(bounds[at],
                                               bounds[at + 1] - bounds[at]))
      .value.ToBytes();
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

Status PosTree::Iterator::EnsureLoaded() const {
  if (loaded_ || leaf_idx_ >= leaves_.size()) return Status::OK();
  FB_RETURN_NOT_OK(tree_->ReadNode(leaves_[leaf_idx_].cid, &current_));
  FB_RETURN_NOT_OK(
      DecodeLeafElements(current_.type(), current_.payload(), &elems_));
  loaded_ = true;
  return Status::OK();
}

void PosTree::Iterator::MustLoad() const {
  const Status s = EnsureLoaded();
  assert(s.ok());
  (void)s;
}

Status PosTree::Iterator::Next() {
  FB_RETURN_NOT_OK(EnsureLoaded());
  ++elem_idx_;
  if (elem_idx_ >= elems_.size()) {
    ++leaf_idx_;
    elem_idx_ = 0;
    loaded_ = false;
  }
  return Status::OK();
}

Status PosTree::Iterator::SkipLeaf() {
  ++leaf_idx_;
  elem_idx_ = 0;
  loaded_ = false;
  return Status::OK();
}

Result<PosTree::Iterator> PosTree::Begin() const {
  if (leaf_type_ == ChunkType::kBlob) {
    return Status::InvalidArgument("Blob is iterated via ReadBytes");
  }
  Iterator it;
  it.tree_ = this;
  std::vector<Entry> leaves;
  Status s = LoadLeafEntries(&leaves);
  if (!s.ok()) return s;
  // Drop the placeholder entry of the canonical empty tree so that every
  // positioned leaf is non-empty.
  for (Entry& e : leaves) {
    if (e.count > 0) it.leaves_.push_back(std::move(e));
  }
  return it;
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------
//
// Every mutation runs through one TreeEditor. The edit becomes patches
// over the old element positions of the leaf level; the editor descends
// to the leaves they touch (one GetBatch per level) and re-chunks level by
// level, only around the changes:
//
//  * Leaves. A run of new leaves starts at the old boundary in front of a
//    patch, where the old stream's hasher was reset too, and feeds the old
//    elements straight from the old payloads. It ends at the first old
//    leaf end where the new stream cuts as well: from an aligned boundary
//    on, both streams chunk the same bytes the same way. An old leaf holds
//    no boundary before its last element, so once the new hasher has seen
//    the same last window of bytes as the old one did (the buzhash depends
//    on nothing else), those elements are appended unhashed and only the
//    last one is fed.
//  * Index levels. P' reads one child cid, so a level re-synchronizes at
//    the first old node end after its last change where the new level cuts
//    too; only a max_index_entries cut can push that further right.
//  * Root. The top level's entries are chunked from scratch, which adds
//    levels when they no longer fit one node; a single remaining entry is
//    collapsed to the lowest level with one node.
//
// Every boundary therefore lands where BuildFromElements/BuildFromBytes
// puts it, and the new root equals the root built from the new content.

namespace {

constexpr uint64_t kToEnd = ~uint64_t{0};
constexpr size_t kUnknownDepth = ~size_t{0};

// A node of the old tree read during a mutation, addressed by its depth
// (0 = root) and the element offset of its first element.
struct OldNode {
  Chunk chunk;
  uint64_t start = 0;
  uint64_t count = 0;
  std::vector<EntryView> entries;  // index node: views into `chunk`
  std::vector<uint32_t> bounds;    // element leaf, filled by EnsureBounds
  uint64_t end() const { return start + count; }
};

// New elements replacing the old elements [from, to) of the leaf level.
struct Patch {
  uint64_t from = 0;
  uint64_t to = 0;
  Bytes bytes;                   // encoded elements, back to back
  std::vector<uint32_t> bounds;  // element offsets in `bytes` (not Blob)
};

// New nodes replacing the old nodes that cover elements [from, to) at one
// depth.
struct Replacement {
  uint64_t from = 0;
  uint64_t to = 0;
  std::vector<Entry> entries;
};

// An upsert of `key`, or its removal when `erase` is set.
struct KeyEdit {
  Slice key;
  Slice value;
  bool erase = false;
};

class TreeEditor {
 public:
  TreeEditor(ChunkStore* store, const TreeConfig& cfg, ChunkType leaf_type,
             const Hash& root)
      : store_(store),
        cfg_(cfg),
        leaf_type_(leaf_type),
        root_(root),
        writer_(store) {}

  // Reads the root; runs before anything else.
  Status Open();
  uint64_t total() const { return total_; }

  // Patches for `edits` (sorted by key, keys unique). An edit that
  // changes nothing yields no patch; `*missing` counts erased keys that
  // were absent.
  Status PatchKeys(const std::vector<KeyEdit>& edits, std::vector<Patch>* out,
                   size_t* missing);

  // Reads the leaves holding `positions` (sorted).
  Status Prefetch(const std::vector<uint64_t>& positions);

  // Applies `patches` (sorted by position, disjoint) and returns the new
  // root. Runs after PatchKeys or Prefetch.
  Result<Hash> Apply(const std::vector<Patch>& patches);

 private:
  // Reads each level's missing nodes with one GetBatch. `pick(node, t,
  // &skipped)` chooses target t's child entry in `node`.
  template <typename Pick>
  Status Descend(size_t n, const Pick& pick, std::vector<OldNode*>* leaves);
  // The node at `depth` holding element `pos` (the last one for pos ==
  // total), read on a miss.
  Status Locate(size_t depth, uint64_t pos, OldNode** out);
  Result<OldNode*> Adopt(size_t depth, uint64_t start, uint64_t count,
                         Chunk chunk);
  OldNode* Cached(size_t depth, uint64_t start);
  Status EnsureBounds(OldNode* leaf);
  ElementView ElementOf(const OldNode& leaf, size_t i) const;
  // True when `pos` is known, from the nodes read so far, to be an old
  // node boundary at `depth`. A false negative only costs re-chunking.
  bool KnownBoundary(size_t depth, uint64_t pos) const;

  Status ChunkLeaves(const std::vector<Patch>& patches,
                     std::vector<Replacement>* out);
  Status ChunkIndex(size_t depth, const std::vector<Replacement>& below,
                    std::vector<Replacement>* out);
  Result<Hash> ChunkRoot(const std::vector<Replacement>& below);

  ChunkStore* store_;
  TreeConfig cfg_;
  ChunkType leaf_type_;
  Hash root_;
  BatchedChunkWriter writer_;
  uint64_t total_ = 0;
  size_t leaf_depth_ = kUnknownDepth;
  // Per depth, the nodes read so far keyed by start. A deque keeps each
  // map (and so every OldNode) in place while deeper levels are added.
  std::deque<std::map<uint64_t, OldNode>> levels_;
};

Status TreeEditor::Open() {
  Chunk chunk;
  FB_RETURN_NOT_OK(store_->Get(root_, &chunk));
  if (IsLeafType(chunk.type())) leaf_depth_ = 0;
  FB_ASSIGN_OR_RETURN(OldNode * root, Adopt(0, 0, 0, std::move(chunk)));
  if (leaf_type_ == ChunkType::kBlob && leaf_depth_ == 0) {
    root->count = root->chunk.payload_size();
  } else if (leaf_depth_ == 0) {
    FB_RETURN_NOT_OK(
        LeafElementBounds(leaf_type_, root->chunk.payload(), &root->bounds));
    root->count = root->bounds.size() - 1;
  } else {
    for (const EntryView& e : root->entries) root->count += e.count;
  }
  total_ = root->count;
  return Status::OK();
}

Result<OldNode*> TreeEditor::Adopt(size_t depth, uint64_t start,
                                   uint64_t count, Chunk chunk) {
  const bool leaf = IsLeafType(chunk.type());
  if (chunk.type() != (leaf ? leaf_type_ : IndexTypeFor(leaf_type_))) {
    return Status::Corruption("node of the wrong type in tree");
  }
  if (leaf_depth_ != kUnknownDepth && (depth == leaf_depth_) != leaf) {
    return Status::Corruption("tree levels are uneven");
  }
  while (levels_.size() <= depth) levels_.emplace_back();
  OldNode& node = levels_[depth][start];
  node.chunk = std::move(chunk);
  node.start = start;
  node.count = count;
  if (!leaf) {
    FB_RETURN_NOT_OK(
        DecodeIndexEntryViews(node.chunk.payload(), &node.entries));
    if (node.entries.empty()) return Status::Corruption("empty index node");
  }
  return &node;
}

OldNode* TreeEditor::Cached(size_t depth, uint64_t start) {
  if (depth >= levels_.size()) return nullptr;
  auto it = levels_[depth].find(start);
  return it == levels_[depth].end() ? nullptr : &it->second;
}

Status TreeEditor::EnsureBounds(OldNode* leaf) {
  if (leaf_type_ == ChunkType::kBlob || !leaf->bounds.empty()) {
    return Status::OK();
  }
  leaf->bounds.reserve(leaf->count + 1);
  FB_RETURN_NOT_OK(
      LeafElementBounds(leaf_type_, leaf->chunk.payload(), &leaf->bounds));
  if (leaf->bounds.size() - 1 != leaf->count) {
    return Status::Corruption("leaf element count mismatch");
  }
  return Status::OK();
}

ElementView TreeEditor::ElementOf(const OldNode& leaf, size_t i) const {
  return DecodeElement(
      leaf_type_, leaf.chunk.payload().subslice(
                      leaf.bounds[i], leaf.bounds[i + 1] - leaf.bounds[i]));
}

template <typename Pick>
Status TreeEditor::Descend(size_t n, const Pick& pick,
                           std::vector<OldNode*>* leaves) {
  std::vector<OldNode*> cur(n, &levels_[0].begin()->second);
  size_t depth = 0;
  while (n > 0 && !IsLeafType(cur[0]->chunk.type())) {
    std::vector<uint64_t> starts(n);
    std::vector<Hash> cids;
    std::vector<std::pair<uint64_t, uint64_t>> wanted;  // (start, count)
    for (size_t t = 0; t < n; ++t) {
      uint64_t skipped = 0;
      const EntryView& e = cur[t]->entries[pick(*cur[t], t, &skipped)];
      starts[t] = cur[t]->start + skipped;
      // Targets are sorted, so two that share a child are adjacent.
      if (Cached(depth + 1, starts[t]) == nullptr &&
          (wanted.empty() || wanted.back().first != starts[t])) {
        cids.push_back(e.cid);
        wanted.emplace_back(starts[t], e.count);
      }
    }
    std::vector<Chunk> chunks;
    FB_RETURN_NOT_OK(store_->GetBatch(cids, &chunks));
    if (leaf_depth_ == kUnknownDepth && !chunks.empty() &&
        IsLeafType(chunks[0].type())) {
      leaf_depth_ = depth + 1;
    }
    for (size_t k = 0; k < wanted.size(); ++k) {
      FB_ASSIGN_OR_RETURN(OldNode * node, Adopt(depth + 1, wanted[k].first,
                                                wanted[k].second,
                                                std::move(chunks[k])));
      (void)node;
    }
    ++depth;
    for (size_t t = 0; t < n; ++t) {
      cur[t] = Cached(depth, starts[t]);
      if (IsLeafType(cur[t]->chunk.type()) !=
          IsLeafType(cur[0]->chunk.type())) {
        return Status::Corruption("tree levels are uneven");
      }
    }
  }
  if (leaves != nullptr) *leaves = std::move(cur);
  return Status::OK();
}

Status TreeEditor::Locate(size_t depth, uint64_t pos, OldNode** out) {
  OldNode* node = &levels_[0].begin()->second;
  for (size_t d = 0; d < depth; ++d) {
    if (node->entries.empty()) {
      return Status::Corruption("tree levels are uneven");
    }
    uint64_t skipped = 0;
    const EntryView& e =
        node->entries[ChildForPos(node->entries, pos - node->start, &skipped)];
    const uint64_t start = node->start + skipped;
    OldNode* child = Cached(d + 1, start);
    if (child == nullptr) {
      Chunk chunk;
      FB_RETURN_NOT_OK(store_->Get(e.cid, &chunk));
      FB_ASSIGN_OR_RETURN(child,
                          Adopt(d + 1, start, e.count, std::move(chunk)));
    }
    node = child;
  }
  *out = node;
  return Status::OK();
}

bool TreeEditor::KnownBoundary(size_t depth, uint64_t pos) const {
  if (pos == 0 || pos == total_) return true;
  const auto& level = levels_[depth];
  auto it = level.upper_bound(pos);
  if (it == level.begin()) return false;
  --it;
  return it->first == pos || it->second.end() == pos;
}

Status TreeEditor::PatchKeys(const std::vector<KeyEdit>& edits,
                             std::vector<Patch>* out, size_t* missing) {
  std::vector<OldNode*> leaves;
  FB_RETURN_NOT_OK(Descend(
      edits.size(),
      [&](const OldNode& node, size_t t, uint64_t* skipped) {
        return ChildForKey(node.entries, edits[t].key, skipped);
      },
      &leaves));
  for (size_t t = 0; t < edits.size(); ++t) {
    const KeyEdit& edit = edits[t];
    OldNode* leaf = leaves[t];
    FB_RETURN_NOT_OK(EnsureBounds(leaf));
    // First element whose key is not below edit.key.
    size_t lo = 0;
    size_t hi = leaf->bounds.size() - 1;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (ElementOf(*leaf, mid).key < edit.key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const bool present =
        lo + 1 < leaf->bounds.size() && ElementOf(*leaf, lo).key == edit.key;
    Patch patch;
    patch.from = leaf->start + lo;
    patch.to = patch.from + (present ? 1 : 0);
    if (edit.erase) {
      if (!present) {
        ++*missing;
        continue;
      }
    } else {
      if (present && (leaf_type_ == ChunkType::kSet ||
                      ElementOf(*leaf, lo).value == edit.value)) {
        continue;  // already holds: no new version
      }
      EncodeElement(leaf_type_, edit.key, edit.value, &patch.bytes);
      patch.bounds = {0, static_cast<uint32_t>(patch.bytes.size())};
    }
    out->push_back(std::move(patch));
  }
  return Status::OK();
}

Status TreeEditor::Prefetch(const std::vector<uint64_t>& positions) {
  return Descend(
      positions.size(),
      [&](const OldNode& node, size_t t, uint64_t* skipped) {
        return ChildForPos(node.entries, positions[t] - node.start, skipped);
      },
      nullptr);
}

Result<Hash> TreeEditor::Apply(const std::vector<Patch>& patches) {
  if (patches.empty()) return root_;
  std::vector<Replacement> reps;
  FB_RETURN_NOT_OK(ChunkLeaves(patches, &reps));
  for (size_t depth = leaf_depth_; depth-- > 1;) {
    std::vector<Replacement> up;
    FB_RETURN_NOT_OK(ChunkIndex(depth, reps, &up));
    reps = std::move(up);
  }
  FB_ASSIGN_OR_RETURN(Hash root, ChunkRoot(reps));
  FB_RETURN_NOT_OK(writer_.Flush());
  return root;
}

Status TreeEditor::ChunkLeaves(const std::vector<Patch>& patches,
                               std::vector<Replacement>* out) {
  LeafChunker chunker(&writer_, leaf_type_, cfg_);
  const bool blob = leaf_type_ == ChunkType::kBlob;
  bool open = false;
  uint64_t run_start = 0;
  uint64_t cursor = 0;    // next old element to feed
  uint64_t diverged = 0;  // where the new stream last left the old one

  auto close = [&](uint64_t end) {
    out->push_back(Replacement{run_start, end, std::move(chunker.entries())});
    chunker.entries().clear();
    open = false;
  };
  auto offset = [&](const OldNode& leaf, size_t i) -> size_t {
    return blob ? i : leaf.bounds[i];
  };
  auto feed = [&](const OldNode& leaf, size_t a, size_t b) -> Status {
    if (a >= b) return Status::OK();
    if (blob) return chunker.AppendRaw(leaf.chunk.payload().subslice(a, b - a));
    return chunker.AppendRun(ElementRun{leaf.chunk.payload().data(),
                                        leaf.bounds.data() + a, b - a});
  };
  // Feeds old elements [a, b) of `leaf`.
  auto feed_leaf = [&](const OldNode& leaf, size_t a, size_t b) -> Status {
    if (a >= b) return Status::OK();
    size_t i = a;
    if (!(chunker.AtBoundary() && a == 0)) {
      // The old stream restarted at the leaf start. The new one hashes
      // like it once a full window of old bytes has passed since both the
      // divergence and the new stream's own last cut.
      const size_t div =
          static_cast<size_t>(std::max(diverged, leaf.start) - leaf.start);
      const size_t in_step = offset(leaf, div) + cfg_.window;
      for (;;) {
        size_t j = blob ? std::max(i, in_step)
                        : static_cast<size_t>(
                              std::lower_bound(leaf.bounds.begin() + i,
                                               leaf.bounds.end(), in_step) -
                              leaf.bounds.begin());
        j = std::min(j, b);
        FB_RETURN_NOT_OK(feed(leaf, i, j));
        i = j;
        if (i >= b) return Status::OK();
        if (chunker.pending_bytes() >= cfg_.window) break;
        // A new cut landed within the last window: walk one more element.
        FB_RETURN_NOT_OK(feed(leaf, i, i + 1));
        ++i;
      }
    }
    // In step with the old stream, which cut nowhere before the leaf's
    // last element.
    const size_t quiet_end = std::min<size_t>(b, leaf.count - 1);
    if (i < quiet_end) {
      const size_t len = offset(leaf, quiet_end) - offset(leaf, i);
      if (chunker.pending_bytes() + len < cfg_.max_leaf_bytes()) {
        chunker.AppendQuiet(
            leaf.chunk.payload().subslice(offset(leaf, i), len), quiet_end - i,
            blob ? Slice() : ElementOf(leaf, quiet_end - 1).key);
        i = quiet_end;
      }
    }
    return feed(leaf, i, b);
  };
  // Feeds old elements from `cursor` up to `target`; the run ends at the
  // first old leaf end where the new stream cuts too.
  auto feed_old = [&](uint64_t target) -> Status {
    while (open && cursor < target && cursor < total_) {
      OldNode* leaf = nullptr;
      FB_RETURN_NOT_OK(Locate(leaf_depth_, cursor, &leaf));
      FB_RETURN_NOT_OK(EnsureBounds(leaf));
      const uint64_t stop = std::min(target, leaf->end());
      FB_RETURN_NOT_OK(
          feed_leaf(*leaf, static_cast<size_t>(cursor - leaf->start),
                    static_cast<size_t>(stop - leaf->start)));
      cursor = stop;
      if (cursor == leaf->end() && chunker.AtBoundary() && cursor < total_) {
        close(cursor);
      }
    }
    if (open && target == kToEnd) {
      FB_RETURN_NOT_OK(chunker.Finish());
      close(total_);
    }
    return Status::OK();
  };

  for (const Patch& p : patches) {
    if (open) FB_RETURN_NOT_OK(feed_old(p.from));
    if (!open) {
      OldNode* leaf = nullptr;
      FB_RETURN_NOT_OK(Locate(leaf_depth_, p.from, &leaf));
      open = true;
      run_start = cursor = diverged = leaf->start;
      FB_RETURN_NOT_OK(feed_old(p.from));
    }
    if (blob) {
      FB_RETURN_NOT_OK(chunker.AppendRaw(Slice(p.bytes)));
    } else if (!p.bounds.empty()) {
      FB_RETURN_NOT_OK(chunker.AppendRun(
          ElementRun{p.bytes.data(), p.bounds.data(), p.bounds.size() - 1}));
    }
    cursor = diverged = p.to;
    if (chunker.AtBoundary() && cursor < total_ &&
        KnownBoundary(leaf_depth_, cursor)) {
      close(cursor);
    }
  }
  if (open) FB_RETURN_NOT_OK(feed_old(kToEnd));
  return Status::OK();
}

Status TreeEditor::ChunkIndex(size_t depth,
                              const std::vector<Replacement>& below,
                              std::vector<Replacement>* out) {
  IndexChunker chunker(&writer_, IndexTypeFor(leaf_type_), cfg_);
  bool open = false;
  uint64_t run_start = 0;
  uint64_t cursor = 0;  // element offset of the next old entry to feed

  auto close = [&](uint64_t end) {
    out->push_back(Replacement{run_start, end, std::move(chunker.entries())});
    chunker.entries().clear();
    open = false;
  };
  auto feed_old = [&](uint64_t target) -> Status {
    while (open && cursor < target && cursor < total_) {
      OldNode* node = nullptr;
      FB_RETURN_NOT_OK(Locate(depth, cursor, &node));
      uint64_t pos = node->start;
      size_t i = 0;
      while (pos < cursor && i < node->entries.size()) {
        pos += node->entries[i++].count;
      }
      if (pos != cursor) return Status::Corruption("edit off a child boundary");
      const uint64_t stop = std::min(target, node->end());
      while (pos < stop && i < node->entries.size()) {
        const EntryView& e = node->entries[i++];
        FB_RETURN_NOT_OK(chunker.Append(e.cid, e.count, e.key));
        pos += e.count;
      }
      cursor = pos;
      if (cursor == node->end() && chunker.AtBoundary() && cursor < total_) {
        close(cursor);
      }
    }
    if (open && target == kToEnd) {
      FB_RETURN_NOT_OK(chunker.Finish());
      close(total_);
    }
    return Status::OK();
  };

  for (const Replacement& r : below) {
    if (open) FB_RETURN_NOT_OK(feed_old(r.from));
    if (!open) {
      OldNode* node = nullptr;
      FB_RETURN_NOT_OK(Locate(depth, r.from, &node));
      open = true;
      run_start = cursor = node->start;
      FB_RETURN_NOT_OK(feed_old(r.from));
    }
    for (const Entry& e : r.entries) {
      FB_RETURN_NOT_OK(chunker.Append(e.cid, e.count, Slice(e.key)));
    }
    cursor = r.to;
    if (chunker.AtBoundary() && cursor < total_ &&
        KnownBoundary(depth, cursor)) {
      close(cursor);
    }
  }
  if (open) FB_RETURN_NOT_OK(feed_old(kToEnd));
  return Status::OK();
}

Result<Hash> TreeEditor::ChunkRoot(const std::vector<Replacement>& below) {
  // The old entries one level below the root, or the root leaf itself.
  OldNode& root = levels_[0].begin()->second;
  std::vector<EntryView> old = root.entries;
  if (leaf_depth_ == 0) {
    old.clear();
    if (total_ > 0) {
      const Slice key = IsSortedType(leaf_type_)
                            ? ElementOf(root, root.bounds.size() - 2).key
                            : Slice();
      old.push_back(EntryView{root_, total_, key});
    }
  }
  std::vector<Entry> level;
  uint64_t pos = 0;
  size_t i = 0;
  size_t r = 0;
  while (i < old.size() || r < below.size()) {
    if (r < below.size() && below[r].from == pos) {
      level.insert(level.end(), below[r].entries.begin(),
                   below[r].entries.end());
      while (pos < below[r].to && i < old.size()) pos += old[i++].count;
      if (pos != below[r].to) return Status::Corruption("edit off the root");
      ++r;
      continue;
    }
    if (i >= old.size()) return Status::Corruption("edit past the root");
    level.push_back(Entry{old[i].cid, old[i].count, old[i].key.ToBytes()});
    pos += old[i++].count;
  }

  if (level.size() != 1) {
    return BuildIndexLevels(&writer_, cfg_, leaf_type_, std::move(level));
  }
  // One node left. A build from scratch stops at the lowest level with a
  // single node, so index nodes with one entry above it go away.
  Hash top = level[0].cid;
  if (leaf_depth_ <= 1) return top;
  FB_RETURN_NOT_OK(writer_.Flush());
  for (;;) {
    Chunk chunk;
    FB_RETURN_NOT_OK(store_->Get(top, &chunk));
    if (!IsIndexType(chunk.type())) return top;
    std::vector<EntryView> entries;
    FB_RETURN_NOT_OK(DecodeIndexEntryViews(chunk.payload(), &entries));
    if (entries.size() != 1) return top;
    top = entries[0].cid;
  }
}

// Splices `patch` over the old elements [pos, pos + n_delete).
Result<Hash> Splice(ChunkStore* store, const TreeConfig& cfg,
                    ChunkType leaf_type, const Hash& root, uint64_t pos,
                    uint64_t n_delete, Patch patch) {
  TreeEditor editor(store, cfg, leaf_type, root);
  FB_RETURN_NOT_OK(editor.Open());
  if (pos > editor.total()) return Status::OutOfRange("splice position");
  n_delete = std::min<uint64_t>(n_delete, editor.total() - pos);
  if (n_delete == 0 && patch.bytes.empty()) return root;
  patch.from = pos;
  patch.to = pos + n_delete;
  std::vector<uint64_t> targets{pos};
  if (patch.to > pos && patch.to < editor.total()) targets.push_back(patch.to);
  FB_RETURN_NOT_OK(editor.Prefetch(targets));
  std::vector<Patch> patches;
  patches.push_back(std::move(patch));
  return editor.Apply(patches);
}

// Applies keyed edits (sorted by key, keys unique).
Result<Hash> EditKeys(ChunkStore* store, const TreeConfig& cfg,
                      ChunkType leaf_type, const Hash& root,
                      const std::vector<KeyEdit>& edits, size_t* missing) {
  TreeEditor editor(store, cfg, leaf_type, root);
  FB_RETURN_NOT_OK(editor.Open());
  std::vector<Patch> patches;
  FB_RETURN_NOT_OK(editor.PatchKeys(edits, &patches, missing));
  return editor.Apply(patches);
}

}  // namespace

Status PosTree::SpliceElements(uint64_t pos, uint64_t n_delete,
                               const std::vector<Element>& insert) {
  if (leaf_type_ == ChunkType::kBlob) {
    return Status::InvalidArgument("use SpliceBytes for Blob");
  }
  Patch patch;
  if (!insert.empty()) patch.bounds.push_back(0);
  for (const Element& e : insert) {
    EncodeElement(leaf_type_, Slice(e.key), Slice(e.value), &patch.bytes);
    patch.bounds.push_back(static_cast<uint32_t>(patch.bytes.size()));
  }
  FB_ASSIGN_OR_RETURN(root_, Splice(store_, cfg_, leaf_type_, root_, pos,
                                    n_delete, std::move(patch)));
  return Status::OK();
}

Status PosTree::SpliceBytes(uint64_t pos, uint64_t n_delete, Slice insert) {
  if (leaf_type_ != ChunkType::kBlob) {
    return Status::InvalidArgument("SpliceBytes requires Blob");
  }
  Patch patch;
  patch.bytes = insert.ToBytes();
  FB_ASSIGN_OR_RETURN(root_, Splice(store_, cfg_, leaf_type_, root_, pos,
                                    n_delete, std::move(patch)));
  return Status::OK();
}

Status PosTree::InsertOrAssign(Slice key, Slice value) {
  if (!IsSortedType(leaf_type_)) {
    return Status::InvalidArgument("InsertOrAssign requires a sorted type");
  }
  size_t missing = 0;
  FB_ASSIGN_OR_RETURN(root_, EditKeys(store_, cfg_, leaf_type_, root_,
                                      {KeyEdit{key, value, false}}, &missing));
  return Status::OK();
}

Status PosTree::Erase(Slice key) {
  if (!IsSortedType(leaf_type_)) {
    return Status::InvalidArgument("Erase requires a sorted type");
  }
  size_t missing = 0;
  FB_ASSIGN_OR_RETURN(root_, EditKeys(store_, cfg_, leaf_type_, root_,
                                      {KeyEdit{key, Slice(), true}}, &missing));
  if (missing > 0) return Status::NotFound("key not in tree");
  return Status::OK();
}

Status PosTree::UpsertBatch(std::vector<Element> upserts) {
  if (!IsSortedType(leaf_type_)) {
    return Status::InvalidArgument("UpsertBatch requires a sorted type");
  }
  if (upserts.empty()) return Status::OK();
  // Sort by key; for duplicates the LAST occurrence wins.
  std::stable_sort(upserts.begin(), upserts.end(),
                   [](const Element& a, const Element& b) {
                     return a.key < b.key;
                   });
  std::vector<KeyEdit> edits;
  edits.reserve(upserts.size());
  for (const Element& e : upserts) {
    const KeyEdit edit{Slice(e.key), Slice(e.value), false};
    if (!edits.empty() && edits.back().key == edit.key) {
      edits.back() = edit;
    } else {
      edits.push_back(edit);
    }
  }
  size_t missing = 0;
  FB_ASSIGN_OR_RETURN(root_, EditKeys(store_, cfg_, leaf_type_, root_, edits,
                                      &missing));
  return Status::OK();
}

}  // namespace fb
