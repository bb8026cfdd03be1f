#include "api/db.h"

#include <fcntl.h>
#include <unistd.h>

#include "kvstore/lsm_chunk_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

namespace fb {

namespace {

constexpr char kBranchSnapshotFile[] = "branches.fb";

Result<Bytes> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("open " + path);
  Bytes data;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("read " + path);
  return data;
}

Status WriteFileAtomic(const std::string& path, Slice data) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("open " + tmp);
  const bool wrote =
      data.empty() || std::fwrite(data.data(), 1, data.size(), f) ==
                          data.size();
  // fsync before the rename: the rename replaces the previous good
  // snapshot, so the new bytes must be durable first or a power loss
  // could leave a torn file where a valid snapshot used to be.
  const bool flushed =
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!wrote || !flushed) {
    std::remove(tmp.c_str());
    return Status::IOError("write " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IOError("rename " + tmp + ": " + ec.message());
  // Persist the rename itself: without a directory fsync the new entry
  // may not survive power loss even though the data blocks would.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dfd < 0) return Status::IOError("open dir " + dir);
  const bool synced = ::fsync(dfd) == 0;
  ::close(dfd);
  if (!synced) return Status::IOError("fsync dir " + dir);
  return Status::OK();
}

}  // namespace

ForkBase::ForkBase(DBOptions options)
    : options_(options),
      owned_store_(std::make_unique<MemChunkStore>()),
      store_(owned_store_.get()),
      branches_(options.branch_stripes) {
  InitHotHeadCache();
}

ForkBase::ForkBase(DBOptions options, std::unique_ptr<ChunkStore> store)
    : options_(options),
      owned_store_(std::move(store)),
      store_(owned_store_.get()),
      branches_(options.branch_stripes) {
  InitHotHeadCache();
}

ForkBase::ForkBase(DBOptions options, ChunkStore* store)
    : options_(options), store_(store), branches_(options.branch_stripes) {
  InitHotHeadCache();
}

void ForkBase::InitHotHeadCache() {
  if (options_.hot_head_cache_bytes == 0) return;
  hot_cache_ =
      std::make_unique<HotHeadCache>(options_.hot_head_cache_bytes);
  branches_.set_head_observer(hot_cache_.get());
}

ForkBase::~ForkBase() {
  if (!branch_snapshot_path_.empty()) {
    // Final snapshot so close-and-reopen restores every branch head.
    // Best-effort: a failure leaves the previous on-disk snapshot intact.
    (void)PersistBranchState();
  }
  // The cache is destroyed before branches_ would stop referencing it.
  branches_.set_head_observer(nullptr);
}

Result<std::unique_ptr<ForkBase>> ForkBase::OpenPersistent(
    const std::string& dir, DBOptions options) {
  return OpenPersistent(dir, options, nullptr);
}

Result<std::unique_ptr<ForkBase>> ForkBase::OpenPersistent(
    const std::string& dir, DBOptions options, const StoreWrapper& wrap) {
  std::unique_ptr<ChunkStore> store;
  switch (options.store_backend) {
    case StoreBackend::kLog: {
      LogStoreOptions log_options;
      log_options.durability = options.durability;
      log_options.block_cache_bytes = options.block_cache_bytes;
      FB_ASSIGN_OR_RETURN(std::unique_ptr<LogChunkStore> log_store,
                          LogChunkStore::Open(dir, log_options));
      store = std::move(log_store);
      break;
    }
    case StoreBackend::kLsm: {
      LsmChunkStoreOptions lsm_options;
      lsm_options.durability = options.durability;
      lsm_options.block_cache_bytes = options.block_cache_bytes;
      FB_ASSIGN_OR_RETURN(std::unique_ptr<LsmChunkStore> lsm_store,
                          LsmChunkStore::Open(dir, lsm_options));
      store = std::move(lsm_store);
      break;
    }
    case StoreBackend::kMem:
      // Volatile chunks; the branch snapshot still round-trips, restore
      // simply drops every key whose head no longer verifies.
      store = std::make_unique<MemChunkStore>();
      break;
  }
  if (store == nullptr) {
    return Status::InvalidArgument("unknown store backend");
  }
  if (wrap != nullptr) {
    store = wrap(std::move(store));
    if (store == nullptr) {
      return Status::InvalidArgument("store wrapper returned null");
    }
  }
  auto db = std::make_unique<ForkBase>(options, std::move(store));

  const std::string snapshot_path =
      (std::filesystem::path(dir) / kBranchSnapshotFile).string();
  if (std::filesystem::exists(snapshot_path)) {
    auto snapshot = ReadFileBytes(snapshot_path);
    // Lenient import: every head is verified against the recovered log,
    // and a key whose head was lost to a torn tail (or a flipped byte)
    // is dropped individually — the rest of the branch view still
    // restores. An undecodable snapshot is discarded wholesale rather
    // than bricking the open; the chunks themselves remain intact.
    if (snapshot.ok()) {
      (void)db->branches_.ImportState(
          Slice(*snapshot),
          [&db](const Hash& head) -> Status {
            FB_ASSIGN_OR_RETURN(FObject obj, FObject::Load(*db->store_, head));
            (void)obj;
            return Status::OK();
          },
          /*lenient=*/true);
    }
  }
  db->branch_snapshot_path_ = snapshot_path;
  return db;
}

Status ForkBase::PersistBranchState() {
  if (branch_snapshot_path_.empty()) return Status::OK();
  // Serialize snapshots; Export itself is a consistent point-in-time
  // view (it locks all stripes), the mutex only orders the file writes.
  MutexLock lock(snapshot_mu_);
  FB_ASSIGN_OR_RETURN(Bytes state, ExportBranchState());
  FB_RETURN_NOT_OK(WriteFileAtomic(branch_snapshot_path_, Slice(state)));
  // Reset only after the snapshot is durable: a failed write (disk
  // full) leaves the counter above threshold, so the next mutation
  // retries instead of waiting out another full cadence window.
  mutations_since_snapshot_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

void ForkBase::NoteBranchMutations(uint64_t n) {
  if (branch_snapshot_path_.empty() || options_.branch_snapshot_every == 0) {
    return;
  }
  const uint64_t count = mutations_since_snapshot_.fetch_add(
                             n, std::memory_order_relaxed) +
                         n;
  if (count >= options_.branch_snapshot_every) {
    if (!PersistBranchState().ok()) {
      // Back off: the counter stays above threshold on failure, so
      // without re-arming every subsequent commit would re-export the
      // whole branch view. Retry after another half cadence instead.
      mutations_since_snapshot_.store(options_.branch_snapshot_every / 2,
                                      std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------
// Factories / handles
// ---------------------------------------------------------------------------

Result<Blob> ForkBase::CreateBlob(Slice content) {
  return Blob::Create(store_, options_.tree, content);
}

Result<FList> ForkBase::CreateList(const std::vector<Bytes>& elements) {
  return FList::Create(store_, options_.tree, elements);
}

Result<FMap> ForkBase::CreateMap() {
  return FMap::Create(store_, options_.tree);
}

Result<FMap> ForkBase::CreateMapFromEntries(
    std::vector<std::pair<Bytes, Bytes>> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Element> elems;
  elems.reserve(entries.size());
  for (auto& [k, v] : entries) {
    Element e;
    e.key = std::move(k);
    e.value = std::move(v);
    elems.push_back(std::move(e));
  }
  FB_ASSIGN_OR_RETURN(
      Hash root,
      PosTree::BuildFromElements(store_, options_.tree, ChunkType::kMap,
                                 elems));
  return FMap(store_, options_.tree, root);
}

Result<FSet> ForkBase::CreateSet() {
  return FSet::Create(store_, options_.tree);
}

Result<Blob> ForkBase::GetBlob(const FObject& obj) const {
  if (obj.type() != UType::kBlob) {
    return Status::TypeMismatch("object is " +
                                std::string(UTypeToString(obj.type())));
  }
  return Blob(store_, options_.tree, obj.value().root());
}

Result<FList> ForkBase::GetList(const FObject& obj) const {
  if (obj.type() != UType::kList) {
    return Status::TypeMismatch("object is " +
                                std::string(UTypeToString(obj.type())));
  }
  return FList(store_, options_.tree, obj.value().root());
}

Result<FMap> ForkBase::GetMap(const FObject& obj) const {
  if (obj.type() != UType::kMap) {
    return Status::TypeMismatch("object is " +
                                std::string(UTypeToString(obj.type())));
  }
  return FMap(store_, options_.tree, obj.value().root());
}

Result<FSet> ForkBase::GetSet(const FObject& obj) const {
  if (obj.type() != UType::kSet) {
    return Status::TypeMismatch("object is " +
                                std::string(UTypeToString(obj.type())));
  }
  return FSet(store_, options_.tree, obj.value().root());
}

PosTree ForkBase::TreeOf(const FObject& obj) const {
  return PosTree(store_, options_.tree, LeafChunkTypeFor(obj.type()),
                 obj.value().root());
}

// ---------------------------------------------------------------------------
// Get
// ---------------------------------------------------------------------------

Result<FObject> ForkBase::Get(const std::string& key,
                              const std::string& branch) {
  FB_ASSIGN_OR_RETURN(Hash head, branches_.Head(key, branch));
  return FObject::Load(*store_, head);
}

Result<FObject> ForkBase::GetByUid(const Hash& uid) const {
  return FObject::Load(*store_, uid);
}

Result<Hash> ForkBase::Head(const std::string& key,
                            const std::string& branch) {
  return branches_.Head(key, branch);
}

Result<Hash> ForkBase::ResolveReadHead(const std::string& key,
                                       const std::string& branch) const {
  if (!branch.empty()) return branches_.Head(key, branch);
  // Empty branch: the sole untagged (fork-on-conflict) head — the
  // "latest version" of a key maintained purely through PutByBase.
  FB_ASSIGN_OR_RETURN(std::vector<Hash> heads,
                      branches_.UntaggedBranches(key));
  if (heads.empty()) return Status::NotFound("no untagged head");
  if (heads.size() > 1) {
    return Status::Conflict("key '" + key + "' has " +
                            std::to_string(heads.size()) + " untagged heads");
  }
  return heads[0];
}

bool ForkBase::ReadHotHead(const std::string& key, const std::string& branch,
                           const Hash& head, ValueReadout* out,
                           bool count_miss, uint64_t max_bytes) {
  if (hot_cache_ == nullptr) return false;
  // The entry is served only when its uid equals the head the caller
  // resolved, so a stale value can never be observed even if an
  // invalidation is still in flight.
  HotHeadCache::Entry entry;
  if (!hot_cache_->Lookup(key, branch, head, &entry, count_miss, max_bytes)) {
    return false;
  }
  Chunk meta;
  if (!Chunk::Deserialize(Slice(entry.meta), &meta)) return false;
  auto obj = FObject::FromChunk(meta);
  // Undecodable entry (cannot happen without memory corruption): the
  // caller falls through to the authoritative tree read.
  if (!obj.ok()) return false;
  out->object = std::move(*obj);
  out->has_value = entry.has_value;
  out->value = std::move(entry.value);
  return true;
}

bool ForkBase::GetCachedValue(const std::string& key,
                              const std::string& branch, uint64_t max_bytes,
                              ValueReadout* out) {
  if (hot_cache_ == nullptr) return false;
  Result<Hash> head = ResolveReadHead(key, branch);
  return head.ok() && ReadHotHead(key, branch, *head, out,
                                  /*count_miss=*/false, max_bytes);
}

Result<ValueReadout> ForkBase::GetValue(const std::string& key,
                                        const std::string& branch) {
  FB_ASSIGN_OR_RETURN(Hash head, ResolveReadHead(key, branch));
  ValueReadout out;
  if (ReadHotHead(key, branch, head, &out, /*count_miss=*/true,
                  /*max_bytes=*/UINT64_MAX)) {
    return out;
  }

  FB_ASSIGN_OR_RETURN(FObject obj, FObject::Load(*store_, head));
  if (!IsChunkable(obj.type())) {
    out.has_value = true;
    out.value = obj.value().bytes().ToBytes();
  } else if (obj.type() == UType::kBlob) {
    Blob blob(store_, options_.tree, obj.value().root());
    FB_ASSIGN_OR_RETURN(out.value, blob.ReadAll());
    out.has_value = true;
  }
  if (hot_cache_ != nullptr) {
    HotHeadCache::Entry entry;
    entry.uid = head;
    entry.meta = obj.ToChunk().Serialize();
    entry.has_value = out.has_value;
    entry.value = out.value;
    hot_cache_->Insert(key, branch, std::move(entry));
  }
  out.object = std::move(obj);
  return out;
}

HotHeadCacheStats ForkBase::hot_head_stats() const {
  return hot_cache_ != nullptr ? hot_cache_->stats() : HotHeadCacheStats{};
}

// ---------------------------------------------------------------------------
// Put
// ---------------------------------------------------------------------------

Result<Hash> ForkBase::CommitObject(const std::string& key, const Value& value,
                                    std::vector<Hash> bases, Slice context) {
  uint64_t depth = 0;
  for (const Hash& base : bases) {
    FB_ASSIGN_OR_RETURN(FObject parent, FObject::Load(*store_, base));
    depth = std::max(depth, parent.depth() + 1);
  }
  const FObject obj =
      FObject::Make(Slice(key), value, std::move(bases), depth, context);
  return obj.Store(store_);
}

Result<Hash> ForkBase::Put(const std::string& key, const std::string& branch,
                           const Value& value, Slice context) {
  std::vector<Hash> bases;
  const Hash head = branches_.HeadOrNull(key, branch);
  if (!head.IsNull()) bases.push_back(head);
  FB_ASSIGN_OR_RETURN(Hash uid,
                      CommitObject(key, value, std::move(bases), context));
  FB_RETURN_NOT_OK(branches_.SetHead(key, branch, uid));
  NoteBranchMutations(1);
  FB_RETURN_NOT_OK(CommitBarrier());
  return uid;
}

Result<Hash> ForkBase::PutGuarded(const std::string& key,
                                  const std::string& branch,
                                  const Value& value, const Hash& guard_uid,
                                  Slice context) {
  // Check the guard before doing the (possibly expensive) commit; the
  // authoritative re-check happens atomically in the guarded SetHead.
  FB_RETURN_NOT_OK(branches_.CheckGuard(key, branch, guard_uid));
  std::vector<Hash> bases;
  if (!guard_uid.IsNull()) bases.push_back(guard_uid);
  FB_ASSIGN_OR_RETURN(Hash uid,
                      CommitObject(key, value, std::move(bases), context));
  FB_RETURN_NOT_OK(branches_.SetHead(key, branch, uid, &guard_uid));
  NoteBranchMutations(1);
  FB_RETURN_NOT_OK(CommitBarrier());
  return uid;
}

Result<std::vector<Hash>> ForkBase::PutMany(
    const std::vector<std::pair<std::string, Value>>& kvs,
    const std::string& branch, Slice context) {
  // Snapshot every pair's base head taking each stripe lock once,
  // batch-load all distinct base metas to compute depths, build every
  // Meta chunk, write them with one batched store call, then swing all
  // heads (again one lock acquisition per stripe).
  std::vector<std::string> keys;
  keys.reserve(kvs.size());
  for (const auto& [k, v] : kvs) keys.push_back(k);
  const std::vector<Hash> base_of = branches_.SnapshotHeads(keys, branch);

  std::unordered_map<Hash, uint64_t, HashHasher> depth_of;
  std::vector<Hash> base_cids;
  for (const Hash& base : base_of) {
    if (!base.IsNull() && depth_of.emplace(base, 0).second) {
      base_cids.push_back(base);
    }
  }
  if (!base_cids.empty()) {
    std::vector<Chunk> base_chunks;
    FB_RETURN_NOT_OK(store_->GetBatch(base_cids, &base_chunks));
    for (size_t i = 0; i < base_cids.size(); ++i) {
      if (base_chunks[i].ComputeCid() != base_cids[i]) {
        return Status::Corruption("uid mismatch (tampered meta chunk) " +
                                  base_cids[i].ToShortHex());
      }
      FB_ASSIGN_OR_RETURN(FObject parent,
                          FObject::FromChunk(base_chunks[i]));
      depth_of[base_cids[i]] = parent.depth();
    }
  }

  std::vector<Hash> uids;
  uids.reserve(kvs.size());
  ChunkBatch metas;
  metas.reserve(kvs.size());
  for (size_t i = 0; i < kvs.size(); ++i) {
    std::vector<Hash> bases;
    uint64_t depth = 0;
    if (!base_of[i].IsNull()) {
      bases.push_back(base_of[i]);
      depth = depth_of[base_of[i]] + 1;
    }
    const FObject obj = FObject::Make(Slice(kvs[i].first), kvs[i].second,
                                      std::move(bases), depth, context);
    Chunk meta = obj.ToChunk();
    const Hash uid = meta.ComputeCid();
    metas.emplace_back(uid, std::move(meta));
    uids.push_back(uid);
  }
  FB_RETURN_NOT_OK(store_->PutBatch(metas));
  FB_RETURN_NOT_OK(branches_.SetHeads(keys, branch, uids));
  NoteBranchMutations(uids.size());
  FB_RETURN_NOT_OK(CommitBarrier());
  return uids;
}

Result<Hash> ForkBase::PutByBase(const std::string& key, const Hash& base_uid,
                                 const Value& value, Slice context) {
  std::vector<Hash> bases;
  if (!base_uid.IsNull()) {
    // The base must exist (and is verified against its uid on load).
    FB_ASSIGN_OR_RETURN(FObject base, FObject::Load(*store_, base_uid));
    (void)base;
    bases.push_back(base_uid);
  }
  FB_ASSIGN_OR_RETURN(Hash uid,
                      CommitObject(key, value, std::move(bases), context));
  FB_RETURN_NOT_OK(branches_.AddUntagged(key, uid, base_uid));
  NoteBranchMutations(1);
  FB_RETURN_NOT_OK(CommitBarrier());
  return uid;
}

// ---------------------------------------------------------------------------
// View
// ---------------------------------------------------------------------------

std::vector<std::string> ForkBase::ListKeys() const {
  return branches_.Keys();
}

Result<std::vector<std::pair<std::string, Hash>>> ForkBase::ListTaggedBranches(
    const std::string& key) const {
  return branches_.TaggedBranches(key);
}

Result<std::vector<Hash>> ForkBase::ListUntaggedBranches(
    const std::string& key) const {
  return branches_.UntaggedBranches(key);
}

// ---------------------------------------------------------------------------
// Fork / branch management
// ---------------------------------------------------------------------------

Status ForkBase::Fork(const std::string& key, const std::string& ref_branch,
                      const std::string& new_branch) {
  FB_RETURN_NOT_OK(branches_.Fork(key, ref_branch, new_branch));
  NoteBranchMutations(1);
  return CommitBarrier();
}

Status ForkBase::ForkFromUid(const std::string& key, const Hash& ref_uid,
                             const std::string& new_branch) {
  // Verify the version exists and belongs to this key.
  FB_ASSIGN_OR_RETURN(FObject obj, FObject::Load(*store_, ref_uid));
  if (obj.key() != key) {
    return Status::InvalidArgument("uid belongs to key '" + obj.key() + "'");
  }
  FB_RETURN_NOT_OK(branches_.CreateBranchAt(key, ref_uid, new_branch));
  NoteBranchMutations(1);
  return CommitBarrier();
}

Status ForkBase::Rename(const std::string& key, const std::string& tgt_branch,
                        const std::string& new_branch) {
  FB_RETURN_NOT_OK(branches_.Rename(key, tgt_branch, new_branch));
  NoteBranchMutations(1);
  return CommitBarrier();
}

Status ForkBase::Remove(const std::string& key,
                        const std::string& tgt_branch) {
  FB_RETURN_NOT_OK(branches_.Remove(key, tgt_branch));
  NoteBranchMutations(1);
  return CommitBarrier();
}

// ---------------------------------------------------------------------------
// Track / LCA
// ---------------------------------------------------------------------------

Result<std::vector<FObject>> ForkBase::Track(const std::string& key,
                                             const std::string& branch,
                                             uint64_t min_dist,
                                             uint64_t max_dist) {
  FB_ASSIGN_OR_RETURN(Hash head, Head(key, branch));
  return TrackHistory(*store_, head, min_dist, max_dist);
}

Result<std::vector<FObject>> ForkBase::TrackFromUid(const Hash& uid,
                                                    uint64_t min_dist,
                                                    uint64_t max_dist) const {
  return TrackHistory(*store_, uid, min_dist, max_dist);
}

Result<Hash> ForkBase::Lca(const std::string& key, const Hash& uid1,
                           const Hash& uid2) const {
  (void)key;  // uids are globally unique; the key is kept for API parity
  return FindLca(*store_, uid1, uid2);
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

Result<Value> ForkBase::MergeValues(const FObject& left, const FObject& right,
                                    const Hash& lca_uid,
                                    const ConflictResolver& resolver,
                                    std::vector<MergeConflict>* unresolved)
    const {
  if (left.type() != right.type()) {
    return Status::TypeMismatch("cannot merge " +
                                std::string(UTypeToString(left.type())) +
                                " with " + UTypeToString(right.type()));
  }

  // Resolve the base value: LCA object, or an empty value of the same
  // type when histories are unrelated.
  Value base_value;
  bool has_base = false;
  if (!lca_uid.IsNull()) {
    FB_ASSIGN_OR_RETURN(FObject base, FObject::Load(*store_, lca_uid));
    if (base.type() == left.type()) {
      base_value = base.value();
      has_base = true;
    }
  }

  if (!left.value().is_chunkable()) {
    // Primitive three-way merge.
    const Bytes lb = left.value().bytes().ToBytes();
    const Bytes rb = right.value().bytes().ToBytes();
    const Bytes bb = has_base ? base_value.bytes().ToBytes() : Bytes{};
    if (lb == rb || rb == bb) return left.value();
    if (lb == bb) return right.value();
    MergeConflict c;
    c.base = has_base ? std::optional<Bytes>(bb) : std::nullopt;
    c.left = lb;
    c.right = rb;
    if (resolver) {
      FB_ASSIGN_OR_RETURN(std::optional<Bytes> resolved, resolver(c));
      Bytes out = resolved.value_or(Bytes{});
      switch (left.type()) {
        case UType::kBool:
          return Value::OfBool(!out.empty() && out[0] != 0);
        case UType::kInt: {
          ByteReader r{Slice(out)};
          uint64_t raw = 0;
          FB_RETURN_NOT_OK(r.ReadVarint64(&raw));
          return Value::OfInt(ZigZagDecode(raw));
        }
        case UType::kString:
          return Value::OfString(Slice(out));
        case UType::kTuple: {
          Value v = Value::OfString(Slice(out));
          // Re-wrap raw bytes as a tuple encoding.
          std::vector<Bytes> fields;
          ByteReader r{Slice(out)};
          while (!r.AtEnd()) {
            Slice f;
            FB_RETURN_NOT_OK(r.ReadLengthPrefixed(&f));
            fields.push_back(f.ToBytes());
          }
          return Value::OfTuple(fields);
        }
        default:
          return Status::Internal("unreachable");
      }
    }
    unresolved->push_back(std::move(c));
    return left.value();
  }

  // Chunkable three-way merge over POS-Trees.
  const ChunkType leaf = LeafChunkTypeFor(left.type());
  Hash base_root;
  if (has_base) {
    base_root = base_value.root();
  } else {
    FB_ASSIGN_OR_RETURN(base_root, PosTree::EmptyRoot(store_, leaf));
  }
  const PosTree base_t(store_, options_.tree, leaf, base_root);
  const PosTree left_t(store_, options_.tree, leaf, left.value().root());
  const PosTree right_t(store_, options_.tree, leaf, right.value().root());

  MergeResult mr;
  switch (left.type()) {
    case UType::kMap:
    case UType::kSet: {
      FB_ASSIGN_OR_RETURN(mr, MergeSorted(base_t, left_t, right_t));
      break;
    }
    case UType::kBlob: {
      FB_ASSIGN_OR_RETURN(mr, MergeBytes(base_t, left_t, right_t));
      break;
    }
    case UType::kList: {
      FB_ASSIGN_OR_RETURN(mr, MergeList(base_t, left_t, right_t));
      break;
    }
    default:
      return Status::Internal("unreachable");
  }

  if (!mr.clean() && resolver && IsSortedType(leaf)) {
    // Patch resolved keys on top of the partial merge.
    PosTree patched(store_, options_.tree, leaf, mr.root);
    for (const MergeConflict& c : mr.conflicts) {
      FB_ASSIGN_OR_RETURN(std::optional<Bytes> resolved, resolver(c));
      if (resolved.has_value()) {
        FB_RETURN_NOT_OK(patched.InsertOrAssign(Slice(c.key),
                                                Slice(*resolved)));
      } else {
        Status s = patched.Erase(Slice(c.key));
        if (!s.ok() && !s.IsNotFound()) return s;
      }
    }
    return Value::OfTree(left.type(), patched.root());
  }
  if (!mr.clean()) {
    unresolved->insert(unresolved->end(), mr.conflicts.begin(),
                       mr.conflicts.end());
  }
  return Value::OfTree(left.type(), mr.root);
}

Result<ForkBase::MergeOutcome> ForkBase::MergeHeads(
    const std::string& key, const Hash& v1, const Hash& v2,
    const ConflictResolver& resolver, Slice context, std::vector<Hash> bases) {
  FB_ASSIGN_OR_RETURN(FObject left, FObject::Load(*store_, v1));
  FB_ASSIGN_OR_RETURN(FObject right, FObject::Load(*store_, v2));
  FB_ASSIGN_OR_RETURN(Hash lca, FindLca(*store_, v1, v2));

  MergeOutcome outcome;
  FB_ASSIGN_OR_RETURN(
      Value merged, MergeValues(left, right, lca, resolver,
                                &outcome.unresolved));
  if (!outcome.clean()) return outcome;

  FB_ASSIGN_OR_RETURN(outcome.uid,
                      CommitObject(key, merged, std::move(bases), context));
  return outcome;
}

Result<ForkBase::MergeOutcome> ForkBase::Merge(const std::string& key,
                                               const std::string& tgt_branch,
                                               const std::string& ref_branch,
                                               const ConflictResolver& resolver,
                                               Slice context) {
  FB_ASSIGN_OR_RETURN(Hash ref_head, Head(key, ref_branch));
  return MergeWithUid(key, tgt_branch, ref_head, resolver, context);
}

Result<ForkBase::MergeOutcome> ForkBase::MergeWithUid(
    const std::string& key, const std::string& tgt_branch, const Hash& ref_uid,
    const ConflictResolver& resolver, Slice context) {
  FB_ASSIGN_OR_RETURN(Hash tgt_head, Head(key, tgt_branch));
  FB_ASSIGN_OR_RETURN(
      MergeOutcome outcome,
      MergeHeads(key, tgt_head, ref_uid, resolver, context,
                 {tgt_head, ref_uid}));
  if (!outcome.clean()) return outcome;
  FB_RETURN_NOT_OK(branches_.SetHead(key, tgt_branch, outcome.uid));
  NoteBranchMutations(1);
  FB_RETURN_NOT_OK(CommitBarrier());
  return outcome;
}

Result<ForkBase::MergeOutcome> ForkBase::MergeUids(
    const std::string& key, const std::vector<Hash>& uids,
    const ConflictResolver& resolver, Slice context) {
  if (uids.size() < 2) {
    return Status::InvalidArgument("MergeUids needs at least two versions");
  }
  Hash acc = uids[0];
  MergeOutcome outcome;
  for (size_t i = 1; i < uids.size(); ++i) {
    FB_ASSIGN_OR_RETURN(outcome, MergeHeads(key, acc, uids[i], resolver,
                                            context, {acc, uids[i]}));
    if (!outcome.clean()) return outcome;
    acc = outcome.uid;
  }
  FB_RETURN_NOT_OK(branches_.ReplaceUntagged(key, uids, acc));
  NoteBranchMutations(1);
  FB_RETURN_NOT_OK(CommitBarrier());
  outcome.uid = acc;
  return outcome;
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

Result<Bytes> ForkBase::ExportBranchState() const {
  return branches_.ExportState();
}

Status ForkBase::ImportBranchState(Slice data) {
  // Verify every head still resolves to a valid object in the store
  // (tamper-evident restore).
  FB_RETURN_NOT_OK(
      branches_.ImportState(data, [this](const Hash& head) -> Status {
        FB_ASSIGN_OR_RETURN(FObject obj, FObject::Load(*store_, head));
        (void)obj;
        return Status::OK();
      }));
  return CommitBarrier();
}

Status ForkBase::ApplyBranchMutation(const BranchMutation& m) {
  switch (m.kind) {
    case BranchMutation::Kind::kSetHead:
      return branches_.SetHead(m.key, m.branch, m.head);
    case BranchMutation::Kind::kRemoveBranch:
      return branches_.Remove(m.key, m.branch);
    case BranchMutation::Kind::kRenameBranch:
      return branches_.Rename(m.key, m.branch, m.new_branch);
    case BranchMutation::Kind::kAddUntagged:
      return branches_.AddUntagged(m.key, m.head, m.base);
    case BranchMutation::Kind::kReplaceUntagged:
      return branches_.ReplaceUntagged(m.key, m.old_heads, m.head);
    case BranchMutation::Kind::kImportAll:
      // Unverified install: the record carries the leader's exported view
      // verbatim, and chunks it references stream lazily through the
      // peer-fetch path — verifying here would force-fetch all of them.
      return branches_.ImportState(Slice(m.state));
  }
  return Status::InvalidArgument("unknown branch mutation kind");
}

Result<std::vector<KeyDiff>> ForkBase::DiffSortedVersions(
    const Hash& uid1, const Hash& uid2) const {
  FB_ASSIGN_OR_RETURN(FObject a, FObject::Load(*store_, uid1));
  FB_ASSIGN_OR_RETURN(FObject b, FObject::Load(*store_, uid2));
  if (a.type() != b.type() ||
      (a.type() != UType::kMap && a.type() != UType::kSet)) {
    return Status::TypeMismatch("DiffSortedVersions requires two Map or two "
                                "Set versions");
  }
  return DiffSorted(TreeOf(a), TreeOf(b));
}

Result<RangeDiff> ForkBase::DiffBlobVersions(const Hash& uid1,
                                             const Hash& uid2) const {
  FB_ASSIGN_OR_RETURN(FObject a, FObject::Load(*store_, uid1));
  FB_ASSIGN_OR_RETURN(FObject b, FObject::Load(*store_, uid2));
  if (a.type() != UType::kBlob || b.type() != UType::kBlob) {
    return Status::TypeMismatch("DiffBlobVersions requires two Blob versions");
  }
  return DiffBytes(TreeOf(a), TreeOf(b));
}

}  // namespace fb
