// ForkBase: the storage-engine core (Table 1, M1-M17).
//
// This class is the embedded, single-servlet engine. Most callers should
// program against the ForkBaseService facade (api/service.h) instead: it
// exposes the same M1-M17 surface as a typed Command/Reply API served
// either by this engine in-process (EmbeddedService) or by a cluster of
// servlets behind a dispatcher (ClusterClient, src/cluster/client.h),
// so application code is deployment-agnostic. Use ForkBase directly only
// when embedding the engine itself (servlets, custom merge resolvers,
// branch-state export/import).
//
// Usage mirrors Figure 4 of the paper:
//
//   ForkBase db;
//   auto blob = db.CreateBlob("my value");
//   db.Put("my key", blob->ToValue());
//   db.Fork("my key", "master", "new branch");
//   auto obj = db.Get("my key", "new branch");
//   auto b = db.GetBlob(*obj);
//   b->Remove(0, 10);
//   b->Append("some more");
//   db.Put("my key", "new branch", b->ToValue());

#ifndef FORKBASE_API_DB_H_
#define FORKBASE_API_DB_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/hot_head_cache.h"
#include "api/merge_resolver.h"
#include "branch/branch_manager.h"
#include "branch/history.h"
#include "chunk/chunk_store.h"
#include "pos_tree/diff.h"
#include "types/fobject.h"
#include "types/handles.h"
#include "util/mutex.h"

namespace fb {

// Physical chunk-store backend opened by OpenPersistent.
enum class StoreBackend : uint8_t {
  kLog = 0,  // append-only segmented log (LogChunkStore)
  kLsm = 1,  // log-structured merge store (LsmChunkStore)
  kMem = 2,  // in-memory (MemChunkStore); chunks are NOT durable, but the
             // API (including branch-state snapshots) behaves identically
};

struct DBOptions {
  TreeConfig tree;
  // Stripe count of the BranchManager (key -> stripe): commits on keys
  // that hash to different stripes never contend. 1 reproduces the
  // paper's fully-serialized servlet.
  size_t branch_stripes = BranchManager::kDefaultStripes;
  // Fsync policy applied when the engine opens its own LogChunkStore
  // (OpenPersistent); see DurabilityPolicy in chunk/chunk_store.h.
  DurabilityPolicy durability = DurabilityPolicy::kBatch;
  // OpenPersistent snapshots the branch tables (ExportBranchState) next
  // to the chunk log after every N branch mutations, and always on
  // close, so a reopened store restores the full branch view without the
  // embedding lifting a finger. 0 = snapshot only on close. Each
  // snapshot serializes the whole branch view (all stripes locked) and
  // rewrites the file, so the cadence trades crash-window size against
  // bulk-load throughput; raise it (or set 0) for large ingests.
  uint64_t branch_snapshot_every = 4096;
  // Physical store OpenPersistent roots at `dir` (embedded constructors
  // over a caller-supplied store ignore this). The compile-time default
  // is overridable (-DFORKBASE_DEFAULT_STORE_BACKEND=kLsm) so CI can run
  // the whole suite's persistent paths against another engine.
#ifndef FORKBASE_DEFAULT_STORE_BACKEND
#define FORKBASE_DEFAULT_STORE_BACKEND kLog
#endif
  StoreBackend store_backend = StoreBackend::FORKBASE_DEFAULT_STORE_BACKEND;
  // Byte budget of the admission-policy block cache fronting disk reads
  // in the log and LSM backends (0 disables). Chunks are immutable, so
  // the cache never affects visible behavior, only read cost.
  uint64_t block_cache_bytes = 32ull << 20;
  // Byte budget of the hot-head materialized value cache (0 disables):
  // GetValue on a cached head serves the decoded value without touching
  // the POS-tree. Entries are uid-guarded, so a served value always
  // matches the branch head resolved in the same call.
  uint64_t hot_head_cache_bytes = 8ull << 20;
};

// Engine-side half of the replication contract (src/replication/ owns
// the other half). Under DurabilityPolicy::kQuorum the engine calls
// WaitCommitDurable after every successful branch mutation, and the hook
// blocks until the log records that mutation produced are acked by a
// majority of the replica group (or fails with Unavailable on timeout /
// leadership loss — the local commit stands either way, it is the
// durability promise that failed).
class ReplicationCommitHook {
 public:
  virtual ~ReplicationCommitHook() = default;
  virtual Status WaitCommitDurable() = 0;
};

// The product of GetValue (M1 + materialization): the head object plus —
// when the type materializes (primitives and Blob) — its decoded value
// bytes. Map/Set/List readouts carry only the object; callers fall back
// to handle traversal.
struct ValueReadout {
  FObject object;
  bool has_value = false;
  Bytes value;
};

class ForkBase {
 public:
  // Embedded engine over an in-memory chunk store.
  explicit ForkBase(DBOptions options = {});
  // Embedded engine over a caller-supplied store (e.g. LogChunkStore for
  // persistence, or a servlet-local store in the cluster).
  ForkBase(DBOptions options, std::unique_ptr<ChunkStore> store);
  // Engine over an external, shared store (not owned). Used by servlets
  // whose chunks live in the cluster-wide pool.
  ForkBase(DBOptions options, ChunkStore* store);

  // Durable embedded engine: opens (creating if necessary) a
  // LogChunkStore at `dir` with the options' durability policy, restores
  // the last branch-state snapshot ("<dir>/branches.fb") if one exists,
  // and keeps snapshotting on the options' cadence and on destruction.
  // Restore is per-key lenient: a key whose snapshotted head no longer
  // verifies against the (possibly torn-tail-truncated) log is dropped,
  // the rest of the branch view restores, and the chunks stay intact.
  // An undecodable snapshot is discarded wholesale (empty branch view,
  // the pre-snapshot behavior).
  static Result<std::unique_ptr<ForkBase>> OpenPersistent(
      const std::string& dir, DBOptions options = {});

  // Interposes a caller-supplied view between the engine and the opened
  // LogChunkStore: the wrapper receives ownership of the base store and
  // returns the store the engine will use (e.g. a peer-resolving
  // ServletChunkStore in a `forkbased --peers` servlet). Branch-state
  // restore runs through the wrapped store.
  using StoreWrapper =
      std::function<std::unique_ptr<ChunkStore>(std::unique_ptr<ChunkStore>)>;
  static Result<std::unique_ptr<ForkBase>> OpenPersistent(
      const std::string& dir, DBOptions options, const StoreWrapper& wrap);

  ForkBase(const ForkBase&) = delete;
  ForkBase& operator=(const ForkBase&) = delete;

  // Flushes a final branch-state snapshot when persistence is enabled.
  ~ForkBase();

  ChunkStore* store() const { return store_; }
  const TreeConfig& tree_config() const { return options_.tree; }

  // --- Value factories ----------------------------------------------------

  Result<Blob> CreateBlob(Slice content);
  Result<FList> CreateList(const std::vector<Bytes>& elements);
  Result<FMap> CreateMap();
  // Bulk-builds a Map in one chunking pass (entries are sorted by key
  // internally). Equivalent to, but much faster than, repeated Set calls.
  Result<FMap> CreateMapFromEntries(
      std::vector<std::pair<Bytes, Bytes>> entries);
  Result<FSet> CreateSet();

  // Handle re-materialization from a fetched object (type-checked).
  Result<Blob> GetBlob(const FObject& obj) const;
  Result<FList> GetList(const FObject& obj) const;
  Result<FMap> GetMap(const FObject& obj) const;
  Result<FSet> GetSet(const FObject& obj) const;

  // --- Get (M1, M2) ---------------------------------------------------------

  Result<FObject> Get(const std::string& key) {
    return Get(key, kDefaultBranch);
  }
  Result<FObject> Get(const std::string& key, const std::string& branch);
  Result<FObject> GetByUid(const Hash& uid) const;

  // Head read with value materialization: like Get, but also decodes the
  // value (primitives inline, Blob contents in full) so hot heads serve
  // from the uid-guarded HotHeadCache without any POS-tree traversal.
  // An empty `branch` addresses the key's sole untagged
  // (fork-on-conflict) head — NotFound when there is none, Conflict when
  // several coexist.
  Result<ValueReadout> GetValue(const std::string& key,
                                const std::string& branch = kDefaultBranch);

  // Cache-only GetValue: true with *out filled when the hot-head cache
  // holds (key, branch)'s current head and its meta + value bytes are at
  // most max_bytes, false otherwise. Reads the branch tables and the
  // cache, never the chunk store, so a thread that must not wait on I/O
  // (the RPC server's event loop) may call it. A miss is left for the
  // GetValue that follows to count.
  bool GetCachedValue(const std::string& key, const std::string& branch,
                      uint64_t max_bytes, ValueReadout* out);

  // Counters of the hot-head cache (zeroed stats when disabled).
  HotHeadCacheStats hot_head_stats() const;

  // Head uid of a branch without fetching the object.
  Result<Hash> Head(const std::string& key, const std::string& branch);

  // --- Put (M3, M4) ---------------------------------------------------------

  // Fork-on-demand Put: appends to the branch head (creating key/branch
  // on first use). Returns the new uid.
  Result<Hash> Put(const std::string& key, const Value& value,
                   Slice context = Slice()) {
    return Put(key, kDefaultBranch, value, context);
  }
  Result<Hash> Put(const std::string& key, const std::string& branch,
                   const Value& value, Slice context = Slice());

  // Guarded Put: succeeds only if the current head equals `guard_uid`
  // (protects against overwriting others' changes by accident).
  Result<Hash> PutGuarded(const std::string& key, const std::string& branch,
                          const Value& value, const Hash& guard_uid,
                          Slice context = Slice());

  // Fork-on-conflict Put (M4): derives from an explicit base version.
  // Concurrent Puts against the same base silently fork into untagged
  // branches tracked by the UB-table. Pass the null hash to create the
  // first version.
  Result<Hash> PutByBase(const std::string& key, const Hash& base_uid,
                         const Value& value, Slice context = Slice());

  // Bulk-load fast path: fork-on-demand Put for many independent keys in
  // one call. Base metas are fetched with one GetBatch, value chunks are
  // written in batches by the POS-tree builder, and all Meta chunks go
  // out in a single PutBatch, so a bulk load takes each store lock
  // O(batches) instead of O(keys) times. Returns the new uid per pair,
  // in input order.
  //
  // Concurrency semantics are those of fork-on-demand Put (M3),
  // last-writer-wins per head, but with a wider window: every head is
  // snapshotted up front, so a Put that lands on one of these keys while
  // the batch commits is overwritten without a fork (its version remains
  // reachable by uid only). Use PutGuarded or PutByBase when other
  // writers may race on the same keys. Keys should be distinct:
  // duplicates commit as siblings of the same base and the last
  // occurrence becomes the branch head.
  Result<std::vector<Hash>> PutMany(
      const std::vector<std::pair<std::string, Value>>& kvs,
      const std::string& branch = kDefaultBranch, Slice context = Slice());

  // --- View (M8, M9, M10) ----------------------------------------------------

  std::vector<std::string> ListKeys() const;
  Result<std::vector<std::pair<std::string, Hash>>> ListTaggedBranches(
      const std::string& key) const;
  // Returns all conflicting heads; a single element means no conflict.
  Result<std::vector<Hash>> ListUntaggedBranches(const std::string& key) const;

  // --- Fork (M11-M14) --------------------------------------------------------

  Status Fork(const std::string& key, const std::string& ref_branch,
              const std::string& new_branch);
  Status ForkFromUid(const std::string& key, const Hash& ref_uid,
                     const std::string& new_branch);
  Status Rename(const std::string& key, const std::string& tgt_branch,
                const std::string& new_branch);
  Status Remove(const std::string& key, const std::string& tgt_branch);

  // --- Track (M15-M17) --------------------------------------------------------

  Result<std::vector<FObject>> Track(const std::string& key,
                                     const std::string& branch,
                                     uint64_t min_dist, uint64_t max_dist);
  Result<std::vector<FObject>> TrackFromUid(const Hash& uid, uint64_t min_dist,
                                            uint64_t max_dist) const;
  Result<Hash> Lca(const std::string& key, const Hash& uid1,
                   const Hash& uid2) const;

  // --- Merge (M5, M6, M7) -----------------------------------------------------

  struct MergeOutcome {
    Hash uid;  // the merge FObject's version
    std::vector<MergeConflict> unresolved;
    bool clean() const { return unresolved.empty(); }
  };

  // Merges `ref_branch` into `tgt_branch`; only the target head moves.
  Result<MergeOutcome> Merge(const std::string& key,
                             const std::string& tgt_branch,
                             const std::string& ref_branch,
                             const ConflictResolver& resolver = nullptr,
                             Slice context = Slice());
  Result<MergeOutcome> MergeWithUid(const std::string& key,
                                    const std::string& tgt_branch,
                                    const Hash& ref_uid,
                                    const ConflictResolver& resolver = nullptr,
                                    Slice context = Slice());
  // Merges a collection of untagged heads into one, replacing them in the
  // UB-table.
  Result<MergeOutcome> MergeUids(const std::string& key,
                                 const std::vector<Hash>& uids,
                                 const ConflictResolver& resolver = nullptr,
                                 Slice context = Slice());

  // --- Diff ------------------------------------------------------------------

  // Key-wise diff of two Map/Set versions (possibly of different keys,
  // per Section 3.2).
  Result<std::vector<KeyDiff>> DiffSortedVersions(const Hash& uid1,
                                                  const Hash& uid2) const;
  // Byte-range diff of two Blob versions.
  Result<RangeDiff> DiffBlobVersions(const Hash& uid1, const Hash& uid2) const;

  // --- Branch-state persistence ------------------------------------------
  //
  // Chunks and objects are durable in the chunk store; branch heads live
  // in the servlet. Export/Import snapshot every key's TB/UB tables so an
  // embedding can persist them (e.g. next to a LogChunkStore) and restore
  // the full branch view after restart.

  Result<Bytes> ExportBranchState() const;
  Status ImportBranchState(Slice data);

  // --- Replication attach points -----------------------------------------
  //
  // A ReplicaGroup (src/replication/group.h) installs itself as the
  // branch-table mutation observer (to capture the log) and as the
  // commit hook (to block quorum commits). Attach before concurrent use;
  // both may be nullptr to detach.

  void AttachReplication(BranchMutationObserver* observer,
                         ReplicationCommitHook* hook) {
    branches_.set_mutation_observer(observer);
    commit_hook_.store(hook, std::memory_order_release);
  }

  // Re-applies a replicated branch mutation verbatim (guards were
  // validated on the leader). The follower-side apply path: it moves
  // branch tables and fires head-observer invalidations but never the
  // quorum barrier, and the attached mutation observer ignores it by
  // role. kImportAll records route through ImportBranchState.
  Status ApplyBranchMutation(const BranchMutation& m);

  // Writes a branch-state snapshot now (atomically: tmp file + rename).
  // No-op unless branch persistence is enabled (OpenPersistent does so).
  Status PersistBranchState() EXCLUDES(snapshot_mu_);

 private:
  Result<Hash> CommitObject(const std::string& key, const Value& value,
                            std::vector<Hash> bases, Slice context);
  Result<MergeOutcome> MergeHeads(const std::string& key, const Hash& v1,
                                  const Hash& v2,
                                  const ConflictResolver& resolver,
                                  Slice context, std::vector<Hash> bases);
  Result<Value> MergeValues(const FObject& left, const FObject& right,
                            const Hash& lca_uid,
                            const ConflictResolver& resolver,
                            std::vector<MergeConflict>* unresolved) const;
  PosTree TreeOf(const FObject& obj) const;

  // Counts successful branch mutations and snapshots on the configured
  // cadence (no-op when branch persistence is disabled).
  void NoteBranchMutations(uint64_t n);

  // Blocks until the records of this thread's just-committed mutation are
  // quorum-durable. No-op unless durability is kQuorum and a commit hook
  // is attached.
  Status CommitBarrier() {
    if (options_.durability != DurabilityPolicy::kQuorum) return Status::OK();
    ReplicationCommitHook* hook =
        commit_hook_.load(std::memory_order_acquire);
    if (hook == nullptr) return Status::OK();
    return hook->WaitCommitDurable();
  }

  // Creates hot_cache_ per options and registers it as the branch
  // tables' head observer (no-op when the budget is 0).
  void InitHotHeadCache();
  // Resolves the head GetValue reads: `branch` names a tagged branch, or
  // (when empty) the key's sole untagged head.
  Result<Hash> ResolveReadHead(const std::string& key,
                               const std::string& branch) const;
  // Serves `head` of (key, branch) from the hot-head cache, if it is
  // there (see HotHeadCache::Lookup for count_miss and max_bytes).
  bool ReadHotHead(const std::string& key, const std::string& branch,
                   const Hash& head, ValueReadout* out, bool count_miss,
                   uint64_t max_bytes);

  DBOptions options_;
  std::unique_ptr<ChunkStore> owned_store_;
  ChunkStore* store_;

  // Striped branch tables: per-key operations serialize only within the
  // owning stripe, so independent keys commit in parallel.
  BranchManager branches_;

  // Hot-head materialized value cache (nullptr when disabled). Declared
  // after branches_ but registered as its observer; detached in ~ForkBase
  // before destruction.
  std::unique_ptr<HotHeadCache> hot_cache_;

  // Branch-state persistence (OpenPersistent only). The mutation counter
  // is advisory — racing writers may snapshot once each around the
  // threshold — but snapshots themselves are serialized and atomic.
  std::string branch_snapshot_path_;  // empty => disabled
  std::atomic<uint64_t> mutations_since_snapshot_{0};
  Mutex snapshot_mu_{kRankSnapshot, "branch-snapshot"};

  // Quorum-durability hook (nullptr when not replicating).
  std::atomic<ReplicationCommitHook*> commit_hook_{nullptr};
};

}  // namespace fb

#endif  // FORKBASE_API_DB_H_
