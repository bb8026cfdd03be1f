// ForkBaseService: the unified client-facing command API.
//
// The paper's deployment (Sections 4.1/4.6) puts every request behind a
// master/dispatcher; this facade is the typed, transport-agnostic command
// boundary in front of the engine. All operations flow through one
// virtual — Execute(Command) -> Reply — and the typed M1-M17 wrappers are
// implemented once on top of it, so the embedded engine and the cluster
// client expose byte-for-byte identical behavior:
//
//   * EmbeddedService — in-process adapter over one ForkBase engine.
//   * ClusterClient (src/cluster/client.h) — routes each command by key
//     through the dispatcher, fans multi-key operations out across
//     servlets, and batches async Puts into group commits.
//
// Chunkable values are built client-side (Figure 4): CreateBlob & co.
// write data chunks through store() and the resulting Value carries only
// the tree root, so a Put envelope stays small regardless of value size.

#ifndef FORKBASE_API_SERVICE_H_
#define FORKBASE_API_SERVICE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/command.h"
#include "api/db.h"

namespace fb {

class ForkBaseService {
 public:
  using MergeOutcome = ForkBase::MergeOutcome;

  virtual ~ForkBaseService() = default;

  // The single command entry point; every typed wrapper goes through it.
  virtual Reply Execute(const Command& cmd) = 0;

  // Chunk source for client-side handle materialization and value
  // construction (lazy reads per Section 3.4).
  virtual ChunkStore* store() const = 0;
  virtual const TreeConfig& tree_config() const = 0;

  // --- Value factories / handles (client-side, Figure 4) -----------------

  Result<Blob> CreateBlob(Slice content);
  Result<FList> CreateList(const std::vector<Bytes>& elements);
  Result<FMap> CreateMap();
  Result<FMap> CreateMapFromEntries(
      std::vector<std::pair<Bytes, Bytes>> entries);
  Result<FSet> CreateSet();

  Result<Blob> GetBlob(const FObject& obj) const;
  Result<FList> GetList(const FObject& obj) const;
  Result<FMap> GetMap(const FObject& obj) const;
  Result<FSet> GetSet(const FObject& obj) const;

  // --- Get (M1, M2) ------------------------------------------------------

  Result<FObject> Get(const std::string& key) {
    return Get(key, kDefaultBranch);
  }
  Result<FObject> Get(const std::string& key, const std::string& branch);
  Result<FObject> GetByUid(const Hash& uid);
  Result<Hash> Head(const std::string& key, const std::string& branch);

  // Head read with server-side value materialization: the servlet
  // resolves the head AND decodes the value (primitives and Blob) in one
  // round trip, serving hot heads from its uid-guarded value cache. An
  // empty `branch` addresses the key's sole untagged head. For Map /
  // Set / List the readout carries the object only (has_value == false)
  // and callers traverse through the usual handles.
  Result<ValueReadout> GetValue(const std::string& key,
                                const std::string& branch = kDefaultBranch);

  // --- Put (M3, M4) ------------------------------------------------------

  Result<Hash> Put(const std::string& key, const Value& value,
                   Slice context = Slice()) {
    return Put(key, kDefaultBranch, value, context);
  }
  Result<Hash> Put(const std::string& key, const std::string& branch,
                   const Value& value, Slice context = Slice());
  Result<Hash> PutGuarded(const std::string& key, const std::string& branch,
                          const Value& value, const Hash& guard_uid,
                          Slice context = Slice());
  Result<Hash> PutByBase(const std::string& key, const Hash& base_uid,
                         const Value& value, Slice context = Slice());
  Result<std::vector<Hash>> PutMany(
      const std::vector<std::pair<std::string, Value>>& kvs,
      const std::string& branch = kDefaultBranch, Slice context = Slice());
  // Server-side construction: ships raw bytes and lets the servlet build
  // the POS-Tree into its own placement (works under 1LP and 2LP alike).
  Result<Hash> PutBlob(const std::string& key, const std::string& branch,
                       Slice content, Slice context = Slice());

  // --- View (M8, M9, M10) ------------------------------------------------

  // Unlike the engine's infallible in-memory ListKeys, the service call
  // can fail (remote shard error), so the outcome is a Result.
  Result<std::vector<std::string>> ListKeys();
  Result<std::vector<std::pair<std::string, Hash>>> ListTaggedBranches(
      const std::string& key);
  Result<std::vector<Hash>> ListUntaggedBranches(const std::string& key);

  // --- Fork (M11-M14) ----------------------------------------------------

  Status Fork(const std::string& key, const std::string& ref_branch,
              const std::string& new_branch);
  Status ForkFromUid(const std::string& key, const Hash& ref_uid,
                     const std::string& new_branch);
  Status Rename(const std::string& key, const std::string& tgt_branch,
                const std::string& new_branch);
  Status Remove(const std::string& key, const std::string& tgt_branch);

  // --- Track (M15-M17) ---------------------------------------------------

  Result<std::vector<FObject>> Track(const std::string& key,
                                     const std::string& branch,
                                     uint64_t min_dist, uint64_t max_dist);
  Result<std::vector<FObject>> TrackFromUid(const Hash& uid, uint64_t min_dist,
                                            uint64_t max_dist);
  Result<Hash> Lca(const std::string& key, const Hash& uid1, const Hash& uid2);

  // --- Merge (M5, M6, M7) ------------------------------------------------
  //
  // Conflict handling is selected by MergePolicy: custom resolver
  // callables cannot travel in a command envelope.

  Result<MergeOutcome> Merge(const std::string& key,
                             const std::string& tgt_branch,
                             const std::string& ref_branch,
                             MergePolicy policy = MergePolicy::kNone,
                             Slice context = Slice());
  Result<MergeOutcome> MergeWithUid(const std::string& key,
                                    const std::string& tgt_branch,
                                    const Hash& ref_uid,
                                    MergePolicy policy = MergePolicy::kNone,
                                    Slice context = Slice());
  Result<MergeOutcome> MergeUids(const std::string& key,
                                 const std::vector<Hash>& uids,
                                 MergePolicy policy = MergePolicy::kNone,
                                 Slice context = Slice());

  // --- Diff --------------------------------------------------------------

  Result<std::vector<KeyDiff>> DiffSortedVersions(const Hash& uid1,
                                                  const Hash& uid2);
  Result<RangeDiff> DiffBlobVersions(const Hash& uid1, const Hash& uid2);
};

// The built-in resolver selected by a merge command's policy (nullptr for
// kNone).
ConflictResolver ResolverFor(MergePolicy policy);

// Applies one parsed command to an embedded engine and renders the
// outcome as a Reply — the single dispatch point shared by the embedded
// adapter and the cluster servlets.
Reply ApplyCommand(ForkBase* db, const Command& cmd);

// The Reply of a successful kGetValue: ApplyCommand's, and the RPC
// server's when it answers from ForkBase::GetCachedValue.
Reply ValueReply(ValueReadout readout);

// Synchronous in-process implementation over one ForkBase engine.
class EmbeddedService : public ForkBaseService {
 public:
  // Adapter over a caller-owned engine.
  explicit EmbeddedService(ForkBase* db) : db_(db) {}
  // Owning adapter (e.g. around ForkBase::OpenPersistent's result).
  explicit EmbeddedService(std::unique_ptr<ForkBase> db)
      : owned_(std::move(db)), db_(owned_.get()) {}

  // Durable embedded service rooted at `dir` (see ForkBase::OpenPersistent).
  static Result<std::unique_ptr<EmbeddedService>> OpenPersistent(
      const std::string& dir, DBOptions options = {});

  Reply Execute(const Command& cmd) override { return ApplyCommand(db_, cmd); }
  ChunkStore* store() const override { return db_->store(); }
  const TreeConfig& tree_config() const override {
    return db_->tree_config();
  }

  // The wrapped engine, for embeddings that need engine-only surface
  // (Export/ImportBranchState, custom resolvers).
  ForkBase* engine() { return db_; }

 private:
  std::unique_ptr<ForkBase> owned_;
  ForkBase* db_;
};

}  // namespace fb

#endif  // FORKBASE_API_SERVICE_H_
