#include "api/service.h"

#include <algorithm>

namespace fb {

namespace {

// Re-materializes the i-th serialized meta chunk of a reply.
Result<FObject> ObjectAt(const Reply& reply, size_t i) {
  if (i >= reply.objects.size()) {
    return Status::Internal("reply carries no object");
  }
  Chunk chunk;
  if (!Chunk::Deserialize(Slice(reply.objects[i]), &chunk)) {
    return Status::Corruption("undecodable object in reply");
  }
  return FObject::FromChunk(chunk);
}

void AppendObject(Reply* reply, const FObject& obj) {
  reply->objects.push_back(obj.ToChunk().Serialize());
}

Result<ForkBase::MergeOutcome> OutcomeOf(Reply reply) {
  FB_RETURN_NOT_OK(reply.ToStatus());
  ForkBase::MergeOutcome outcome;
  outcome.uid = reply.uid;
  outcome.unresolved = std::move(reply.conflicts);
  return outcome;
}

}  // namespace

ConflictResolver ResolverFor(MergePolicy policy) {
  switch (policy) {
    case MergePolicy::kNone: return nullptr;
    case MergePolicy::kChooseLeft: return ChooseLeft();
    case MergePolicy::kChooseRight: return ChooseRight();
    case MergePolicy::kAppend: return ResolveAppend();
    case MergePolicy::kAggregateSum: return ResolveAggregateSum();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// ApplyCommand: Command -> engine call -> Reply.
// ---------------------------------------------------------------------------

Reply ApplyCommand(ForkBase* db, const Command& cmd) {
  // Unknown / future opcodes (a newer client against an older servlet)
  // answer with Unimplemented rather than failing the envelope: the
  // request parsed fine, the operation just does not exist here.
  if (static_cast<uint8_t>(cmd.op) > kMaxCommandOp) {
    return Reply::FromStatus(Status::Unimplemented(
        "command op " + std::to_string(static_cast<int>(cmd.op))));
  }
  Reply reply;
  switch (cmd.op) {
    case CommandOp::kGet: {
      auto obj = db->Get(cmd.key, cmd.branch);
      if (!obj.ok()) return Reply::FromStatus(obj.status());
      reply.uid = obj->uid();
      AppendObject(&reply, *obj);
      return reply;
    }
    case CommandOp::kGetByUid: {
      auto obj = db->GetByUid(cmd.uid);
      if (!obj.ok()) return Reply::FromStatus(obj.status());
      reply.uid = obj->uid();
      AppendObject(&reply, *obj);
      return reply;
    }
    case CommandOp::kHead: {
      auto head = db->Head(cmd.key, cmd.branch);
      if (!head.ok()) return Reply::FromStatus(head.status());
      reply.uid = *head;
      return reply;
    }
    case CommandOp::kPut: {
      auto uid = db->Put(cmd.key, cmd.branch, cmd.value, Slice(cmd.context));
      if (!uid.ok()) return Reply::FromStatus(uid.status());
      reply.uid = *uid;
      return reply;
    }
    case CommandOp::kPutGuarded: {
      auto uid = db->PutGuarded(cmd.key, cmd.branch, cmd.value, cmd.uid,
                                Slice(cmd.context));
      if (!uid.ok()) return Reply::FromStatus(uid.status());
      reply.uid = *uid;
      return reply;
    }
    case CommandOp::kPutByBase: {
      auto uid =
          db->PutByBase(cmd.key, cmd.uid, cmd.value, Slice(cmd.context));
      if (!uid.ok()) return Reply::FromStatus(uid.status());
      reply.uid = *uid;
      return reply;
    }
    case CommandOp::kPutMany: {
      auto uids = db->PutMany(cmd.kvs, cmd.branch, Slice(cmd.context));
      if (!uids.ok()) return Reply::FromStatus(uids.status());
      reply.uids = std::move(*uids);
      return reply;
    }
    case CommandOp::kPutBlob: {
      auto blob = db->CreateBlob(Slice(cmd.content));
      if (!blob.ok()) return Reply::FromStatus(blob.status());
      auto uid =
          db->Put(cmd.key, cmd.branch, blob->ToValue(), Slice(cmd.context));
      if (!uid.ok()) return Reply::FromStatus(uid.status());
      reply.uid = *uid;
      return reply;
    }
    case CommandOp::kListKeys: {
      reply.keys = db->ListKeys();
      return reply;
    }
    case CommandOp::kListTaggedBranches: {
      auto branches = db->ListTaggedBranches(cmd.key);
      if (!branches.ok()) return Reply::FromStatus(branches.status());
      reply.branches = std::move(*branches);
      return reply;
    }
    case CommandOp::kListUntaggedBranches: {
      auto uids = db->ListUntaggedBranches(cmd.key);
      if (!uids.ok()) return Reply::FromStatus(uids.status());
      reply.uids = std::move(*uids);
      return reply;
    }
    case CommandOp::kFork:
      return Reply::FromStatus(db->Fork(cmd.key, cmd.branch, cmd.branch2));
    case CommandOp::kForkFromUid:
      return Reply::FromStatus(db->ForkFromUid(cmd.key, cmd.uid, cmd.branch2));
    case CommandOp::kRename:
      return Reply::FromStatus(db->Rename(cmd.key, cmd.branch, cmd.branch2));
    case CommandOp::kRemove:
      return Reply::FromStatus(db->Remove(cmd.key, cmd.branch));
    case CommandOp::kTrack: {
      auto objs = db->Track(cmd.key, cmd.branch, cmd.min_dist, cmd.max_dist);
      if (!objs.ok()) return Reply::FromStatus(objs.status());
      for (const FObject& o : *objs) AppendObject(&reply, o);
      return reply;
    }
    case CommandOp::kTrackFromUid: {
      auto objs = db->TrackFromUid(cmd.uid, cmd.min_dist, cmd.max_dist);
      if (!objs.ok()) return Reply::FromStatus(objs.status());
      for (const FObject& o : *objs) AppendObject(&reply, o);
      return reply;
    }
    case CommandOp::kLca: {
      auto lca = db->Lca(cmd.key, cmd.uid, cmd.uid2);
      if (!lca.ok()) return Reply::FromStatus(lca.status());
      reply.uid = *lca;
      return reply;
    }
    case CommandOp::kMerge:
    case CommandOp::kMergeWithUid:
    case CommandOp::kMergeUids: {
      Result<ForkBase::MergeOutcome> outcome = [&]() {
        const ConflictResolver resolver = ResolverFor(cmd.policy);
        switch (cmd.op) {
          case CommandOp::kMerge:
            return db->Merge(cmd.key, cmd.branch, cmd.branch2, resolver,
                             Slice(cmd.context));
          case CommandOp::kMergeWithUid:
            return db->MergeWithUid(cmd.key, cmd.branch, cmd.uid, resolver,
                                    Slice(cmd.context));
          default:
            return db->MergeUids(cmd.key, cmd.uids, resolver,
                                 Slice(cmd.context));
        }
      }();
      if (!outcome.ok()) return Reply::FromStatus(outcome.status());
      reply.uid = outcome->uid;
      reply.conflicts = std::move(outcome->unresolved);
      return reply;
    }
    case CommandOp::kDiffSorted: {
      auto diffs = db->DiffSortedVersions(cmd.uid, cmd.uid2);
      if (!diffs.ok()) return Reply::FromStatus(diffs.status());
      reply.key_diffs = std::move(*diffs);
      return reply;
    }
    case CommandOp::kDiffBlob: {
      auto diff = db->DiffBlobVersions(cmd.uid, cmd.uid2);
      if (!diff.ok()) return Reply::FromStatus(diff.status());
      reply.range = *diff;
      return reply;
    }
    case CommandOp::kGetValue: {
      auto readout = db->GetValue(cmd.key, cmd.branch);
      if (!readout.ok()) return Reply::FromStatus(readout.status());
      return ValueReply(std::move(*readout));
    }
  }
  return Reply::FromStatus(Status::Unimplemented("unknown command op"));
}

Reply ValueReply(ValueReadout readout) {
  Reply reply;
  reply.uid = readout.object.uid();
  AppendObject(&reply, readout.object);
  reply.has_value = readout.has_value;
  reply.value = std::move(readout.value);
  return reply;
}

// ---------------------------------------------------------------------------
// Value factories / handles
// ---------------------------------------------------------------------------

Result<Blob> ForkBaseService::CreateBlob(Slice content) {
  return Blob::Create(store(), tree_config(), content);
}

Result<FList> ForkBaseService::CreateList(const std::vector<Bytes>& elements) {
  return FList::Create(store(), tree_config(), elements);
}

Result<FMap> ForkBaseService::CreateMap() {
  return FMap::Create(store(), tree_config());
}

Result<FMap> ForkBaseService::CreateMapFromEntries(
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
  FB_ASSIGN_OR_RETURN(Hash root,
                      PosTree::BuildFromElements(store(), tree_config(),
                                                 ChunkType::kMap, elems));
  return FMap(store(), tree_config(), root);
}

Result<FSet> ForkBaseService::CreateSet() {
  return FSet::Create(store(), tree_config());
}

namespace {

Status CheckType(const FObject& obj, UType want) {
  if (obj.type() != want) {
    return Status::TypeMismatch("object is " +
                                std::string(UTypeToString(obj.type())));
  }
  return Status::OK();
}

}  // namespace

Result<Blob> ForkBaseService::GetBlob(const FObject& obj) const {
  FB_RETURN_NOT_OK(CheckType(obj, UType::kBlob));
  return Blob(store(), tree_config(), obj.value().root());
}

Result<FList> ForkBaseService::GetList(const FObject& obj) const {
  FB_RETURN_NOT_OK(CheckType(obj, UType::kList));
  return FList(store(), tree_config(), obj.value().root());
}

Result<FMap> ForkBaseService::GetMap(const FObject& obj) const {
  FB_RETURN_NOT_OK(CheckType(obj, UType::kMap));
  return FMap(store(), tree_config(), obj.value().root());
}

Result<FSet> ForkBaseService::GetSet(const FObject& obj) const {
  FB_RETURN_NOT_OK(CheckType(obj, UType::kSet));
  return FSet(store(), tree_config(), obj.value().root());
}

// ---------------------------------------------------------------------------
// Typed wrappers over Execute
// ---------------------------------------------------------------------------

Result<FObject> ForkBaseService::Get(const std::string& key,
                                     const std::string& branch) {
  Command cmd;
  cmd.op = CommandOp::kGet;
  cmd.key = key;
  cmd.branch = branch;
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return ObjectAt(reply, 0);
}

Result<ValueReadout> ForkBaseService::GetValue(const std::string& key,
                                               const std::string& branch) {
  Command cmd;
  cmd.op = CommandOp::kGetValue;
  cmd.key = key;
  cmd.branch = branch;
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  FB_ASSIGN_OR_RETURN(FObject obj, ObjectAt(reply, 0));
  ValueReadout out;
  out.object = std::move(obj);
  out.has_value = reply.has_value;
  out.value = std::move(reply.value);
  return out;
}

Result<FObject> ForkBaseService::GetByUid(const Hash& uid) {
  Command cmd;
  cmd.op = CommandOp::kGetByUid;
  cmd.uid = uid;
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return ObjectAt(reply, 0);
}

Result<Hash> ForkBaseService::Head(const std::string& key,
                                   const std::string& branch) {
  Command cmd;
  cmd.op = CommandOp::kHead;
  cmd.key = key;
  cmd.branch = branch;
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return reply.uid;
}

Result<Hash> ForkBaseService::Put(const std::string& key,
                                  const std::string& branch,
                                  const Value& value, Slice context) {
  Command cmd;
  cmd.op = CommandOp::kPut;
  cmd.key = key;
  cmd.branch = branch;
  cmd.value = value;
  cmd.context = context.ToBytes();
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return reply.uid;
}

Result<Hash> ForkBaseService::PutGuarded(const std::string& key,
                                         const std::string& branch,
                                         const Value& value,
                                         const Hash& guard_uid,
                                         Slice context) {
  Command cmd;
  cmd.op = CommandOp::kPutGuarded;
  cmd.key = key;
  cmd.branch = branch;
  cmd.value = value;
  cmd.uid = guard_uid;
  cmd.context = context.ToBytes();
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return reply.uid;
}

Result<Hash> ForkBaseService::PutByBase(const std::string& key,
                                        const Hash& base_uid,
                                        const Value& value, Slice context) {
  Command cmd;
  cmd.op = CommandOp::kPutByBase;
  cmd.key = key;
  cmd.uid = base_uid;
  cmd.value = value;
  cmd.context = context.ToBytes();
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return reply.uid;
}

Result<std::vector<Hash>> ForkBaseService::PutMany(
    const std::vector<std::pair<std::string, Value>>& kvs,
    const std::string& branch, Slice context) {
  Command cmd;
  cmd.op = CommandOp::kPutMany;
  cmd.branch = branch;
  cmd.kvs = kvs;
  cmd.context = context.ToBytes();
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return std::move(reply.uids);
}

Result<Hash> ForkBaseService::PutBlob(const std::string& key,
                                      const std::string& branch,
                                      Slice content, Slice context) {
  Command cmd;
  cmd.op = CommandOp::kPutBlob;
  cmd.key = key;
  cmd.branch = branch;
  cmd.content = content.ToBytes();
  cmd.context = context.ToBytes();
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return reply.uid;
}

Result<std::vector<std::string>> ForkBaseService::ListKeys() {
  Command cmd;
  cmd.op = CommandOp::kListKeys;
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return std::move(reply.keys);
}

Result<std::vector<std::pair<std::string, Hash>>>
ForkBaseService::ListTaggedBranches(const std::string& key) {
  Command cmd;
  cmd.op = CommandOp::kListTaggedBranches;
  cmd.key = key;
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return std::move(reply.branches);
}

Result<std::vector<Hash>> ForkBaseService::ListUntaggedBranches(
    const std::string& key) {
  Command cmd;
  cmd.op = CommandOp::kListUntaggedBranches;
  cmd.key = key;
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return std::move(reply.uids);
}

Status ForkBaseService::Fork(const std::string& key,
                             const std::string& ref_branch,
                             const std::string& new_branch) {
  Command cmd;
  cmd.op = CommandOp::kFork;
  cmd.key = key;
  cmd.branch = ref_branch;
  cmd.branch2 = new_branch;
  return Execute(cmd).ToStatus();
}

Status ForkBaseService::ForkFromUid(const std::string& key, const Hash& ref_uid,
                                    const std::string& new_branch) {
  Command cmd;
  cmd.op = CommandOp::kForkFromUid;
  cmd.key = key;
  cmd.uid = ref_uid;
  cmd.branch2 = new_branch;
  return Execute(cmd).ToStatus();
}

Status ForkBaseService::Rename(const std::string& key,
                               const std::string& tgt_branch,
                               const std::string& new_branch) {
  Command cmd;
  cmd.op = CommandOp::kRename;
  cmd.key = key;
  cmd.branch = tgt_branch;
  cmd.branch2 = new_branch;
  return Execute(cmd).ToStatus();
}

Status ForkBaseService::Remove(const std::string& key,
                               const std::string& tgt_branch) {
  Command cmd;
  cmd.op = CommandOp::kRemove;
  cmd.key = key;
  cmd.branch = tgt_branch;
  return Execute(cmd).ToStatus();
}

namespace {

Result<std::vector<FObject>> ObjectsOf(Reply reply) {
  FB_RETURN_NOT_OK(reply.ToStatus());
  std::vector<FObject> objs;
  objs.reserve(reply.objects.size());
  for (size_t i = 0; i < reply.objects.size(); ++i) {
    FB_ASSIGN_OR_RETURN(FObject obj, ObjectAt(reply, i));
    objs.push_back(std::move(obj));
  }
  return objs;
}

}  // namespace

Result<std::vector<FObject>> ForkBaseService::Track(const std::string& key,
                                                    const std::string& branch,
                                                    uint64_t min_dist,
                                                    uint64_t max_dist) {
  Command cmd;
  cmd.op = CommandOp::kTrack;
  cmd.key = key;
  cmd.branch = branch;
  cmd.min_dist = min_dist;
  cmd.max_dist = max_dist;
  return ObjectsOf(Execute(cmd));
}

Result<std::vector<FObject>> ForkBaseService::TrackFromUid(const Hash& uid,
                                                           uint64_t min_dist,
                                                           uint64_t max_dist) {
  Command cmd;
  cmd.op = CommandOp::kTrackFromUid;
  cmd.uid = uid;
  cmd.min_dist = min_dist;
  cmd.max_dist = max_dist;
  return ObjectsOf(Execute(cmd));
}

Result<Hash> ForkBaseService::Lca(const std::string& key, const Hash& uid1,
                                  const Hash& uid2) {
  Command cmd;
  cmd.op = CommandOp::kLca;
  cmd.key = key;
  cmd.uid = uid1;
  cmd.uid2 = uid2;
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return reply.uid;
}

Result<ForkBase::MergeOutcome> ForkBaseService::Merge(
    const std::string& key, const std::string& tgt_branch,
    const std::string& ref_branch, MergePolicy policy, Slice context) {
  Command cmd;
  cmd.op = CommandOp::kMerge;
  cmd.key = key;
  cmd.branch = tgt_branch;
  cmd.branch2 = ref_branch;
  cmd.policy = policy;
  cmd.context = context.ToBytes();
  return OutcomeOf(Execute(cmd));
}

Result<ForkBase::MergeOutcome> ForkBaseService::MergeWithUid(
    const std::string& key, const std::string& tgt_branch, const Hash& ref_uid,
    MergePolicy policy, Slice context) {
  Command cmd;
  cmd.op = CommandOp::kMergeWithUid;
  cmd.key = key;
  cmd.branch = tgt_branch;
  cmd.uid = ref_uid;
  cmd.policy = policy;
  cmd.context = context.ToBytes();
  return OutcomeOf(Execute(cmd));
}

Result<ForkBase::MergeOutcome> ForkBaseService::MergeUids(
    const std::string& key, const std::vector<Hash>& uids, MergePolicy policy,
    Slice context) {
  Command cmd;
  cmd.op = CommandOp::kMergeUids;
  cmd.key = key;
  cmd.uids = uids;
  cmd.policy = policy;
  cmd.context = context.ToBytes();
  return OutcomeOf(Execute(cmd));
}

Result<std::vector<KeyDiff>> ForkBaseService::DiffSortedVersions(
    const Hash& uid1, const Hash& uid2) {
  Command cmd;
  cmd.op = CommandOp::kDiffSorted;
  cmd.uid = uid1;
  cmd.uid2 = uid2;
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return std::move(reply.key_diffs);
}

Result<RangeDiff> ForkBaseService::DiffBlobVersions(const Hash& uid1,
                                                    const Hash& uid2) {
  Command cmd;
  cmd.op = CommandOp::kDiffBlob;
  cmd.uid = uid1;
  cmd.uid2 = uid2;
  Reply reply = Execute(cmd);
  FB_RETURN_NOT_OK(reply.ToStatus());
  return reply.range;
}

// ---------------------------------------------------------------------------
// EmbeddedService
// ---------------------------------------------------------------------------

Result<std::unique_ptr<EmbeddedService>> EmbeddedService::OpenPersistent(
    const std::string& dir, DBOptions options) {
  FB_ASSIGN_OR_RETURN(std::unique_ptr<ForkBase> db,
                      ForkBase::OpenPersistent(dir, options));
  return std::make_unique<EmbeddedService>(std::move(db));
}

}  // namespace fb
