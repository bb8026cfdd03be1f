// GroupCommitQueue: the group-commit protocol behind every batching
// ChunkStore write path (MemChunkStore::PutBatch, and every Put/PutBatch
// of LogChunkStore and LsmChunkStore).
//
// Writers submit records and block until a commit body has run over
// them. A writer that finds no combiner active becomes the combiner: it
// drains the whole queue — its own records plus whatever other writers
// enqueued meanwhile — hands each drained group to the store's commit
// body, and repeats until the queue is empty. N concurrent writers thus
// share one commit body (one fwrite + fsync for the log stores, one lock
// per shard for the memory store) instead of paying N.
//
// The queue mutex ranks kRankStoreCombiner and is never held while a
// commit body runs: bodies take the store's own locks, and
// LsmChunkStore's takes its flush mutex, which shares this rank.
//
// Errors are sticky: once a commit body fails, every writer still
// waiting and every later submitter gets that first error. A log whose
// write failed cannot say which records reached the disk, so the store
// stops accepting writes rather than guess.

#ifndef FORKBASE_CHUNK_GROUP_COMMIT_H_
#define FORKBASE_CHUNK_GROUP_COMMIT_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "chunk/chunk.h"
#include "util/mutex.h"
#include "util/status.h"

namespace fb {

// One queued record. The pointers refer into the submitter's arguments,
// which outlive the group: the submitter blocks until it is committed.
struct CommitRecord {
  const Hash* cid;
  const Chunk* chunk;
};

class GroupCommitQueue {
 public:
  // Commits one drained group, records in enqueue order. Runs on the
  // combiner's thread with the queue mutex released.
  using CommitFn = std::function<Status(const std::vector<CommitRecord>&)>;

  // `name` labels the queue mutex in lock-rank diagnostics.
  GroupCommitQueue(const char* name, CommitFn commit)
      : mu_(kRankStoreCombiner, name), commit_(std::move(commit)) {}

  Status Submit(const Hash& cid, const Chunk& chunk) {
    const CommitRecord one{&cid, &chunk};
    return Submit(&one, 1);
  }

  Status Submit(const std::vector<std::pair<Hash, Chunk>>& batch) {
    std::vector<CommitRecord> records;
    records.reserve(batch.size());
    for (const auto& [cid, chunk] : batch) {
      records.push_back(CommitRecord{&cid, &chunk});
    }
    return Submit(records.data(), records.size());
  }

  // Enqueues `n` records and returns once they are committed (possibly
  // as the combiner that commits them).
  Status Submit(const CommitRecord* records, size_t n) EXCLUDES(mu_) {
    if (n == 0) return Status::OK();
    MutexLock ql(mu_);
    if (!error_.ok()) return error_;
    queue_.insert(queue_.end(), records, records + n);
    enqueued_ += n;
    const uint64_t target = enqueued_;

    while (committed_ < target) {
      if (combiner_active_) {
        // The active combiner covers our records or hands the role back
        // before reaching them.
        cv_.Wait(mu_);
        continue;
      }
      combiner_active_ = true;
      while (!queue_.empty()) {
        std::vector<CommitRecord> group = std::move(queue_);
        queue_.clear();
        ql.Unlock();
        const Status s = commit_(group);
        ql.Lock();
        committed_ += group.size();
        if (!s.ok() && error_.ok()) error_ = s;
        cv_.SignalAll();
      }
      combiner_active_ = false;
      cv_.SignalAll();
    }
    return error_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::vector<CommitRecord> queue_ GUARDED_BY(mu_);
  uint64_t enqueued_ GUARDED_BY(mu_) = 0;   // records ever enqueued
  uint64_t committed_ GUARDED_BY(mu_) = 0;  // committed (or failed)
  bool combiner_active_ GUARDED_BY(mu_) = false;
  Status error_ GUARDED_BY(mu_);
  const CommitFn commit_;
};

}  // namespace fb

#endif  // FORKBASE_CHUNK_GROUP_COMMIT_H_
