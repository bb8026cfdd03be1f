// HotHeadCache: a materialized-value cache for branch-head reads.
//
// The paper's read gap (Section 6.5, Figure 14) is traversal cost: even a
// warm latest-version read walks the POS-tree from the meta chunk down.
// This cache keeps, per hot (key, branch), the head's serialized meta
// chunk AND its fully materialized value bytes, so a head read that hits
// skips the tree entirely.
//
// Correctness does NOT rest on invalidation. Every entry records the uid
// it was materialized from, and Lookup only serves when that uid equals
// the head the caller just resolved from the branch tables — the
// commit-version guard. A stale entry therefore can never be served; the
// BranchManager HeadObserver invalidations are eager hygiene that keep
// dead entries from squatting on the byte budget.
//
// Sharded (key+branch hashed to a shard), byte-capped, LRU per shard.
// The untagged (fork-on-conflict) head of a key is cached under the
// empty branch name.

#ifndef FORKBASE_API_HOT_HEAD_CACHE_H_
#define FORKBASE_API_HOT_HEAD_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "branch/branch_manager.h"
#include "chunk/chunk.h"
#include "util/mutex.h"

namespace fb {

struct HotHeadCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;        // lookups that found nothing servable
  uint64_t stale_drops = 0;   // entries discarded by the uid guard
  uint64_t invalidations = 0; // entries discarded by observer callbacks
  uint64_t inserts = 0;
  uint64_t evictions = 0;     // entries discarded for capacity
  uint64_t hit_bytes = 0;     // value + meta bytes served from the cache
};

class HotHeadCache : public HeadObserver {
 public:
  struct Entry {
    Hash uid;        // version the entry was materialized from
    Bytes meta;      // FObject::ToChunk().Serialize()
    bool has_value = false;
    Bytes value;     // decoded value bytes (empty when !has_value)
  };

  explicit HotHeadCache(uint64_t capacity_bytes, size_t n_shards = 8);

  HotHeadCache(const HotHeadCache&) = delete;
  HotHeadCache& operator=(const HotHeadCache&) = delete;

  // Serves the entry for (key, branch) iff one exists AND its uid equals
  // `head` (the guard). A uid mismatch drops the dead entry. A probe
  // whose miss a full lookup will follow passes count_miss = false, so
  // one read counts one miss; it may also pass max_bytes, and an entry
  // whose meta + value exceed it is left in place, not served.
  bool Lookup(const std::string& key, const std::string& branch,
              const Hash& head, Entry* out, bool count_miss = true,
              uint64_t max_bytes = UINT64_MAX);

  void Insert(const std::string& key, const std::string& branch, Entry entry);

  // HeadObserver: eager invalidation on head movement.
  void OnHeadChange(const std::string& key, const std::string& branch) override;
  void OnAllHeadsChange() override;

  HotHeadCacheStats stats() const;
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t size_bytes() const;
  size_t entries() const;

 private:
  struct Node {
    std::string map_key;  // key + '\0' + branch
    Entry entry;
    uint64_t charge = 0;
  };
  struct Shard {
    mutable Mutex mu{kRankCache, "hot-head-shard"};
    std::list<Node> lru GUARDED_BY(mu);  // front = most recent
    std::unordered_map<std::string, std::list<Node>::iterator> index
        GUARDED_BY(mu);
    uint64_t bytes GUARDED_BY(mu) = 0;
    HotHeadCacheStats stats GUARDED_BY(mu);
  };

  static std::string MapKey(const std::string& key, const std::string& branch) {
    std::string k;
    k.reserve(key.size() + 1 + branch.size());
    k.append(key);
    k.push_back('\0');
    k.append(branch);
    return k;
  }
  Shard& ShardFor(const std::string& map_key) {
    return *shards_[std::hash<std::string>{}(map_key) % shards_.size()];
  }

  void EraseLocked(Shard* shard,
                   std::unordered_map<std::string,
                                      std::list<Node>::iterator>::iterator it)
      REQUIRES(shard->mu);

  const uint64_t capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace fb

#endif  // FORKBASE_API_HOT_HEAD_CACHE_H_
