#include "api/hot_head_cache.h"

namespace fb {

namespace {

uint64_t ChargeOf(const std::string& map_key,
                  const HotHeadCache::Entry& entry) {
  return map_key.size() + Hash::kSize + entry.meta.size() +
         entry.value.size() + 64;  // node/index bookkeeping estimate
}

}  // namespace

HotHeadCache::HotHeadCache(uint64_t capacity_bytes, size_t n_shards)
    : capacity_bytes_(capacity_bytes) {
  if (n_shards == 0) n_shards = 1;
  shards_.reserve(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void HotHeadCache::EraseLocked(
    Shard* shard,
    std::unordered_map<std::string, std::list<Node>::iterator>::iterator it) {
  shard->bytes -= it->second->charge;
  shard->lru.erase(it->second);
  shard->index.erase(it);
}

bool HotHeadCache::Lookup(const std::string& key, const std::string& branch,
                          const Hash& head, Entry* out, bool count_miss,
                          uint64_t max_bytes) {
  const std::string map_key = MapKey(key, branch);
  Shard& shard = ShardFor(map_key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(map_key);
  if (it == shard.index.end()) {
    if (count_miss) ++shard.stats.misses;
    return false;
  }
  if (it->second->entry.uid != head) {
    // The head moved past this entry (the guard): it can never be served
    // again, so reclaim its bytes now.
    ++shard.stats.stale_drops;
    if (count_miss) ++shard.stats.misses;
    EraseLocked(&shard, it);
    return false;
  }
  const uint64_t bytes =
      it->second->entry.meta.size() + it->second->entry.value.size();
  if (bytes > max_bytes) {
    if (count_miss) ++shard.stats.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->entry;
  ++shard.stats.hits;
  shard.stats.hit_bytes += bytes;
  return true;
}

void HotHeadCache::Insert(const std::string& key, const std::string& branch,
                          Entry entry) {
  std::string map_key = MapKey(key, branch);
  const uint64_t charge = ChargeOf(map_key, entry);
  Shard& shard = ShardFor(map_key);
  const uint64_t shard_capacity = capacity_bytes_ / shards_.size();
  if (charge > shard_capacity) return;  // would evict the whole shard
  MutexLock lock(shard.mu);
  auto it = shard.index.find(map_key);
  if (it != shard.index.end()) EraseLocked(&shard, it);
  while (shard.bytes + charge > shard_capacity && !shard.lru.empty()) {
    auto victim = shard.index.find(shard.lru.back().map_key);
    EraseLocked(&shard, victim);
    ++shard.stats.evictions;
  }
  shard.lru.push_front(Node{std::move(map_key), std::move(entry), charge});
  shard.index.emplace(shard.lru.front().map_key, shard.lru.begin());
  shard.bytes += charge;
  ++shard.stats.inserts;
}

void HotHeadCache::OnHeadChange(const std::string& key,
                                const std::string& branch) {
  const std::string map_key = MapKey(key, branch);
  Shard& shard = ShardFor(map_key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(map_key);
  if (it == shard.index.end()) return;
  EraseLocked(&shard, it);
  ++shard.stats.invalidations;
}

void HotHeadCache::OnAllHeadsChange() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->stats.invalidations += shard->lru.size();
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

HotHeadCacheStats HotHeadCache::stats() const {
  HotHeadCacheStats total;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.stale_drops += shard->stats.stale_drops;
    total.invalidations += shard->stats.invalidations;
    total.inserts += shard->stats.inserts;
    total.evictions += shard->stats.evictions;
    total.hit_bytes += shard->stats.hit_bytes;
  }
  return total;
}

uint64_t HotHeadCache::size_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->bytes;
  }
  return total;
}

size_t HotHeadCache::entries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace fb
