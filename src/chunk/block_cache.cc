#include "chunk/block_cache.h"

#include <algorithm>

#include "chunk/chunk_store.h"

namespace fb {

namespace {

// The protected segment holds at most this fraction of a shard budget;
// the remainder is probation, where admission duels happen.
constexpr size_t kProtectedNum = 4;  // 4/5 = 80%
constexpr size_t kProtectedDen = 5;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Four independent 64->64 mixes of the cid hash, one per sketch row.
uint64_t MixRow(uint64_t h, int row) {
  h += 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(row + 1);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

void AdmissionChunkCache::FrequencySketch::Reset(size_t counters) {
  const size_t n = RoundUpPow2(std::max<size_t>(counters, 64));
  for (auto& row : rows_) row.assign(n, 0);
  mask_ = n - 1;
  touches_ = 0;
  // Halve once we have seen ~10 touches per counter — the classic
  // TinyLFU sample size, small enough that a shifted workload
  // re-ranks within one aging period.
  sample_size_ = 10 * n;
}

void AdmissionChunkCache::FrequencySketch::Touch(uint64_t cid_hash) {
  for (int r = 0; r < 4; ++r) {
    uint8_t& c = rows_[r][MixRow(cid_hash, r) & mask_];
    if (c < 255) ++c;
  }
  if (++touches_ >= sample_size_) Age();
}

uint32_t AdmissionChunkCache::FrequencySketch::Estimate(
    uint64_t cid_hash) const {
  uint32_t est = 255;
  for (int r = 0; r < 4; ++r) {
    est = std::min<uint32_t>(est, rows_[r][MixRow(cid_hash, r) & mask_]);
  }
  return est;
}

void AdmissionChunkCache::FrequencySketch::Age() {
  for (auto& row : rows_) {
    for (uint8_t& c : row) c >>= 1;
  }
  touches_ /= 2;
}

AdmissionChunkCache::AdmissionChunkCache(size_t capacity_bytes,
                                         size_t n_shards)
    : capacity_(capacity_bytes),
      shard_capacity_(capacity_bytes / std::max<size_t>(n_shards, 1)) {
  const size_t n = std::max<size_t>(n_shards, 1);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    // Size the sketch for roughly the number of 4KB-ish chunks the
    // shard can hold, with headroom for the non-resident cids whose
    // frequency we must remember to admit them later.
    shard->sketch.Reset((shard_capacity_ / 1024) + 256);
    shards_.push_back(std::move(shard));
  }
}

bool AdmissionChunkCache::Get(const Hash& cid, Chunk* chunk) {
  Shard& s = ShardFor(cid);
  MutexLock lock(s.mu);
  s.sketch.Touch(cid.Mid64());
  auto it = s.index.find(cid);
  if (it == s.index.end()) {
    ++s.stats.misses;
    return false;
  }
  EntryList::iterator eit = it->second;
  if (eit->is_protected) {
    s.protected_seg.splice(s.protected_seg.begin(), s.protected_seg, eit);
  } else {
    // Second touch: promote out of probation. The entry survives
    // future admission duels entirely until demoted.
    eit->is_protected = true;
    s.protected_bytes += eit->charge;
    s.protected_seg.splice(s.protected_seg.begin(), s.probation, eit);
    BalanceProtected(s);
  }
  ++s.stats.hits;
  s.stats.hit_bytes += eit->charge;
  *chunk = eit->chunk;
  return true;
}

bool AdmissionChunkCache::Contains(const Hash& cid) const {
  Shard& s = ShardFor(cid);
  MutexLock lock(s.mu);
  return s.index.count(cid) > 0;
}

void AdmissionChunkCache::Put(const Hash& cid, const Chunk& chunk) {
  const size_t charge = chunk.serialized_size();
  Shard& s = ShardFor(cid);
  MutexLock lock(s.mu);
  s.stats.miss_bytes += charge;
  if (charge > shard_capacity_ || shard_capacity_ == 0) {
    ++s.stats.rejections;
    return;
  }
  auto it = s.index.find(cid);
  if (it != s.index.end()) {
    // Already resident (a racing filler beat us). Chunks are immutable,
    // so the bytes are identical; just refresh recency.
    EntryList& seg = it->second->is_protected ? s.protected_seg : s.probation;
    seg.splice(seg.begin(), seg, it->second);
    return;
  }
  if (!MakeRoom(s, cid.Mid64(), charge)) {
    ++s.stats.rejections;
    return;
  }
  s.probation.push_front(Entry{cid, chunk, charge, false});
  s.index[cid] = s.probation.begin();
  s.bytes += charge;
  ++s.stats.admissions;
}

bool AdmissionChunkCache::MakeRoom(Shard& s, uint64_t incoming_hash,
                                   size_t incoming_charge) {
  while (s.bytes + incoming_charge > shard_capacity_) {
    if (s.probation.empty()) {
      // Only protected residents remain. Demote the protected tail to
      // keep a duel candidate available rather than evicting the hot
      // set blindly.
      if (s.protected_seg.empty()) return false;
      EntryList::iterator tail = std::prev(s.protected_seg.end());
      tail->is_protected = false;
      s.protected_bytes -= tail->charge;
      s.probation.splice(s.probation.begin(), s.protected_seg, tail);
    }
    EntryList::iterator victim = std::prev(s.probation.end());
    // The admission duel: a newcomer must be at least as hot as the
    // coldest resident it would displace. One-touch scan chunks
    // (estimate 1) cannot displace anything touched twice.
    if (s.sketch.Estimate(incoming_hash) <
        s.sketch.Estimate(victim->cid.Mid64())) {
      return false;
    }
    s.bytes -= victim->charge;
    s.index.erase(victim->cid);
    s.probation.erase(victim);
    ++s.stats.evictions;
  }
  return true;
}

void AdmissionChunkCache::BalanceProtected(Shard& s) {
  const size_t cap = shard_capacity_ * kProtectedNum / kProtectedDen;
  while (s.protected_bytes > cap && !s.protected_seg.empty()) {
    EntryList::iterator tail = std::prev(s.protected_seg.end());
    tail->is_protected = false;
    s.protected_bytes -= tail->charge;
    s.probation.splice(s.probation.begin(), s.protected_seg, tail);
  }
}

size_t AdmissionChunkCache::size_bytes() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s->mu);
    total += s->bytes;
  }
  return total;
}

size_t AdmissionChunkCache::entries() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s->mu);
    total += s->index.size();
  }
  return total;
}

BlockCacheStats AdmissionChunkCache::stats() const {
  BlockCacheStats total;
  for (const auto& s : shards_) {
    MutexLock lock(s->mu);
    total.hits += s->stats.hits;
    total.misses += s->stats.misses;
    total.hit_bytes += s->stats.hit_bytes;
    total.miss_bytes += s->stats.miss_bytes;
    total.admissions += s->stats.admissions;
    total.rejections += s->stats.rejections;
    total.evictions += s->stats.evictions;
  }
  return total;
}

void AdmissionChunkCache::AddStatsTo(ChunkStoreStats* out) const {
  const BlockCacheStats bc = stats();
  out->cache_hits += bc.hits;
  out->cache_misses += bc.misses;
  out->cache_hit_bytes += bc.hit_bytes;
  out->cache_miss_bytes += bc.miss_bytes;
  out->cache_admissions += bc.admissions;
  out->cache_rejections += bc.rejections;
}

}  // namespace fb
