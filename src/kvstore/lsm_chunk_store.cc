#include "kvstore/lsm_chunk_store.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "chunk/block_cache.h"
#include "chunk/record_file.h"

namespace fb {

namespace {

int CidCompare(const Hash& a, const Hash& b) {
  return std::memcmp(a.data(), b.data(), Hash::kSize);
}

}  // namespace

const LsmChunkStore::IndexEntry* LsmChunkStore::Run::Find(
    const Hash& cid) const {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), cid,
      [](const IndexEntry& e, const Hash& target) {
        return CidCompare(e.cid, target) < 0;
      });
  if (it == entries.end() || CidCompare(it->cid, cid) != 0) return nullptr;
  return &*it;
}

Result<std::unique_ptr<LsmChunkStore>> LsmChunkStore::Open(
    const std::string& dir, LsmChunkStoreOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("create_directories: " + ec.message());
  auto store =
      std::unique_ptr<LsmChunkStore>(new LsmChunkStore(dir, options));
  if (options.block_cache_bytes > 0) {
    store->block_cache_ =
        std::make_unique<AdmissionChunkCache>(options.block_cache_bytes);
  }
  Status s = store->Recover();
  if (!s.ok()) return s;
  return store;
}

LsmChunkStore::LsmChunkStore(std::string dir, LsmChunkStoreOptions options)
    : dir_(std::move(dir)), options_(options) {}

LsmChunkStore::~LsmChunkStore() {
  if (wal_ != nullptr) std::fclose(wal_);
}

std::string LsmChunkStore::WalPath(uint64_t seq) const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/wal-%06llu.fbw",
                static_cast<unsigned long long>(seq));
  return dir_ + buf;
}

std::string LsmChunkStore::SstPath(uint64_t seq, size_t tier) const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/sst-%06llu-t%02zu.fbs",
                static_cast<unsigned long long>(seq), tier);
  return dir_ + buf;
}

Result<LsmChunkStore::RunPtr> LsmChunkStore::LoadRun(const std::string& path,
                                                     uint64_t seq,
                                                     size_t tier) {
  auto run = std::make_shared<Run>();
  run->seq = seq;
  run->tier = tier;
  run->path = path;
  uint64_t end = 0;
  FB_RETURN_NOT_OK(ScanRecords(
      path, /*forgive_torn_tail=*/false, &end,
      [&](const Hash& cid, Chunk chunk, uint64_t off, uint32_t len) {
        run->entries.push_back(IndexEntry{cid, off, len});
        stats_.RecordRecoveredChunk(chunk.serialized_size());
        return Status::OK();
      }));
  run->bytes = end;
  // SSTs are written in cid order; recovery re-asserts it rather than
  // trusting the file.
  std::sort(run->entries.begin(), run->entries.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return CidCompare(a.cid, b.cid) < 0;
            });
  FB_RETURN_NOT_OK(FinishRun(run.get()));
  return run;
}

Status LsmChunkStore::FinishRun(Run* run) const {
  run->bloom = std::make_unique<BloomFilter>(run->entries.size(),
                                             options_.bloom_bits_per_key);
  for (const IndexEntry& e : run->entries) run->bloom->Add(e.cid.slice());
  if (!run->entries.empty()) {
    run->min_cid = run->entries.front().cid;
    run->max_cid = run->entries.back().cid;
  }
  run->file = std::fopen(run->path.c_str(), "rb");
  if (run->file == nullptr) return Status::IOError("reopen " + run->path);
  return Status::OK();
}

Status LsmChunkStore::ReplayWal(const std::string& path,
                                bool forgive_torn_tail) {
  uint64_t end = 0;
  // The callback body runs with mu_ held by this function's caller
  // contract; the analysis cannot see through the std::function
  // boundary, so it is opted out explicitly.
  Status s = ScanRecords(
      path, forgive_torn_tail, &end,
      [&](const Hash& cid, Chunk chunk, uint64_t,
          uint32_t) NO_THREAD_SAFETY_ANALYSIS {
        if (!ContainsLocked(cid)) {
          memtable_logical_bytes_ += chunk.serialized_size();
          stats_.RecordRecoveredChunk(chunk.serialized_size());
          memtable_.emplace(cid, std::move(chunk));
        }
        return Status::OK();
      });
  if (s.IsOutOfRange()) return Status::OK();  // forgiven torn tail
  return s;
}

Status LsmChunkStore::Recover() {
  bool need_flush = false;
  {
    MutexLock lock(mu_);
    FB_RETURN_NOT_OK(RecoverLocked());
    need_flush = memtable_logical_bytes_ >= options_.memtable_bytes;
  }
  // The recovered memtable may already be over threshold; flush it with
  // the lock released like any runtime flush.
  if (need_flush) return FlushAndCompact();
  return Status::OK();
}

Status LsmChunkStore::RecoverLocked() {
  // Discover SSTs and WALs; anything unparseable is a foreign file and
  // is left alone.
  std::vector<std::pair<uint64_t, size_t>> ssts;  // (seq, tier)
  std::vector<uint64_t> wals;
  std::error_code ec;
  std::vector<std::filesystem::path> stale_tmp;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long seq = 0;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // A crash mid-SST-build; the data is still in the WAL (flush) or
      // the victim runs (compaction).
      stale_tmp.push_back(entry.path());
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".fbs") == 0) {
      unsigned long tier = 0;
      if (std::sscanf(name.c_str(), "sst-%llu-t%lu.fbs", &seq, &tier) == 2) {
        ssts.emplace_back(seq, static_cast<size_t>(tier));
      }
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".fbw") == 0) {
      if (std::sscanf(name.c_str(), "wal-%llu.fbw", &seq) == 1) {
        wals.push_back(seq);
      }
    }
  }
  if (ec) return Status::IOError("scan " + dir_ + ": " + ec.message());
  for (const auto& p : stale_tmp) {
    std::error_code rmec;
    std::filesystem::remove(p, rmec);
  }

  // Newest runs first (order is cosmetic — content addressing means no
  // run shadows another — but it keeps recently-written data early in
  // the probe order).
  std::sort(ssts.begin(), ssts.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [seq, tier] : ssts) {
    auto run = LoadRun(SstPath(seq, tier), seq, tier);
    FB_RETURN_NOT_OK(run.status());
    runs_.push_back(std::move(*run));
    next_seq_ = std::max(next_seq_.load(std::memory_order_relaxed), seq + 1);
  }

  // Replay WALs oldest-first; only the newest may be torn (the crash
  // footprint). Older leftovers exist only if a crash hit the
  // flush-then-delete window, and replaying them is idempotent.
  std::sort(wals.begin(), wals.end());
  for (size_t i = 0; i < wals.size(); ++i) {
    FB_RETURN_NOT_OK(
        ReplayWal(WalPath(wals[i]), /*forgive=*/i + 1 == wals.size()));
    next_seq_ = std::max(next_seq_.load(std::memory_order_relaxed), wals[i] + 1);
  }

  // Re-log the recovered memtable into one fresh WAL, sync it, then
  // delete the replayed ones — the WAL == memtable invariant holds from
  // here on, and a crash in this window only leaves duplicate records
  // that the next replay dedups.
  wal_seq_ = next_seq_++;
  wal_path_ = WalPath(wal_seq_);
  wal_ = std::fopen(wal_path_.c_str(), "ab");
  if (wal_ == nullptr) {
    return Status::IOError(std::string("open wal: ") + std::strerror(errno));
  }
  if (!memtable_.empty()) {
    Bytes buf;
    for (const auto& [cid, chunk] : memtable_) {
      AppendRecord(&buf, cid, chunk);
    }
    if (std::fwrite(buf.data(), 1, buf.size(), wal_) != buf.size()) {
      return Status::IOError("short write re-logging wal");
    }
    if (options_.durability != DurabilityPolicy::kNone) {
      FB_RETURN_NOT_OK(SyncFile(wal_, "wal"));
    }
  }
  for (uint64_t seq : wals) {
    std::filesystem::remove(WalPath(seq), ec);
  }
  return Status::OK();
}

bool LsmChunkStore::ContainsLocked(const Hash& cid) const {
  return memtable_.count(cid) > 0 || imm_.count(cid) > 0 ||
         FindInRuns(cid, nullptr) != nullptr;
}

const LsmChunkStore::IndexEntry* LsmChunkStore::FindInRuns(
    const Hash& cid, RunPtr* holder) const {
  for (const RunPtr& run : runs_) {
    if (run->entries.empty() || CidCompare(cid, run->min_cid) < 0 ||
        CidCompare(cid, run->max_cid) > 0) {
      continue;
    }
    if (!run->bloom->MayContain(cid.slice())) {
      bloom_skips_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (const IndexEntry* e = run->Find(cid)) {
      if (holder != nullptr) *holder = run;
      return e;
    }
  }
  return nullptr;
}

Status LsmChunkStore::CommitStaged(
    Bytes* buf, std::vector<std::pair<Hash, const Chunk*>>* staged) {
  if (buf->empty()) return Status::OK();
  if (std::fwrite(buf->data(), 1, buf->size(), wal_) != buf->size()) {
    return Status::IOError("short write to wal");
  }
  if (options_.durability != DurabilityPolicy::kNone) {
    FB_RETURN_NOT_OK(SyncFile(wal_, "wal"));
  }
  {
    MutexLock bl(backend_stats_mu_);
    backend_stats_.wal_bytes += buf->size();
  }
  for (const auto& [cid, chunk] : *staged) {
    memtable_.emplace(cid, *chunk);
    memtable_logical_bytes_ += chunk->serialized_size();
    stats_.RecordPut(chunk->serialized_size(), /*dedup_hit=*/false);
  }
  buf->clear();
  staged->clear();
  return Status::OK();
}

Status LsmChunkStore::CommitGroup(const std::vector<CommitRecord>& group) {
  bool need_flush = false;
  {
    MutexLock lock(mu_);

    Bytes buf;
    std::vector<std::pair<Hash, const Chunk*>> staged;
    std::unordered_set<Hash, HashHasher> staged_cids;

    for (const CommitRecord& r : group) {
      const Hash& cid = *r.cid;
      const Chunk& chunk = *r.chunk;
      if (staged_cids.count(cid) > 0 || ContainsLocked(cid)) {
        stats_.RecordPut(chunk.serialized_size(), /*dedup_hit=*/true);
        continue;
      }
      AppendRecord(&buf, cid, chunk);
      staged.emplace_back(cid, &chunk);
      staged_cids.insert(cid);
      if (options_.durability == DurabilityPolicy::kAlways) {
        FB_RETURN_NOT_OK(CommitStaged(&buf, &staged));
        staged_cids.clear();
      }
    }
    FB_RETURN_NOT_OK(CommitStaged(&buf, &staged));

    need_flush = memtable_logical_bytes_ >= options_.memtable_bytes;
  }
  // The flush (SST build + compaction) runs with mu_ released so
  // readers keep probing memtable_/imm_/runs_ during the I/O.
  if (need_flush) return FlushAndCompact();
  return Status::OK();
}

Status LsmChunkStore::Put(const Hash& cid, const Chunk& chunk) {
  return gc_.Submit(cid, chunk);
}

Status LsmChunkStore::PutBatch(const ChunkBatch& batch) {
  return gc_.Submit(batch);
}

Result<LsmChunkStore::RunPtr> LsmChunkStore::BuildRun(
    size_t tier, size_t n, const RecordSource& next) {
  // The whole SST build is file I/O; holding the store lock here would
  // stall every reader for the duration.
  mu_.AssertNotHeld();
  auto run = std::make_shared<Run>();
  run->seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  run->tier = tier;
  run->path = SstPath(run->seq, tier);
  // Build under a .tmp name and rename once durable: recovery treats a
  // torn SST as corruption, so a crash mid-build must never leave a
  // partial file under the real name (leftover .tmp files are swept on
  // open).
  const std::string tmp = run->path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("create " + tmp);

  run->entries.reserve(n);
  Bytes record;
  Status s;
  for (size_t i = 0; i < n; ++i) {
    Hash cid;
    record.clear();
    s = next(i, &cid, &record);
    if (!s.ok()) break;
    if (std::fwrite(record.data(), 1, record.size(), f) != record.size()) {
      s = Status::IOError("short write to " + tmp);
      break;
    }
    run->entries.push_back(IndexEntry{
        cid, run->bytes,
        static_cast<uint32_t>(record.size() - kRecordHeaderSize)});
    run->bytes += record.size();
  }
  // An SST is born durable: its WAL is about to be deleted (flush) or
  // its inputs unlinked (compaction), so the file must survive power
  // loss before either happens.
  if (s.ok()) s = SyncFile(f, "sst");
  std::fclose(f);
  FB_RETURN_NOT_OK(s);
  std::error_code ec;
  std::filesystem::rename(tmp, run->path, ec);
  if (ec) return Status::IOError("rename " + tmp + ": " + ec.message());
  FB_RETURN_NOT_OK(FinishRun(run.get()));
  {
    MutexLock bl(backend_stats_mu_);
    backend_stats_.sst_bytes += run->bytes;
  }
  return run;
}

Status LsmChunkStore::FlushAndCompact() {
  MutexLock flush(flush_mu_);

  // Phase 1 — seal (under mu_, no I/O except the WAL rotation's fopen):
  // move the memtable into imm_ where readers still find it, rotate to a
  // fresh WAL so concurrent commits keep logging, and snapshot pointers
  // into imm_ for the unlocked SST build. The old WAL file stays on disk
  // until the SST is durable: a crash inside this window replays it.
  std::vector<std::pair<Hash, const Chunk*>> sorted;
  std::string old_wal;
  {
    MutexLock lock(mu_);
    if (memtable_.empty()) {
      lock.Unlock();
      return CompactUntilStable();
    }
    imm_ = std::move(memtable_);
    memtable_.clear();
    memtable_logical_bytes_ = 0;

    std::fclose(wal_);
    old_wal = wal_path_;
    wal_seq_ = next_seq_.fetch_add(1, std::memory_order_relaxed);
    wal_path_ = WalPath(wal_seq_);
    wal_ = std::fopen(wal_path_.c_str(), "ab");
    if (wal_ == nullptr) {
      return Status::IOError(std::string("rotate wal: ") +
                             std::strerror(errno));
    }

    sorted.reserve(imm_.size());
    for (const auto& [cid, chunk] : imm_) sorted.emplace_back(cid, &chunk);
  }
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return CidCompare(a.first, b.first) < 0;
  });

  // Phase 2 — build the SST with mu_ released. The pointers reach into
  // imm_, which only this (flush_mu_-serialized) flusher may mutate.
  auto run = BuildRun(
      /*tier=*/0, sorted.size(), [&](size_t i, Hash* cid, Bytes* record) {
        *cid = sorted[i].first;
        AppendRecord(record, *cid, *sorted[i].second);
        return Status::OK();
      });
  if (!run.ok()) {
    // Put the sealed records back so the store stays complete; the old
    // WAL file still holds them for crash recovery, and the duplicate
    // records a later flush leaves behind are deduped on replay.
    MutexLock lock(mu_);
    for (auto& [cid, chunk] : imm_) {
      memtable_logical_bytes_ += chunk.serialized_size();
      memtable_.emplace(cid, std::move(chunk));
    }
    imm_.clear();
    return run.status();
  }

  // Phase 3 — republish under mu_: the run becomes visible, imm_ drains.
  {
    MutexLock lock(mu_);
    runs_.insert(runs_.begin(), std::move(*run));
    imm_.clear();
  }
  {
    MutexLock bl(backend_stats_mu_);
    ++backend_stats_.flushes;
  }
  // The SST now durably holds everything the old WAL held.
  std::error_code ec;
  std::filesystem::remove(old_wal, ec);

  return CompactUntilStable();
}

Result<LsmChunkStore::RunPtr> LsmChunkStore::MergeRuns(
    const std::vector<RunPtr>& victims, size_t tier) {
  // Runs without the memtable lock (BuildRun asserts it): readers keep
  // serving from the victims, still published in runs_, throughout.
  // Content addressing: victims are disjoint, so the merge is a re-sort
  // of their records into one file. Bodies are copied raw (already
  // cid-verified when first written or loaded).
  struct Source {
    const Run* run;
    const IndexEntry* entry;
  };
  std::vector<Source> sources;
  for (const RunPtr& run : victims) {
    for (const IndexEntry& e : run->entries) {
      sources.push_back(Source{run.get(), &e});
    }
  }
  std::sort(sources.begin(), sources.end(),
            [](const Source& a, const Source& b) {
              return CidCompare(a.entry->cid, b.entry->cid) < 0;
            });

  return BuildRun(
      tier, sources.size(), [&](size_t i, Hash* cid, Bytes* record) {
        const Source& src = sources[i];
        *cid = src.entry->cid;
        return ReadRawRecordAt(src.run->file, src.entry->offset,
                               src.entry->length, record);
      });
}

Status LsmChunkStore::CompactUntilStable() {
  // Size-tiered: when any tier holds >= fanout runs, merge them into
  // one run in the next tier. Repeat until stable. Victims stay
  // published in runs_ while the merge writes (readers keep serving
  // from them); only the swap at the end takes mu_.
  for (;;) {
    std::vector<RunPtr> victims;
    size_t victim_tier = SIZE_MAX;
    {
      MutexLock lock(mu_);
      std::unordered_map<size_t, size_t> counts;
      for (const RunPtr& run : runs_) ++counts[run->tier];
      for (const auto& [tier, n] : counts) {
        if (n >= options_.fanout && tier < victim_tier) victim_tier = tier;
      }
      if (victim_tier == SIZE_MAX) return Status::OK();
      for (const RunPtr& run : runs_) {
        if (run->tier == victim_tier) victims.push_back(run);
      }
    }

    auto merged = MergeRuns(victims, victim_tier + 1);
    // On failure runs_ was never touched: the store stays usable.
    FB_RETURN_NOT_OK(merged.status());

    {
      MutexLock lock(mu_);
      // Only the flush_mu_ holder mutates runs_, so the victim set we
      // snapshotted is exactly what is still published.
      std::vector<RunPtr> keep;
      keep.reserve(runs_.size());
      for (RunPtr& run : runs_) {
        if (run->tier != victim_tier) keep.push_back(std::move(run));
      }
      // Keep probe order tidy: the merged run precedes deeper tiers.
      auto pos = std::find_if(keep.begin(), keep.end(), [&](const RunPtr& r) {
        return r->tier > victim_tier;
      });
      keep.insert(pos, std::move(*merged));
      runs_ = std::move(keep);
    }
    {
      MutexLock bl(backend_stats_mu_);
      ++backend_stats_.compactions;
    }
    // Unlink victim files; in-flight readers still hold the RunPtr (and
    // its open handle), so their reads complete off the unlinked inode.
    std::error_code ec;
    for (const RunPtr& run : victims) {
      std::filesystem::remove(run->path, ec);
    }
  }
}

Status LsmChunkStore::Flush() { return FlushAndCompact(); }

Status LsmChunkStore::Get(const Hash& cid, Chunk* chunk) const {
  stats_.RecordGet();
  if (block_cache_ != nullptr && block_cache_->Get(cid, chunk)) {
    return Status::OK();
  }
  RunPtr run;
  IndexEntry entry;
  {
    MutexLock lock(mu_);
    auto mit = memtable_.find(cid);
    if (mit != memtable_.end()) {
      *chunk = mit->second;
      return Status::OK();
    }
    // The sealing memtable: its SST may still be building.
    mit = imm_.find(cid);
    if (mit != imm_.end()) {
      *chunk = mit->second;
      return Status::OK();
    }
    const IndexEntry* e = FindInRuns(cid, &run);
    if (e != nullptr) entry = *e;
  }
  if (run == nullptr) return Status::NotFound("chunk " + cid.ToShortHex());

  FB_RETURN_NOT_OK(ReadRecordAt(run->file, entry.offset, entry.length, chunk));
  if (block_cache_ != nullptr) block_cache_->Put(cid, *chunk);
  return Status::OK();
}

Status LsmChunkStore::GetBatch(const std::vector<Hash>& cids,
                               std::vector<Chunk>* chunks) const {
  chunks->resize(cids.size());
  for (size_t i = 0; i < cids.size(); ++i) {
    FB_RETURN_NOT_OK(Get(cids[i], &(*chunks)[i]));
  }
  return Status::OK();
}

bool LsmChunkStore::Contains(const Hash& cid) const {
  MutexLock lock(mu_);
  return ContainsLocked(cid);
}

ChunkStoreStats LsmChunkStore::stats() const {
  ChunkStoreStats s = stats_.Snapshot();
  if (block_cache_ != nullptr) block_cache_->AddStatsTo(&s);
  return s;
}

LsmChunkStoreBackendStats LsmChunkStore::backend_stats() const {
  LsmChunkStoreBackendStats out;
  {
    MutexLock bl(backend_stats_mu_);
    out = backend_stats_;
  }
  {
    MutexLock lock(mu_);
    out.runs = runs_.size();
  }
  out.bloom_skips = bloom_skips_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace fb
