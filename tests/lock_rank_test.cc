// The debug lock-rank deadlock detector (util/mutex.h): acquiring a
// lower-ranked mutex while holding a higher-ranked one must abort with
// a diagnostic, sibling walks flagged kSameRankOk must not, and the
// AssertHeld/AssertNotHeld debug assertions must fire. Death tests pin
// the detector itself; the LSM stress test at the bottom drives flush +
// compaction concurrently with reads under the rank-checked mutexes —
// the whole "flush never does I/O under the memtable lock" discipline
// runs, for real, with the detector armed.
//
// The detector compiles away under NDEBUG; every death test skips there.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/lsm_chunk_store.h"
#include "util/mutex.h"

namespace fb {
namespace {

#ifdef NDEBUG
constexpr bool kRankChecked = false;
#else
constexpr bool kRankChecked = true;
#endif

// TSan's own deadlock detector aborts past 64 simultaneously held
// locks, which the overflow test below must exceed by design.
#if defined(__SANITIZE_THREAD__)
constexpr bool kUnderTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif
#else
constexpr bool kUnderTsan = false;
#endif

TEST(LockRankTest, IncreasingRanksAreLegal) {
  Mutex outer(kRankService, "outer");
  Mutex inner(kRankStore, "inner");
  MutexLock l1(outer);
  MutexLock l2(inner);  // 100 -> 500: fine
}

TEST(LockRankTest, ReleaseAndReacquireInAnyOrderIsLegal) {
  Mutex a(kRankStore, "a");
  Mutex b(kRankCache, "b");
  { MutexLock l(b); }  // held alone: no order to violate
  { MutexLock l(a); }
  {
    MutexLock l1(a);
    MutexLock l2(b);
  }
}

TEST(LockRankTest, SameRankSiblingsWithFlagAreLegal) {
  // The branch-stripe / store-shard walk: siblings of one rank taken
  // together, both constructed kSameRankOk.
  Mutex s0(kRankBranchStripe, "stripe-0", kSameRankOk);
  Mutex s1(kRankBranchStripe, "stripe-1", kSameRankOk);
  MutexLock l0(s0);
  MutexLock l1(s1);
}

TEST(LockRankTest, UnrankedMutexIsExemptFromOrdering) {
  Mutex ranked(kRankStore, "ranked");
  Mutex unranked;  // kRankUnranked: AssertHeld bookkeeping only
  MutexLock l1(ranked);
  MutexLock l2(unranked);
}

TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  if (!kRankChecked) GTEST_SKIP() << "rank checking is debug-only";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex store(kRankStore, "store");
  Mutex service(kRankService, "service");
  EXPECT_DEATH(
      {
        MutexLock l1(store);
        MutexLock l2(service);  // 500 -> 100: inversion
      },
      "lock rank violation");
}

TEST(LockRankDeathTest, SameRankWithoutFlagAborts) {
  if (!kRankChecked) GTEST_SKIP() << "rank checking is debug-only";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a(kRankStore, "store-a");
  Mutex b(kRankStore, "store-b");
  EXPECT_DEATH(
      {
        MutexLock l1(a);
        MutexLock l2(b);  // same rank, neither kSameRankOk
      },
      "lock rank violation");
}

TEST(LockRankDeathTest, SameRankFlagMustBeMutual) {
  if (!kRankChecked) GTEST_SKIP() << "rank checking is debug-only";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // One side opting in is not enough: the flag describes a sibling SET.
  Mutex flagged(kRankStore, "flagged", kSameRankOk);
  Mutex plain(kRankStore, "plain");
  EXPECT_DEATH(
      {
        MutexLock l1(flagged);
        MutexLock l2(plain);
      },
      "lock rank violation");
}

TEST(LockRankDeathTest, AssertHeldAbortsWhenNotHeld) {
  if (!kRankChecked) GTEST_SKIP() << "debug-only assertion";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu(kRankStore, "unheld");
  EXPECT_DEATH(mu.AssertHeld(), "AssertHeld failed");
}

TEST(LockRankDeathTest, AssertNotHeldAbortsWhenHeld) {
  if (!kRankChecked) GTEST_SKIP() << "debug-only assertion";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu(kRankStore, "held");
  EXPECT_DEATH(
      {
        MutexLock l(mu);
        mu.AssertNotHeld();
      },
      "AssertNotHeld failed");
}

TEST(LockRankTest, HeldStackSurvivesDeepNesting) {
  // Past HeldStack::kMax entries only depth is tracked; acquire/release
  // must still balance without corruption.
  if (kUnderTsan) {
    GTEST_SKIP() << "TSan caps simultaneously held locks at 64; this "
                    "test must exceed HeldStack::kMax (== 64) by design";
  }
  std::vector<std::unique_ptr<Mutex>> mus;
  for (int i = 0; i < 80; ++i) {
    mus.push_back(
        std::make_unique<Mutex>(kRankBranchStripe, "deep", kSameRankOk));
  }
  for (auto& m : mus) m->Lock();
  for (auto it = mus.rbegin(); it != mus.rend(); ++it) (*it)->Unlock();
  // The thread's stack is empty again: a fresh ordered pair still works.
  Mutex outer(kRankService, "outer");
  Mutex inner(kRankStore, "inner");
  MutexLock l1(outer);
  MutexLock l2(inner);
}

// ---------------------------------------------------------------------------
// LsmChunkStore under the armed detector: flush + compaction concurrent
// with Get. A tiny memtable forces a flush every few puts and fanout=2
// forces merges, so writer threads continuously run the seal -> BuildRun
// (unlocked) -> republish path and the compaction snapshot/merge/swap
// path while reader threads probe memtable, sealing memtable and runs.
// Any I/O performed under mu_, or any flush_mu_/mu_ inversion, aborts
// the whole test via the rank registry / AssertNotHeld.
// ---------------------------------------------------------------------------

TEST(LockRankLsmTest, ConcurrentFlushCompactionAndGetHoldTheRankDiscipline) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("fb_lock_rank_lsm_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  LsmChunkStoreOptions opts;
  opts.memtable_bytes = 2048;  // flush every handful of puts
  opts.fanout = 2;             // compact constantly
  opts.durability = DurabilityPolicy::kNone;
  auto opened = LsmChunkStore::Open(dir.string(), opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  LsmChunkStore* store = opened->get();

  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kChunksPerWriter = 120;

  // Pre-sized slots + an atomic publish count per writer, so readers can
  // chase each writer's committed prefix without racing a push_back.
  std::vector<std::vector<Hash>> written(kWriters,
                                         std::vector<Hash>(kChunksPerWriter));
  std::array<std::atomic<size_t>, kWriters> published{};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kChunksPerWriter; ++i) {
        const std::string payload = "writer-" + std::to_string(w) + "-chunk-" +
                                    std::to_string(i) +
                                    std::string(64, 'x');
        Chunk chunk(ChunkType::kBlob, Bytes(payload.begin(), payload.end()));
        const Hash cid = chunk.ComputeCid();
        if (!store->Put(cid, chunk).ok()) {
          failures.fetch_add(1);
          return;
        }
        written[w][i] = cid;
        published[w].store(i + 1, std::memory_order_release);
        // Interleave explicit flushes so compaction triggers while other
        // writers are mid-commit and readers are mid-probe.
        if (i % 16 == 15 && !store->Flush().ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        for (int w = 0; w < kWriters; ++w) {
          const size_t n = published[w].load(std::memory_order_acquire);
          for (size_t i = r; i < n; i += kReaders) {
            Chunk chunk;
            if (!store->Get(written[w][i], &chunk).ok()) {
              failures.fetch_add(1);
              return;
            }
          }
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);

  // Every chunk is readable after the dust settles, and the workload
  // actually exercised the paths under test.
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(published[w].load(), static_cast<size_t>(kChunksPerWriter));
    for (const Hash& cid : written[w]) {
      Chunk chunk;
      EXPECT_TRUE(store->Get(cid, &chunk).ok()) << cid.ToShortHex();
    }
  }
  const LsmChunkStoreBackendStats bs = store->backend_stats();
  EXPECT_GT(bs.flushes, 0u);
  EXPECT_GT(bs.compactions, 0u);

  opened->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fb
