// Outside-in instrumentation for bench_forkbase: spans recorded around
// calls into the system's public interfaces, a timing ChunkStore
// decorator, a timing ReplicationCommitHook, and process counters.
//
// Nothing here reaches inside src/: the decorator is inserted through
// ForkBase::OpenPersistent's StoreWrapper and the hook through
// ForkBase::AttachReplication, the same seams a deployment uses.

#ifndef FORKBASE_PERFBENCH_INSTRUMENT_H_
#define FORKBASE_PERFBENCH_INSTRUMENT_H_

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/db.h"
#include "chunk/chunk_store.h"

namespace fb {
namespace perf {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  const char* name;  // string literal
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;  // 0 = none
  uint32_t tid;
};

// Process-wide span log. Disabled (every call a no-op) unless Enable()d.
// Each thread appends to its own buffer; buffers outlive their threads,
// so server threads that exit before the dump lose nothing. Storage is
// capped: past the cap spans are dropped, while the aggregate counters
// the decorators keep stay exact.
class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  void Enable(size_t max_spans) {
    cap_ = max_spans;
    enabled_.store(true, std::memory_order_release);
  }
  // Acquire pairs with Enable's release: a thread that sees the tracer on
  // also sees its cap.
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& s) {
    if (stored_.fetch_add(1, std::memory_order_relaxed) >= cap_) return;
    Buffer()->spans.push_back(s);
  }

  uint32_t ThreadId() { return Buffer()->tid; }

  // Chrome trace-event JSON ("X" complete events, microseconds), which
  // Perfetto and chrome://tracing open directly. Call only once every
  // recording thread has stopped.
  bool WriteChromeJson(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    int64_t t0 = INT64_MAX;
    for (const auto& b : bufs_) {
      for (const Span& s : b->spans) t0 = std::min(t0, s.start_ns);
    }
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    char line[256];
    for (const auto& b : bufs_) {
      for (const Span& s : b->spans) {
        std::snprintf(line, sizeof(line),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                      first ? "" : ",", s.name, s.tid,
                      (s.start_ns - t0) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent));
        out << line;
        first = false;
      }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<Span> spans;
  };

  ThreadBuffer* Buffer() {
    thread_local ThreadBuffer* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      bufs_.push_back(std::make_unique<ThreadBuffer>());
      mine = bufs_.back().get();
      mine->tid = static_cast<uint32_t>(bufs_.size());
    }
    return mine;
  }

  std::atomic<bool> enabled_{false};
  size_t cap_ = 0;
  std::atomic<size_t> stored_{0};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;  // guards bufs_ (registration and dump)
  std::vector<std::unique_ptr<ThreadBuffer>> bufs_;
};

// Innermost open span of the calling thread (0 = none): the parent of
// any span the thread opens next. A child running on another thread
// (a server worker, a replication sender) therefore has no parent.
inline uint64_t& OpenSpan() {
  thread_local uint64_t open = 0;
  return open;
}

// Records [start, destruction) as a span of the calling thread.
// `start_ns` may lie in the past (an open-loop op starts at its
// intended send time, not when the sender got to it).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t start_ns = 0)
      : active_(Tracer::Get().enabled()) {
    if (!active_) return;
    span_.name = name;
    span_.start_ns = start_ns != 0 ? start_ns : NowNs();
    span_.id = Tracer::Get().NextId();
    span_.parent = OpenSpan();
    OpenSpan() = span_.id;
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = NowNs();
    span_.tid = Tracer::Get().ThreadId();
    OpenSpan() = span_.parent;
    Tracer::Get().Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  Span span_{};
};

// ---------------------------------------------------------------------------
// Timing decorators
// ---------------------------------------------------------------------------

// Busy time and call counts of a chunk store, split into writes (Put,
// PutBatch) and reads (Get, GetBatch, Contains).
struct ChunkBusy {
  uint64_t put_ns = 0;
  uint64_t get_ns = 0;
  uint64_t put_calls = 0;
  uint64_t get_calls = 0;

  void Accumulate(const ChunkBusy& o) {
    put_ns += o.put_ns;
    get_ns += o.get_ns;
    put_calls += o.put_calls;
    get_calls += o.get_calls;
  }
};

// Forwards every call to `base` and times it. Inserted directly over the
// physical store, so its busy time is the chunk layer's own (fsync
// included), not the peer-resolution or replication views above it.
class TimingChunkStore : public ChunkStore {
 public:
  explicit TimingChunkStore(std::unique_ptr<ChunkStore> base)
      : base_(std::move(base)) {}

  ChunkStore* base() const { return base_.get(); }

  using ChunkStore::Put;
  Status Put(const Hash& cid, const Chunk& chunk) override {
    Timed t("chunk.Put", &put_ns_, &put_calls_);
    return base_->Put(cid, chunk);
  }
  Status Get(const Hash& cid, Chunk* chunk) const override {
    Timed t("chunk.Get", &get_ns_, &get_calls_);
    return base_->Get(cid, chunk);
  }
  bool Contains(const Hash& cid) const override {
    Timed t("chunk.Contains", &get_ns_, &get_calls_);
    return base_->Contains(cid);
  }
  Status PutBatch(const ChunkBatch& batch) override {
    Timed t("chunk.PutBatch", &put_ns_, &put_calls_);
    return base_->PutBatch(batch);
  }
  Status GetBatch(const std::vector<Hash>& cids,
                  std::vector<Chunk>* chunks) const override {
    Timed t("chunk.GetBatch", &get_ns_, &get_calls_);
    return base_->GetBatch(cids, chunks);
  }
  ChunkStoreStats stats() const override { return base_->stats(); }

  ChunkBusy busy() const {
    ChunkBusy b;
    b.put_ns = put_ns_.load(std::memory_order_relaxed);
    b.get_ns = get_ns_.load(std::memory_order_relaxed);
    b.put_calls = put_calls_.load(std::memory_order_relaxed);
    b.get_calls = get_calls_.load(std::memory_order_relaxed);
    return b;
  }

 private:
  class Timed {
   public:
    Timed(const char* name, std::atomic<uint64_t>* ns,
          std::atomic<uint64_t>* calls)
        : span_(name), start_(NowNs()), ns_(ns) {
      calls->fetch_add(1, std::memory_order_relaxed);
    }
    ~Timed() {
      ns_->fetch_add(static_cast<uint64_t>(NowNs() - start_),
                     std::memory_order_relaxed);
    }

   private:
    ScopedSpan span_;
    int64_t start_;
    std::atomic<uint64_t>* ns_;
  };

  std::unique_ptr<ChunkStore> base_;
  mutable std::atomic<uint64_t> put_ns_{0}, get_ns_{0};
  mutable std::atomic<uint64_t> put_calls_{0}, get_calls_{0};
};

// Wraps the replica group's commit hook and times each quorum wait.
class TimingCommitHook : public ReplicationCommitHook {
 public:
  explicit TimingCommitHook(ReplicationCommitHook* inner) : inner_(inner) {}

  Status WaitCommitDurable() override {
    ScopedSpan span("replication.quorum_wait");
    const int64_t start = NowNs();
    const Status s = inner_->WaitCommitDurable();
    wait_ns_.fetch_add(static_cast<uint64_t>(NowNs() - start),
                       std::memory_order_relaxed);
    return s;
  }

  uint64_t wait_ns() const { return wait_ns_.load(std::memory_order_relaxed); }

 private:
  ReplicationCommitHook* inner_;
  std::atomic<uint64_t> wait_ns_{0};
};

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

struct OsSample {
  double user_s = 0;
  double sys_s = 0;
  uint64_t ctx_switches = 0;
  uint64_t write_bytes = 0;  // /proc/self/io: bytes sent to the block layer
};

inline OsSample SampleOs() {
  OsSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6;
  s.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
  s.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "write_bytes:") s.write_bytes = value;
  }
  return s;
}

inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perf
}  // namespace fb

#endif  // FORKBASE_PERFBENCH_INSTRUMENT_H_
