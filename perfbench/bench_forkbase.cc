// bench_forkbase: the repository benchmark.
//
// One process runs one workload. It prints every metric as
// `name value unit`, every correctness check as `check.<name> ok|FAIL`,
// and writes one JSON result file:
//
//   bench_forkbase --workload=<name> --seed=<n> [--seconds=<s>]
//                  [--trace=<file>] [--out=<file>] [--dir=<dir>]
//   bench_forkbase --selftest
//
//   kv_point       1 servlet, kLog + kBatch; 90% GetValue / 10% Put
//   quorum_put     3-member replica group, kLog + kQuorum; writers Put
//                  (90%), one reader GetValues (10%), all at the leader
//   wiki_history   2 peer-wired kLsm servlets behind ClusterClient,
//                  driven through ForkBaseWiki
//   ledger_commit  embedded ForkBaseLedger running the Blockbench
//                  kvstore contract, closed loop
//
// perfbench/README.md says why each workload exists and defines every
// metric. The servlets live in this process but are wired exactly as
// examples/forkbased.cpp wires a daemon, and every client call crosses a
// loopback socket. A run goes: setup, warm-up, an open-loop reference
// step at a fixed rate, then a closed-loop throughput step; spare setups
// before and after all that are timed too, and setup_s is the median.
// --trace replaces the throughput step with the embedded twin (the
// reference step replayed against the same engines in-process), inserts
// the timing decorators, reports the per-layer metrics and writes a
// Chrome trace-event file.
//
// The exit status is nonzero when any check fails.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "api/db.h"
#include "api/service.h"
#include "blockchain/block.h"
#include "blockchain/forkbase_ledger.h"
#include "chunk/peer_resolver.h"
#include "cluster/client.h"
#include "cluster/cluster.h"
#include "instrument.h"
#include "kvstore/lsm_chunk_store.h"
#include "latency_histogram.h"
#include "loadgen.h"
#include "replication/group.h"
#include "replication/replicated_store.h"
#include "rpc/remote_service.h"
#include "rpc/server.h"
#include "util/random.h"
#include "util/sha256.h"
#include "wiki/wiki.h"

namespace fb {
namespace perf {
namespace {

// The reference step is measured in kWindows windows and the closed-loop
// throughput in kThroughputWindows; each metric is the median over them.
constexpr int kWindows = 5;
constexpr int kThroughputWindows = 3;
// setup_s is the median of all the setups of an untraced run: the one
// measured, and spare ones timed and dropped, before the measurement and
// after it. The host's speed drifts over seconds, and setups done back
// to back would sample only the run's first ones.
constexpr int kSpareSetups = 2;
constexpr double kMinSpareSetupS = 1.0;
constexpr size_t kMaxSpans = 100000;
// The generator's own lateness above which a step is not a valid
// measurement of the system.
constexpr double kMaxValidLagUs = 1000;

// ---------------------------------------------------------------------------
// Flags and report
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_file;  // empty: untraced run
  std::string out;         // result JSON (optional)
  std::string dir = ".";   // parent of the run's store directories
  bool selftest = false;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--selftest") {
      f->selftest = true;
    } else if (key == "--workload") {
      f->workload = val;
    } else if (key == "--seed") {
      f->seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      f->seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(f->seconds > 0)) return false;
    } else if (key == "--trace") {
      f->trace_file = val;
      if (val.empty()) return false;
    } else if (key == "--out") {
      f->out = val;
    } else if (key == "--dir") {
      f->dir = val;
    } else {
      return false;
    }
  }
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

const char* BuildType() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "release";
#elif defined(__OPTIMIZE__)
  return "optimized-with-asserts";
#else
  return "debug";
#endif
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      Check("finite." + name, false);
      value = 0;
    }
    std::printf("%s %.6g %s\n", name.c_str(), value, unit);
    char num[64];
    std::snprintf(num, sizeof(num), "%.12g", value);
    metrics_.push_back(JsonString(name) + ": {\"value\": " + num +
                       ", \"unit\": " + JsonString(unit) + "}");
  }
  void Check(const std::string& name, bool ok) {
    std::printf("check.%s %s\n", name.c_str(), ok ? "ok" : "FAIL");
    checks_.push_back(JsonString(name) + ": " + (ok ? "true" : "false"));
    ok_ = ok_ && ok;
  }
  void Info(const std::string& name, const std::string& value) {
    std::printf("%s %s\n", name.c_str(), value.c_str());
    info_.push_back(JsonString(name) + ": " + JsonString(value));
  }
  void Info(const std::string& name, double value) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.12g", value);
    Info(name, std::string(num));
  }
  // `failed` calls returned an error; `abandoned` arrivals were never
  // issued because the generator fell behind, and count as neither.
  void Ops(uint64_t attempted, uint64_t failed, uint64_t abandoned = 0) {
    attempted_ += attempted;
    failed_ += failed;
    abandoned_ += abandoned;
  }

  bool ok() const { return ok_; }

  bool Write(const Flags& f, const char* backend, size_t senders) const {
    std::ofstream out(f.out);
    if (!out) return false;
    auto join = [](const std::vector<std::string>& items) {
      std::string s;
      for (size_t i = 0; i < items.size(); ++i) {
        s += (i == 0 ? "\n    " : ",\n    ") + items[i];
      }
      return s + "\n  ";
    };
    out << "{\n  \"workload\": " << JsonString(f.workload)
        << ",\n  \"seed\": " << f.seed << ",\n  \"seconds\": " << f.seconds
        << ",\n  \"trace\": " << (f.trace_file.empty() ? "false" : "true")
        << ",\n  \"env\": {\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"senders\": " << senders
        << ", \"cpu_model\": " << JsonString(CpuModel())
        << ", \"build_type\": " << JsonString(BuildType())
        << ", \"compiler\": " << JsonString(Compiler())
        << ", \"backend\": " << JsonString(backend) << "}"
        << ",\n  \"correct\": " << (ok_ ? "true" : "false")
        << ",\n  \"attempted\": " << attempted_
        << ",\n  \"failed\": " << failed_
        << ",\n  \"abandoned\": " << abandoned_ << ",\n  \"checks\": {"
        << join(checks_) << "},\n  \"info\": {" << join(info_)
        << "},\n  \"metrics\": {" << join(metrics_) << "}\n}\n";
    return static_cast<bool>(out);
  }

 private:
  bool ok_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t abandoned_ = 0;
  std::vector<std::string> metrics_, checks_, info_;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// setup_s is the median of the run's setups; each one goes along too.
void SetupTime(const std::vector<double>& each, Report* r) {
  r->Metric("setup_s", Median(each), "s");
  std::string all;
  for (double s : each) all += (all.empty() ? "" : " ") + std::to_string(s);
  r->Info("setup_s.each", all);
}

// The spare setups on one side of an untraced run's measurement: calls
// `spare`, which sets up, times and drops one deployment, kSpareSetups
// times, or more while they take less than kMinSpareSetupS in all.
// Returns false when a setup failed.
bool SpareSetups(bool traced, const std::function<bool()>& spare) {
  const int64_t start = NowNs();
  for (int n = 0; !traced && (n < kSpareSetups ||
                              NowNs() - start < kMinSpareSetupS * 1e9);
       ++n) {
    if (!spare()) return false;
  }
  return true;
}

// Exact percentiles of seeded data spanning eight decades, recorded into
// four shards and merged, must be matched within 0.5% (the buckets
// promise 0.4%).
bool HistogramSelfTest() {
  constexpr int kSamples = 200000;
  Rng rng(12345);
  std::vector<uint64_t> exact;
  exact.reserve(kSamples);
  auto shards = std::make_unique<LatencyHistogram[]>(4);
  for (int i = 0; i < kSamples; ++i) {
    const double decades = 2 + 8 * rng.NextDouble();
    const uint64_t v =
        i % 10 == 0 ? 777 : static_cast<uint64_t>(std::pow(10.0, decades));
    exact.push_back(v);
    shards[i % 4].Record(v);
  }
  auto merged = std::make_unique<LatencyHistogram>();
  for (int s = 0; s < 4; ++s) merged->Merge(shards[s]);
  std::sort(exact.begin(), exact.end());
  bool ok = merged->count() == exact.size();
  for (double p : {0.1, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0}) {
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(p / 100 * kSamples)), 1, kSamples);
    const double want = exact[rank - 1] / 1e3;
    const double got = merged->PercentileUs(p);
    if (std::fabs(got - want) > 0.005 * want) {
      std::fprintf(stderr, "histogram p%g: %.4f us, exact %.4f us\n", p, got,
                   want);
      ok = false;
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Deployment: in-process servlets wired like forkbased
// ---------------------------------------------------------------------------

// Counters the layers expose, sampled at one instant. Per-layer metrics
// are differences of two samples around the reference step.
struct Counters {
  ChunkStoreStats view;      // engine-facing stores (peer fetch counters)
  ChunkStoreStats physical;  // the physical stores under them
  LsmChunkStoreBackendStats lsm;
  HotHeadCacheStats hot;
  uint64_t frames = 0;
  uint64_t protocol_errors = 0;
  ChunkBusy busy;
  uint64_t quorum_wait_ns = 0;
  uint64_t shipments = 0;
  uint64_t records_shipped = 0;
  uint64_t quorum_timeouts = 0;
  uint64_t user_bytes = 0;  // value bytes written by users, preload included
};

// One servlet, opened as `forkbased --dir <dir> [--peers ..] [--group ..]`
// opens it: physical store -> ServletChunkStore (with peers) ->
// ReplicatingChunkStore (in a group). A traced run slips the timing
// decorator directly over the physical store.
struct Servlet {
  std::unique_ptr<PeerChunkResolver> resolver;
  ChunkStore* raw_local = nullptr;
  TimingChunkStore* timing = nullptr;
  LsmChunkStore* lsm = nullptr;
  repl::ReplicatingChunkStore* repl_store = nullptr;
  std::unique_ptr<ForkBase> engine;
  std::unique_ptr<rpc::ForkBaseServer> server;
  std::unique_ptr<repl::ReplicaGroup> group;
  std::unique_ptr<TimingCommitHook> hook;

  ~Servlet() {
    if (server != nullptr) server->Stop();
    if (group != nullptr) group->Stop();
  }

  const ChunkStore* physical() const {
    return raw_local != nullptr ? raw_local : engine->store();
  }
};

struct ServletSpec {
  DBOptions db;
  size_t peers = 0;
  bool replicated = false;
  bool timing = false;
};

Result<std::unique_ptr<Servlet>> OpenServlet(const std::string& dir,
                                             const ServletSpec& spec) {
  auto servlet = std::make_unique<Servlet>();
  Servlet* s = servlet.get();
  if (spec.peers > 0) s->resolver = std::make_unique<PeerChunkResolver>();
  ForkBase::StoreWrapper wrap;
  if (spec.peers > 0 || spec.replicated || spec.timing) {
    wrap = [s, &spec](std::unique_ptr<ChunkStore> base)
        -> std::unique_ptr<ChunkStore> {
      s->lsm = dynamic_cast<LsmChunkStore*>(base.get());
      if (spec.timing) {
        auto timed = std::make_unique<TimingChunkStore>(std::move(base));
        s->timing = timed.get();
        base = std::move(timed);
      }
      s->raw_local = base.get();
      std::unique_ptr<ChunkStore> view = std::move(base);
      if (s->resolver != nullptr) {
        view = std::make_unique<ServletChunkStore>(std::move(view),
                                                   s->resolver.get());
      }
      if (spec.replicated) {
        auto wrapped =
            std::make_unique<repl::ReplicatingChunkStore>(std::move(view));
        s->repl_store = wrapped.get();
        view = std::move(wrapped);
      }
      return view;
    };
  }
  FB_ASSIGN_OR_RETURN(s->engine, ForkBase::OpenPersistent(dir, spec.db, wrap));
  if (s->lsm == nullptr) {
    s->lsm = dynamic_cast<LsmChunkStore*>(s->engine->store());
  }
  rpc::ServerOptions so;
  so.listen = "127.0.0.1:0";
  so.local_chunk_store = s->raw_local;
  so.peer_count = spec.peers;
  FB_ASSIGN_OR_RETURN(s->server,
                      rpc::ForkBaseServer::Start(s->engine.get(), so));
  return servlet;
}

// Points every servlet's peer resolver at all the others.
void WirePeers(const std::vector<std::unique_ptr<Servlet>>& servlets) {
  for (size_t i = 0; i < servlets.size(); ++i) {
    std::vector<std::string> peers;
    for (size_t j = 0; j < servlets.size(); ++j) {
      if (j != i) peers.push_back(servlets[j]->server->endpoint());
    }
    servlets[i]->resolver->SetPeers(peers);
  }
}

// Last acknowledged version of every kv key. A key's one writer
// publishes each acked Put here, so any sender reading the key knows
// which versions it may legitimately see.
using AckedVersions = std::vector<std::atomic<uint64_t>>;

// A set-up workload: servlets, one client connection per sender, the
// senders, and the workload-specific hooks.
struct Deployment {
  const char* backend = "";
  std::vector<std::unique_ptr<Servlet>> servlets;
  size_t serving = 0;  // servlets [0, serving) take client traffic
  std::vector<std::unique_ptr<ForkBaseService>> clients;
  std::vector<std::unique_ptr<EmbeddedService>> embedded;  // per servlet
  std::vector<std::unique_ptr<ForkBaseWiki>> wikis;
  std::unique_ptr<AckedVersions> acked;
  std::vector<std::unique_ptr<Sender>> senders;
  std::vector<Sender*> closed_loop;  // throughput-step senders; empty: all
  uint64_t preload_user_bytes = 0;
  // Points the senders at the embedded engines (true) or back at their
  // socket clients (false).
  std::function<void(bool)> use_twin;
  // Correctness checks once the run has drained.
  std::function<void(Report*)> final_checks;
  // Value bytes the senders' acknowledged writes carried.
  std::function<uint64_t()> run_user_bytes;

  std::vector<Sender*> sender_ptrs() const {
    std::vector<Sender*> out;
    for (const auto& s : senders) out.push_back(s.get());
    return out;
  }

  Counters Sample() const {
    Counters c;
    for (size_t i = 0; i < serving; ++i) {
      const Servlet& s = *servlets[i];
      c.view.Accumulate(s.engine->store()->stats());
      c.physical.Accumulate(s.physical()->stats());
      if (s.lsm != nullptr) {
        const LsmChunkStoreBackendStats b = s.lsm->backend_stats();
        c.lsm.flushes += b.flushes;
        c.lsm.compactions += b.compactions;
        c.lsm.runs += b.runs;
        c.lsm.bloom_skips += b.bloom_skips;
        c.lsm.wal_bytes += b.wal_bytes;
        c.lsm.sst_bytes += b.sst_bytes;
      }
      const HotHeadCacheStats h = s.engine->hot_head_stats();
      c.hot.hits += h.hits;
      c.hot.misses += h.misses;
      const rpc::ForkBaseServer::Stats st = s.server->stats();
      c.frames += st.requests;
      c.protocol_errors += st.protocol_errors;
      if (s.timing != nullptr) c.busy.Accumulate(s.timing->busy());
      if (s.hook != nullptr) c.quorum_wait_ns += s.hook->wait_ns();
      if (s.group != nullptr) {
        const repl::ReplicaGroupStats g = s.group->stats();
        c.shipments += g.shipments_sent;
        c.records_shipped += g.records_shipped;
        c.quorum_timeouts += g.quorum_timeouts;
      }
    }
    c.user_bytes = preload_user_bytes + run_user_bytes();
    return c;
  }
};

// Waits until the filesystem holding `dir` has written back everything
// dirty, deletions included, so that write-back and discards left by
// earlier work (a build, a previous setup or run) stay out of the
// measurement.
void SyncFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// Runs fn(i) for i in [0, n) on n threads; returns the first error.
Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn) {
  std::vector<Status> status(n);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] { status[i] = fn(i); });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : status) FB_RETURN_NOT_OK(s);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// kv_point and quorum_put
// ---------------------------------------------------------------------------

constexpr uint64_t kKvKeys = 10000;
constexpr size_t kKvValueBytes = 256;

// Draws its keys from `keys`. A sender that writes owns those keys (no
// other sender writes them), so its reads of them have one right answer;
// a pure reader (write_fraction 0) reads keys other senders write and
// accepts any version from the one acked before its read was sent to
// the one in flight when the reply came back.
class KvSender : public Sender {
 public:
  KvSender(AckedVersions* acked, std::vector<uint64_t> keys,
           double write_fraction, double weight, uint64_t seed,
           uint64_t stream)
      : acked_(acked),
        keys_(std::move(keys)),
        write_fraction_(write_fraction),
        weight_(weight),
        seed_(seed),
        rng_(MixSeed(seed, stream, 1)) {}

  void Use(ForkBaseService* service, bool embedded) {
    service_ = service;
    embedded_ = embedded;
  }

  double weight() const override { return weight_; }

  // Writes version 0 of every key, 250 keys per PutMany.
  Status Preload() {
    std::vector<std::pair<std::string, Value>> batch;
    for (size_t i = 0; i < keys_.size(); ++i) {
      batch.emplace_back(KeyOf(keys_[i]),
                         Value::OfString(Slice(ValueOf(keys_[i], 0))));
      if (batch.size() == 250 || i + 1 == keys_.size()) {
        FB_RETURN_NOT_OK(service_->PutMany(batch).status());
        batch.clear();
      }
    }
    return Status::OK();
  }

  OpKind Issue(bool* ok) override {
    key_ = keys_[rng_.Uniform(keys_.size())];
    std::atomic<uint64_t>& acked = (*acked_)[key_];
    if (write_fraction_ > 0 && rng_.Bernoulli(write_fraction_)) {
      last_kind_ = kWrite;
      const uint64_t version = acked.load(std::memory_order_relaxed) + 1;
      const Bytes value = ValueOf(key_, version);
      ScopedSpan call(embedded_ ? "embedded.Put" : "service.Put");
      *ok = service_->Put(KeyOf(key_), Value::OfString(Slice(value))).ok();
      if (*ok) {
        acked.store(version, std::memory_order_release);
        written_ += value.size();
      }
      return last_kind_;
    }
    last_kind_ = kRead;
    oldest_ = acked.load(std::memory_order_acquire);
    {
      ScopedSpan call(embedded_ ? "embedded.GetValue" : "service.GetValue");
      auto r = service_->GetValue(KeyOf(key_));
      *ok = r.ok() && r->has_value;
      if (*ok) read_ = std::move(r->value);
    }
    // Only a pure reader can race the key's writer: its Put in flight
    // may land before the read.
    newest_ = acked.load(std::memory_order_acquire) +
              (write_fraction_ > 0 ? 0 : 1);
    return last_kind_;
  }

  void Check() override {
    if (last_kind_ != kRead) return;
    ++reads_checked_;
    const std::string head = KeyOf(key_) + "#";
    const std::string got(read_.begin(), read_.end());
    bool ok = got.compare(0, head.size(), head) == 0;
    if (ok) {
      const uint64_t version =
          std::strtoull(got.c_str() + head.size(), nullptr, 10);
      ok = version >= oldest_ && version <= newest_ &&
           read_ == ValueOf(key_, version);
    }
    if (!ok) ++mismatches_;
  }

  uint64_t bytes_written() const { return written_; }
  uint64_t reads_checked() const { return reads_checked_; }
  uint64_t mismatches() const { return mismatches_; }

  // Reads every key back; each must equal its last acked value. Only
  // meaningful once every writer has stopped.
  Status ReadBack(uint64_t* mismatches) {
    for (uint64_t k : keys_) {
      FB_ASSIGN_OR_RETURN(ValueReadout r, service_->GetValue(KeyOf(k)));
      if (!r.has_value || r.value != ValueOf(k, (*acked_)[k].load())) {
        ++*mismatches;
      }
    }
    return Status::OK();
  }

 private:
  static std::string KeyOf(uint64_t k) { return MakeKey(k, 10, "k"); }

  // "<key>#<version>#" padded to kKvValueBytes with seeded bytes: a read
  // decodes to its own key, and equality pins the exact version.
  Bytes ValueOf(uint64_t k, uint64_t version) const {
    const std::string head = KeyOf(k) + "#" + std::to_string(version) + "#";
    Bytes v(head.begin(), head.end());
    const Bytes fill =
        MakeValue(MixSeed(seed_, k, version), kKvValueBytes - head.size());
    v.insert(v.end(), fill.begin(), fill.end());
    return v;
  }

  AckedVersions* const acked_;
  const std::vector<uint64_t> keys_;
  const double write_fraction_;
  const double weight_;
  const uint64_t seed_;
  Rng rng_;
  ForkBaseService* service_ = nullptr;
  bool embedded_ = false;
  uint64_t key_ = 0;
  OpKind last_kind_ = kRead;
  Bytes read_;
  uint64_t oldest_ = 0;  // versions the last read may legitimately see
  uint64_t newest_ = 0;
  uint64_t written_ = 0;
  uint64_t reads_checked_ = 0;
  uint64_t mismatches_ = 0;
};

// Blocks until every group member has applied the leader's whole log.
bool WaitReplicasCaughtUp(
    const std::vector<std::unique_ptr<Servlet>>& members) {
  const int64_t deadline = NowNs() + 20 * 1000000000LL;
  while (NowNs() < deadline) {
    const uint64_t end = members[0]->group->durable_offset();
    bool caught_up = true;
    for (size_t i = 1; i < members.size(); ++i) {
      caught_up = caught_up && members[i]->group->durable_offset() == end;
    }
    if (caught_up) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

Result<std::unique_ptr<Deployment>> SetupKv(const std::string& dir,
                                            const Flags& f, size_t n_senders,
                                            bool traced, bool quorum) {
  auto d = std::make_unique<Deployment>();
  d->backend = "kLog";
  const size_t members = quorum ? 3 : 1;
  ServletSpec spec;
  spec.db.store_backend = StoreBackend::kLog;
  spec.db.durability =
      quorum ? DurabilityPolicy::kQuorum : DurabilityPolicy::kBatch;
  spec.peers = members - 1;
  spec.replicated = quorum;
  spec.timing = traced;
  for (size_t i = 0; i < members; ++i) {
    FB_ASSIGN_OR_RETURN(auto servlet,
                        OpenServlet(dir + "/m" + std::to_string(i), spec));
    d->servlets.push_back(std::move(servlet));
  }
  d->serving = 1;
  if (quorum) {
    WirePeers(d->servlets);
    std::vector<std::string> endpoints;
    for (const auto& s : d->servlets) {
      endpoints.push_back(s->server->endpoint());
    }
    for (size_t i = 0; i < members; ++i) {
      Servlet& s = *d->servlets[i];
      repl::ReplicaGroupOptions ro;
      ro.members = endpoints;
      ro.self = endpoints[i];
      s.group = std::make_unique<repl::ReplicaGroup>(s.engine.get(),
                                                     s.repl_store, ro);
      FB_RETURN_NOT_OK(s.group->Start());
      s.server->set_replication(s.group.get());
      if (traced) {
        s.hook = std::make_unique<TimingCommitHook>(s.group.get());
        s.engine->AttachReplication(s.group.get(), s.hook.get());
      }
    }
    const int64_t deadline = NowNs() + 20 * 1000000000LL;
    while (d->servlets[0]->group->Snapshot().follower_count < members - 1) {
      if (NowNs() > deadline) return Status::Unavailable("followers absent");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  Servlet& leader = *d->servlets[0];
  d->embedded.push_back(std::make_unique<EmbeddedService>(leader.engine.get()));

  // kv_point: every sender reads and writes its own keys, 90/10. In
  // quorum_put a read queued behind its sender's quorum-bound Put would
  // measure that Put again, so one sender only reads (10% of the rate)
  // and the others only write; the writers alone make the closed-loop
  // throughput step.
  const bool reader = quorum && n_senders > 1;
  const size_t writers = reader ? n_senders - 1 : n_senders;
  d->acked = std::make_unique<AckedVersions>(kKvKeys);
  std::vector<KvSender*> kv;
  for (size_t i = 0; i < n_senders; ++i) {
    rpc::RemoteServiceOptions ro;
    ro.pool_size = 1;
    FB_ASSIGN_OR_RETURN(auto client, rpc::RemoteService::Connect(
                                         leader.server->endpoint(), ro));
    const bool writes = i < writers;
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < kKvKeys; ++k) {
      if (!writes || k % writers == i) keys.push_back(k);
    }
    const double write_fraction = !writes ? 0 : reader ? 1 : quorum ? 0.9 : 0.1;
    const double weight = !reader ? 1 : writes ? 0.9 / writers : 0.1;
    auto sender = std::make_unique<KvSender>(d->acked.get(), std::move(keys),
                                             write_fraction, weight, f.seed, i);
    sender->Use(client.get(), false);
    kv.push_back(sender.get());
    if (writes) d->closed_loop.push_back(sender.get());
    d->clients.push_back(std::move(client));
    d->senders.push_back(std::move(sender));
  }
  FB_RETURN_NOT_OK(
      ParallelFor(writers, [&](size_t i) { return kv[i]->Preload(); }));
  d->preload_user_bytes = kKvKeys * kKvValueBytes;

  Deployment* dp = d.get();
  d->use_twin = [dp, kv](bool twin) {
    for (size_t i = 0; i < kv.size(); ++i) {
      if (twin) {
        kv[i]->Use(dp->embedded[0].get(), true);
      } else {
        kv[i]->Use(dp->clients[i].get(), false);
      }
    }
  };
  d->run_user_bytes = [kv] {
    uint64_t sum = 0;
    for (const KvSender* s : kv) sum += s->bytes_written();
    return sum;
  };
  const std::string name = quorum ? "quorum_put" : "kv_point";
  d->final_checks = [dp, kv, writers, name, quorum](Report* report) {
    uint64_t checked = 0, mismatches = 0, readback_mismatches = 0;
    Status s;
    for (KvSender* k : kv) {
      checked += k->reads_checked();
      mismatches += k->mismatches();
    }
    for (size_t i = 0; i < writers && s.ok(); ++i) {
      s = kv[i]->ReadBack(&readback_mismatches);
    }
    report->Check(name + ".reads", checked > 0 && mismatches == 0);
    report->Check(name + ".readback", s.ok() && readback_mismatches == 0);
    if (!quorum) return;
    bool identical = WaitReplicasCaughtUp(dp->servlets);
    auto leader_state = dp->servlets[0]->engine->ExportBranchState();
    identical = identical && leader_state.ok();
    for (size_t i = 1; identical && i < dp->servlets.size(); ++i) {
      auto state = dp->servlets[i]->engine->ExportBranchState();
      identical = state.ok() && *state == *leader_state;
    }
    report->Check(name + ".replicas_identical", identical);
  };
  return d;
}

// ---------------------------------------------------------------------------
// wiki_history
// ---------------------------------------------------------------------------

constexpr size_t kWikiServlets = 2;
constexpr uint64_t kWikiPages = 1500;
constexpr size_t kPageBytes = 48 * 1024;
constexpr int kPreloadRevisions = 4;

// Owns pages p with p % n == index and remembers the SHA-256 of every
// revision it wrote, so each read has one correct answer.
class WikiSender : public Sender {
 public:
  WikiSender(size_t index, size_t n, uint64_t seed)
      : seed_(seed), rng_(MixSeed(seed, index, 2)),
        zipf_((kWikiPages - index + n - 1) / n, 0.8, MixSeed(seed, index, 3)) {
    for (uint64_t p = index; p < kWikiPages; p += n) {
      pages_.push_back(Page{p, MakeKey(p, 8, "page"), {}, {}});
    }
  }

  // `wikis` has one entry (a ClusterClient routes) or one per servlet
  // (the twin routes by ShardOfKey itself).
  void Use(std::vector<ForkBaseWiki*> wikis, bool embedded) {
    wikis_ = std::move(wikis);
    embedded_ = embedded;
  }

  Status Preload() {
    for (Page& p : pages_) {
      Rng rng(MixSeed(seed_, p.id, 4));
      p.content = rng.String(kPageBytes);
      for (int r = 0; r < kPreloadRevisions; ++r) {
        if (r > 0) Edit(&p, &rng);
        FB_RETURN_NOT_OK(WikiFor(p)->SavePage(p.name, Slice(p.content)));
        p.revs.push_back(Sha256::Hash(Slice(p.content)));
      }
    }
    return Status::OK();
  }

  OpKind Issue(bool* ok) override {
    page_ = &pages_[zipf_.Next()];
    const double u = rng_.NextDouble();
    if (u < 0.9) {
      last_kind_ = kRead;
      back_ = 0;
      if (u >= 0.7) {
        back_ = 1 + rng_.Uniform(std::min<uint64_t>(3, page_->revs.size() - 1));
      }
      ScopedSpan call(back_ == 0 ? (embedded_ ? "embedded.ReadLatest"
                                              : "wiki.ReadLatest")
                                 : (embedded_ ? "embedded.ReadHistory"
                                              : "wiki.ReadHistory"));
      auto r = WikiFor(*page_)->ReadPage(page_->name, back_);
      *ok = r.ok();
      if (*ok) read_ = std::move(*r);
    } else {
      last_kind_ = kWrite;
      Edit(page_, &rng_);
      ScopedSpan call(embedded_ ? "embedded.SavePage" : "wiki.SavePage");
      *ok = WikiFor(*page_)->SavePage(page_->name, Slice(page_->content)).ok();
      if (*ok) written_ += page_->content.size();
    }
    return last_kind_;
  }

  void Check() override {
    if (last_kind_ == kWrite) {
      page_->revs.push_back(Sha256::Hash(Slice(page_->content)));
      return;
    }
    ++reads_checked_;
    const auto& want = page_->revs[page_->revs.size() - 1 - back_];
    if (Sha256::Hash(Slice(read_)) != want) ++mismatches_;
  }

  uint64_t bytes_written() const { return written_; }
  uint64_t reads_checked() const { return reads_checked_; }
  uint64_t mismatches() const { return mismatches_; }

  // Every owned page's latest revision must hash to the last one saved.
  Status CheckLatest(uint64_t* mismatches) {
    for (const Page& p : pages_) {
      FB_ASSIGN_OR_RETURN(std::string content, WikiFor(p)->ReadPage(p.name, 0));
      if (Sha256::Hash(Slice(content)) != p.revs.back()) ++*mismatches;
    }
    return Status::OK();
  }

 private:
  struct Page {
    uint64_t id;
    std::string name;
    std::string content;                // latest revision
    std::vector<Sha256::Digest> revs;   // digest of every revision
  };

  // A small edit: 64-512 fresh bytes over a random offset.
  static void Edit(Page* p, Rng* rng) {
    const size_t len = 64 + rng->Uniform(449);
    const size_t off = rng->Uniform(p->content.size() - len + 1);
    p->content.replace(off, len, rng->String(len));
  }

  ForkBaseWiki* WikiFor(const Page& p) const {
    return wikis_.size() == 1 ? wikis_[0]
                              : wikis_[ShardOfKey(p.name, wikis_.size())];
  }

  const uint64_t seed_;
  Rng rng_;
  ZipfGenerator zipf_;
  std::vector<Page> pages_;
  std::vector<ForkBaseWiki*> wikis_;
  bool embedded_ = false;
  Page* page_ = nullptr;
  uint64_t back_ = 0;
  OpKind last_kind_ = kRead;
  std::string read_;
  uint64_t written_ = 0;
  uint64_t reads_checked_ = 0;
  uint64_t mismatches_ = 0;
};

Result<std::unique_ptr<Deployment>> SetupWiki(const std::string& dir,
                                              const Flags& f, size_t n_senders,
                                              bool traced) {
  auto d = std::make_unique<Deployment>();
  d->backend = "kLsm";
  ServletSpec spec;
  spec.db.store_backend = StoreBackend::kLsm;
  spec.peers = kWikiServlets - 1;
  spec.timing = traced;
  std::vector<std::string> endpoints;
  for (size_t i = 0; i < kWikiServlets; ++i) {
    FB_ASSIGN_OR_RETURN(auto servlet,
                        OpenServlet(dir + "/s" + std::to_string(i), spec));
    endpoints.push_back(servlet->server->endpoint());
    d->embedded.push_back(
        std::make_unique<EmbeddedService>(servlet->engine.get()));
    d->servlets.push_back(std::move(servlet));
  }
  d->serving = kWikiServlets;
  WirePeers(d->servlets);

  std::vector<ForkBaseWiki*> twin_wikis;
  for (const auto& e : d->embedded) {
    d->wikis.push_back(std::make_unique<ForkBaseWiki>(e.get()));
    twin_wikis.push_back(d->wikis.back().get());
  }
  std::vector<WikiSender*> wiki;
  std::vector<ForkBaseWiki*> client_wikis;
  for (size_t i = 0; i < n_senders; ++i) {
    ClusterClientOptions co;
    co.endpoints = endpoints;
    co.remote_pool_size = 1;
    FB_ASSIGN_OR_RETURN(auto client, ClusterClient::Connect(nullptr, co));
    d->wikis.push_back(std::make_unique<ForkBaseWiki>(client.get()));
    client_wikis.push_back(d->wikis.back().get());
    auto sender = std::make_unique<WikiSender>(i, n_senders, f.seed);
    sender->Use({client_wikis.back()}, false);
    wiki.push_back(sender.get());
    d->clients.push_back(std::move(client));
    d->senders.push_back(std::move(sender));
  }
  FB_RETURN_NOT_OK(
      ParallelFor(n_senders, [&](size_t i) { return wiki[i]->Preload(); }));
  d->preload_user_bytes = kWikiPages * kPreloadRevisions * kPageBytes;

  d->use_twin = [wiki, twin_wikis, client_wikis](bool twin) {
    for (size_t i = 0; i < wiki.size(); ++i) {
      if (twin) {
        wiki[i]->Use(twin_wikis, true);
      } else {
        wiki[i]->Use({client_wikis[i]}, false);
      }
    }
  };
  d->run_user_bytes = [wiki] {
    uint64_t sum = 0;
    for (const WikiSender* s : wiki) sum += s->bytes_written();
    return sum;
  };
  d->final_checks = [wiki](Report* report) {
    uint64_t checked = 0, mismatches = 0, latest_mismatches = 0;
    Status s;
    for (WikiSender* w : wiki) {
      checked += w->reads_checked();
      mismatches += w->mismatches();
      if (s.ok()) s = w->CheckLatest(&latest_mismatches);
    }
    report->Check("wiki_history.reads_sha256", checked > 0 && mismatches == 0);
    report->Check("wiki_history.latest_pages",
                  s.ok() && latest_mismatches == 0);
  };
  return d;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer metrics over the reference step. `twin` is the same step
// replayed against the embedded engines (for the ledger, which has no
// transport, the step itself).
void LayerMetrics(const Counters& c0, const Counters& c1, const StepResult& ref,
                  const StepResult& twin, const OsSample& o0,
                  const OsSample& o1, Report* r) {
  const double ops = static_cast<double>(ref.completed);
  const double writes = static_cast<double>(ref.latency[kWrite].count());
  double call_ns = 0;
  for (int k = 0; k < kNumKinds; ++k) call_ns += ref.call[k].sum_ns();
  auto d = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b) - static_cast<double>(a);
  };
  auto share = [](double part, double whole) {
    return 100 * Ratio(part, whole);
  };
  auto overhead = [&](OpKind k) {
    const double socket = ref.call[k].PercentileUs(50);
    return share(socket - twin.call[k].PercentileUs(50), socket);
  };
  const double user_bytes = d(c0.user_bytes, c1.user_bytes);

  r->Metric("loadgen.lag_p99_us", ref.lag.PercentileUs(99), "us");
  r->Metric("loadgen.offered", static_cast<double>(ref.offered), "count");
  r->Metric("loadgen.completed", ops, "count");
  r->Metric("loadgen.read_p99_us", ref.latency[kRead].PercentileUs(99), "us");
  r->Metric("loadgen.write_p99_us", ref.latency[kWrite].PercentileUs(99), "us");

  r->Metric("rpc.read_call_p50_us", ref.call[kRead].PercentileUs(50), "us");
  r->Metric("rpc.write_call_p50_us", ref.call[kWrite].PercentileUs(50), "us");
  r->Metric("rpc.read_overhead_share", overhead(kRead), "%");
  r->Metric("rpc.write_overhead_share", overhead(kWrite), "%");
  r->Metric("rpc.frames_per_op", Ratio(d(c0.frames, c1.frames), ops), "count");
  r->Metric("rpc.protocol_errors", d(c0.protocol_errors, c1.protocol_errors),
            "count");

  r->Metric("api.read_p50_us", twin.call[kRead].PercentileUs(50), "us");
  r->Metric("api.write_p50_us", twin.call[kWrite].PercentileUs(50), "us");
  const double hits = d(c0.hot.hits, c1.hot.hits);
  r->Metric("api.hot_head_hit_ratio",
            Ratio(hits, hits + d(c0.hot.misses, c1.hot.misses)), "ratio");

  r->Metric("pos_tree.chunks_per_write",
            Ratio(d(c0.physical.chunks, c1.physical.chunks), writes), "count");
  r->Metric("pos_tree.bytes_per_write",
            Ratio(d(c0.physical.stored_bytes, c1.physical.stored_bytes),
                  writes),
            "B");

  const double puts = d(c0.physical.puts, c1.physical.puts);
  r->Metric("chunk.put_calls_per_op", Ratio(puts, ops), "count");
  r->Metric("chunk.get_calls_per_op",
            Ratio(d(c0.physical.gets, c1.physical.gets), ops), "count");
  r->Metric("chunk.put_busy_share",
            share(d(c0.busy.put_ns, c1.busy.put_ns), call_ns), "%");
  r->Metric("chunk.get_busy_share",
            share(d(c0.busy.get_ns, c1.busy.get_ns), call_ns), "%");
  r->Metric("chunk.dedup_ratio",
            Ratio(d(c0.physical.dedup_hits, c1.physical.dedup_hits), puts),
            "ratio");
  const double cache_hits = d(c0.physical.cache_hits, c1.physical.cache_hits);
  const double cache_misses =
      d(c0.physical.cache_misses, c1.physical.cache_misses);
  r->Metric("chunk.block_cache_hit_ratio",
            Ratio(cache_hits, cache_hits + cache_misses), "ratio");
  r->Metric("chunk.peer_fetches_per_op",
            Ratio(d(c0.view.peer_fetches, c1.view.peer_fetches), ops), "count");
  r->Metric("chunk.peer_round_trips_per_op",
            Ratio(d(c0.view.peer_round_trips, c1.view.peer_round_trips), ops),
            "count");

  r->Metric("kvstore.write_amp",
            Ratio(d(c0.lsm.wal_bytes, c1.lsm.wal_bytes) +
                      d(c0.lsm.sst_bytes, c1.lsm.sst_bytes),
                  user_bytes),
            "ratio");
  r->Metric("kvstore.flushes", d(c0.lsm.flushes, c1.lsm.flushes), "count");
  r->Metric("kvstore.compactions", d(c0.lsm.compactions, c1.lsm.compactions),
            "count");
  r->Metric("kvstore.runs", static_cast<double>(c1.lsm.runs), "count");
  r->Metric("kvstore.bloom_skips_per_get",
            Ratio(d(c0.lsm.bloom_skips, c1.lsm.bloom_skips),
                  d(c0.physical.gets, c1.physical.gets)),
            "count");

  r->Metric("replication.quorum_wait_share",
            share(d(c0.quorum_wait_ns, c1.quorum_wait_ns),
                  static_cast<double>(ref.call[kWrite].sum_ns())),
            "%");
  r->Metric("replication.records_per_shipment",
            Ratio(d(c0.records_shipped, c1.records_shipped),
                  d(c0.shipments, c1.shipments)),
            "count");
  r->Metric("replication.quorum_timeouts",
            d(c0.quorum_timeouts, c1.quorum_timeouts), "count");

  const double cpu_s = (o1.user_s + o1.sys_s) - (o0.user_s + o0.sys_s);
  r->Metric("os.cpu_us_per_op", Ratio(cpu_s * 1e6, ops), "us/op");
  r->Metric("os.sys_share", share(o1.sys_s - o0.sys_s, cpu_s), "%");
  r->Metric("os.ctx_switches_per_op",
            Ratio(d(o0.ctx_switches, o1.ctx_switches), ops), "count");
  r->Metric("os.write_bytes_per_user_byte",
            Ratio(d(o0.write_bytes, o1.write_bytes), user_bytes), "ratio");
}

using Windows = std::vector<std::unique_ptr<StepResult>>;

std::unique_ptr<StepResult> MergeAll(const Windows& windows) {
  auto merged = std::make_unique<StepResult>();
  for (const auto& w : windows) {
    merged->Merge(*w);
    merged->seconds += w->seconds;
  }
  return merged;
}

// The end-to-end latency of one op kind: the median over the windows of
// the per-window p50. The p99 of the pooled samples goes with it as
// information; perfbench/README.md explains why it carries no bound.
void Latency(const std::string& prefix, const Windows& windows,
             const StepResult& merged, OpKind kind, Report* r) {
  std::vector<double> p50;
  for (const auto& w : windows) {
    p50.push_back(w->latency[kind].PercentileUs(50));
  }
  const LatencyHistogram& all = merged.latency[kind];
  r->Metric(prefix + "_p50_us", Median(p50), "us");
  r->Info(prefix + ".p99_us", all.PercentileUs(99));
  r->Info(prefix + ".samples", static_cast<double>(all.count()));
  r->Info(prefix + ".beyond_p99", static_cast<double>(all.SamplesBeyond(99)));
  if (all.SamplesBeyond(99) < 10) {
    std::fprintf(stderr, "warning: %s p99 rests on %llu samples beyond it\n",
                 prefix.c_str(),
                 static_cast<unsigned long long>(all.SamplesBeyond(99)));
  }
}

void PrintStep(const char* label, double rate, const StepResult& s) {
  std::fprintf(stderr,
               "%-10s rate %9.1f/s  completed %7llu/%-7llu  read p50 %8.1f "
               "p99 %9.1f us  write p50 %8.1f p99 %9.1f us  lag p99 %6.1f us\n",
               label, rate, static_cast<unsigned long long>(s.completed),
               static_cast<unsigned long long>(s.offered),
               s.latency[kRead].PercentileUs(50),
               s.latency[kRead].PercentileUs(99),
               s.latency[kWrite].PercentileUs(50),
               s.latency[kWrite].PercentileUs(99), s.lag.PercentileUs(99));
}

// ---------------------------------------------------------------------------
// Open-loop runs
// ---------------------------------------------------------------------------

struct OpenLoopSpec {
  const char* name;
  double reference_rate;  // ops/s: about half the saturation rate here
  std::function<Result<std::unique_ptr<Deployment>>(const std::string& dir,
                                                    bool traced)>
      setup;
};

int RunOpenLoop(const OpenLoopSpec& spec, const Flags& f,
                const std::string& dir, Report* report, const char** backend) {
  const bool traced = !f.trace_file.empty();
  // Each setup gets its own directory, deleted with the deployment. The
  // filesystem is synced before each, so no setup pays for the write-back
  // of an earlier one.
  std::vector<double> setup_s;
  int setups = 0;
  auto setup = [&]() -> std::unique_ptr<Deployment> {
    SyncFilesystem(dir);
    const int64_t t0 = NowNs();
    auto made = spec.setup(dir + "/setup" + std::to_string(setups++), traced);
    if (!made.ok()) {
      std::fprintf(stderr, "setup: %s\n", made.status().ToString().c_str());
      return nullptr;
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    return std::move(*made);
  };
  auto discard = [&](std::unique_ptr<Deployment> d) {
    d.reset();
    std::filesystem::remove_all(dir + "/setup" + std::to_string(setups - 1));
  };
  auto spare = [&] {
    auto d = setup();
    if (d == nullptr) return false;
    discard(std::move(d));
    return true;
  };

  if (!SpareSetups(traced, spare)) return 1;
  std::unique_ptr<Deployment> dep = setup();
  if (dep == nullptr) return 1;
  SyncFilesystem(dir);
  *backend = dep->backend;
  const std::vector<Sender*> senders = dep->sender_ptrs();
  const double rate = spec.reference_rate;
  // Untraced: warm-up, reference step, closed-loop throughput. Traced:
  // warm-up, reference step, the same reference step on the twin.
  const double warm_s = 0.1 * f.seconds;
  const double ref_s = (traced ? 0.45 : 0.6) * f.seconds;
  const double abort_s = ref_s / kWindows / 2;
  auto run = [&](const std::vector<Sender*>& who, double step_rate,
                 double seconds, int windows, uint64_t stream) {
    Windows out;
    for (int w = 0; w < windows; ++w) {
      out.push_back(RunStep(who, step_rate, seconds / windows, f.seed,
                            stream + w, abort_s));
      report->Ops(out.back()->completed + out.back()->failed,
                  out.back()->failed, out.back()->abandoned);
    }
    return out;
  };

  run(senders, rate, warm_s, 1, 0);
  if (traced) Tracer::Get().Enable(kMaxSpans);
  const Counters c0 = dep->Sample();
  const OsSample o0 = SampleOs();
  const Windows ref = run(senders, rate, ref_s, kWindows, 1);
  const OsSample o1 = SampleOs();
  const Counters c1 = dep->Sample();
  const auto merged = MergeAll(ref);
  PrintStep("reference", rate, *merged);
  // A step the generator could not keep to its schedule measured the
  // host, not the system: it is flagged, not failed.
  const double lag_p99 = merged->lag.PercentileUs(99);
  const bool valid = lag_p99 <= kMaxValidLagUs && merged->abandoned == 0;
  if (!valid) {
    std::fprintf(stderr,
                 "warning: generator lag p99 %.1f us, %llu arrivals "
                 "abandoned: step invalid\n",
                 lag_p99, static_cast<unsigned long long>(merged->abandoned));
  }
  report->Info("reference.rate", rate);
  report->Info("reference.abandoned", static_cast<double>(merged->abandoned));
  report->Info("reference.valid", valid ? "true" : "false");

  Latency("read", ref, *merged, kRead, report);
  Latency("write", ref, *merged, kWrite, report);
  report->Metric("bytes_per_user_byte",
                 Ratio(static_cast<double>(c1.physical.stored_bytes),
                       static_cast<double>(c1.user_bytes)),
                 "B/B");

  if (traced) {
    dep->use_twin(true);
    const auto twin = MergeAll(run(senders, rate, ref_s, kWindows, 1));
    dep->use_twin(false);
    PrintStep("twin", rate, *twin);
    LayerMetrics(c0, c1, *merged, *twin, o0, o1, report);
  } else {
    const std::vector<Sender*>& closed =
        dep->closed_loop.empty() ? senders : dep->closed_loop;
    std::vector<double> kops;
    for (const auto& w :
         run(closed, 0, 0.3 * f.seconds, kThroughputWindows, 100)) {
      kops.push_back(w->completed / w->seconds / 1e3);
    }
    report->Metric("throughput_kops", Median(kops), "kops");
  }
  dep->final_checks(report);
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  discard(std::move(dep));
  if (!SpareSetups(traced, spare)) return 1;
  SetupTime(setup_s, report);
  return 0;
}

// ---------------------------------------------------------------------------
// ledger_commit
// ---------------------------------------------------------------------------

constexpr uint64_t kLedgerKeys = 65536;
constexpr size_t kLedgerValueBytes = 100;
constexpr size_t kBlockTxns = 50;
constexpr size_t kPreloadBlockTxns = 4096;
// ledger.state_uid is taken after this many post-preload blocks, so it
// names the same state on every run of a seed however fast the run is.
constexpr uint64_t kCheckpointBlock = 500;
// Block counts of the warm-up and of the measurement after it. Every
// block adds ~250 KB of chunks to the in-memory store, so the counts
// bound the run's memory (~1.1 GB) and keep it the same on every run.
constexpr uint64_t kWarmBlocks = 200;
constexpr uint64_t kRunBlocks = 4000;
const char* const kContract = "kvstore";

struct Ledger {
  std::unique_ptr<ForkBaseLedger> ledger;
  std::vector<std::string> model;  // expected value per key index
  uint64_t next_block = 0;
  uint64_t user_bytes = 0;
};

std::string AccountKey(uint64_t i) { return MakeKey(i, 12, "acct"); }

// Opens the accounts in a seeded random order. In key order every new
// key lands at the end of the contract's map, and Commit's lookup of it
// (for a previous version) cost four times as much in some preload
// blocks of some seeds, so setup took twice as long on those seeds.
Result<Ledger> SetupLedger(uint64_t seed) {
  Ledger l;
  l.ledger = std::make_unique<ForkBaseLedger>();
  l.model.resize(kLedgerKeys);
  std::vector<uint64_t> order(kLedgerKeys);
  std::iota(order.begin(), order.end(), 0);
  Rng shuffle(MixSeed(seed, 0, 22));
  for (uint64_t i = kLedgerKeys - 1; i > 0; --i) {
    std::swap(order[i], order[shuffle.Uniform(i + 1)]);
  }
  Rng rng(MixSeed(seed, 0, 20));
  std::vector<Transaction> txns;
  for (uint64_t i = 0; i < kLedgerKeys; ++i) {
    const uint64_t k = order[i];
    Transaction t;
    t.op = Transaction::Op::kPut;
    t.contract = kContract;
    t.key = AccountKey(k);
    t.value = BytesToString(MakeValue(rng.Next(), kLedgerValueBytes));
    FB_RETURN_NOT_OK(l.ledger->Write(t.contract, t.key, t.value));
    l.model[k] = t.value;
    l.user_bytes += t.value.size();
    txns.push_back(std::move(t));
    if (txns.size() == kPreloadBlockTxns || i + 1 == kLedgerKeys) {
      FB_RETURN_NOT_OK(l.ledger->Commit(l.next_block++, txns));
      txns.clear();
    }
  }
  return l;
}

Result<std::string> StateUid(ForkBaseLedger* ledger, uint64_t block) {
  FB_ASSIGN_OR_RETURN(Bytes raw, ledger->LoadBlock(block));
  FB_ASSIGN_OR_RETURN(Block b, Block::Deserialize(Slice(raw)));
  return HexEncode(Slice(b.state_ref));
}

int RunLedger(const Flags& f, const std::string& dir, Report* report) {
  (void)dir;  // the ledger keeps its chunks in memory
  const bool traced = !f.trace_file.empty();
  std::vector<double> setup_s;
  auto setup = [&] {
    const int64_t t0 = NowNs();
    Result<Ledger> made = SetupLedger(f.seed);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!made.ok()) {
      std::fprintf(stderr, "setup: %s\n", made.status().ToString().c_str());
    }
    return made;
  };
  auto spare = [&] { return setup().ok(); };  // the ledger is dropped at once

  if (!SpareSetups(traced, spare)) return 1;
  Result<Ledger> made = setup();
  if (!made.ok()) return 1;
  Ledger l = std::move(*made);
  const uint64_t first_block = l.next_block;

  Rng rng(MixSeed(f.seed, 0, 21));
  uint64_t mismatches = 0, reads_checked = 0;
  std::string checkpoint_uid;
  Status status;
  // One block of the kvstore contract: 50 transactions, each a read or a
  // write of a uniformly chosen key with equal odds, then the commit.
  auto run_block = [&](StepResult* st) {
    ScopedSpan block("loadgen.op");
    std::vector<Transaction> txns;
    int64_t prev_end = NowNs();
    for (size_t i = 0; i < kBlockTxns; ++i) {
      Transaction t;
      t.contract = kContract;
      const uint64_t k = rng.Uniform(kLedgerKeys);
      t.key = AccountKey(k);
      if (rng.Bernoulli(0.5)) {
        t.op = Transaction::Op::kGet;
        std::string value;
        const int64_t start = NowNs();
        {
          ScopedSpan call("ledger.Read");
          status = l.ledger->Read(kContract, t.key, &value);
        }
        const int64_t end = NowNs();
        st->lag.Record(static_cast<uint64_t>(start - prev_end));
        st->latency[kRead].Record(static_cast<uint64_t>(end - start));
        prev_end = end;
        if (!status.ok()) return false;
        ++reads_checked;
        if (value != l.model[k]) ++mismatches;
      } else {
        t.op = Transaction::Op::kPut;
        t.value = BytesToString(MakeValue(rng.Next(), kLedgerValueBytes));
        status = l.ledger->Write(kContract, t.key, t.value);
        if (!status.ok()) return false;
        l.model[k] = t.value;
        l.user_bytes += t.value.size();
      }
      txns.push_back(std::move(t));
    }
    const int64_t start = NowNs();
    {
      ScopedSpan call("ledger.Commit");
      status = l.ledger->Commit(l.next_block, txns);
    }
    const int64_t end = NowNs();
    st->lag.Record(static_cast<uint64_t>(start - prev_end));
    st->latency[kWrite].Record(static_cast<uint64_t>(end - start));
    if (!status.ok()) return false;
    if (l.next_block - first_block + 1 == kCheckpointBlock) {
      auto uid = StateUid(l.ledger.get(), l.next_block);
      if (uid.ok()) checkpoint_uid = *uid;
    }
    ++l.next_block;
    st->offered += kBlockTxns;
    st->completed += kBlockTxns;
    return true;
  };

  auto counters = [&] {
    Counters c;
    c.physical = l.ledger->db()->store()->stats();
    c.view = c.physical;
    c.hot = l.ledger->db()->hot_head_stats();
    c.user_bytes = l.user_bytes;
    return c;
  };

  bool ok = true;
  auto warm = std::make_unique<StepResult>();
  for (uint64_t b = 0; ok && b < kWarmBlocks; ++b) ok = run_block(warm.get());
  report->Ops(warm->completed, 0);
  if (traced) Tracer::Get().Enable(kMaxSpans);

  // kWindows windows of equal block counts. The deadline only cuts a run
  // on a machine too slow to finish kRunBlocks in time; the checkpoint
  // block is always reached.
  const Counters c0 = counters();
  const OsSample o0 = SampleOs();
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(0.9 * f.seconds * 1e9);
  auto more = [&] {
    return ok && (NowNs() < deadline ||
                  l.next_block - first_block < kCheckpointBlock);
  };
  Windows windows;
  for (int w = 0; w < kWindows && more(); ++w) {
    auto win = std::make_unique<StepResult>();
    const int64_t start = NowNs();
    for (uint64_t b = 0; b < kRunBlocks / kWindows && more(); ++b) {
      ok = run_block(win.get());
    }
    win->seconds = (NowNs() - start) / 1e9;
    for (int k = 0; k < kNumKinds; ++k) win->call[k] = win->latency[k];
    windows.push_back(std::move(win));
  }
  const OsSample o1 = SampleOs();
  const Counters c1 = counters();
  const auto merged = MergeAll(windows);
  report->Ops(merged->completed + (ok ? 0 : 1), ok ? 0 : 1);
  if (!ok) std::fprintf(stderr, "ledger: %s\n", status.ToString().c_str());
  PrintStep("blocks", 0, *merged);

  Latency("read", windows, *merged, kRead, report);
  Latency("write", windows, *merged, kWrite, report);
  report->Metric("bytes_per_user_byte",
                 Ratio(static_cast<double>(c1.physical.stored_bytes),
                       static_cast<double>(c1.user_bytes)),
                 "B/B");
  std::vector<double> kops;
  for (const auto& w : windows) {
    kops.push_back(Ratio(w->completed / 1e3, w->seconds));
  }
  report->Metric("throughput_kops", Median(kops), "kops");
  report->Info("ledger.blocks",
               static_cast<double>(l.next_block - first_block));
  if (traced) LayerMetrics(c0, c1, *merged, *merged, o0, o1, report);

  report->Check("ledger_commit.reads",
                ok && reads_checked > 0 && mismatches == 0);
  {
    auto state = l.ledger->BlockScan(kContract, l.next_block - 1);
    bool state_ok = state.ok() && state->size() == kLedgerKeys;
    for (uint64_t k = 0; state_ok && k < kLedgerKeys; ++k) {
      auto it = state->find(AccountKey(k));
      state_ok = it != state->end() && it->second == l.model[k];
    }
    report->Check("ledger_commit.final_state", state_ok);
  }
  report->Check("ledger_commit.checkpoint", !checkpoint_uid.empty());
  report->Info("ledger.state_uid", checkpoint_uid);
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  l = Ledger();
  if (!SpareSetups(traced, spare)) return 1;
  SetupTime(setup_s, report);
  return 0;
}

}  // namespace
}  // namespace perf
}  // namespace fb

int main(int argc, char** argv) {
  using namespace fb::perf;
  Flags f;
  if (!ParseFlags(argc, argv, &f)) {
    std::fprintf(stderr,
                 "usage: bench_forkbase --workload=<kv_point|quorum_put|"
                 "wiki_history|ledger_commit> --seed=<n> [--seconds=<s>] "
                 "[--trace=<file>] [--out=<file>] [--dir=<dir>]\n"
                 "       bench_forkbase --selftest\n");
    return 2;
  }
  Report report;
  report.Check("histogram", HistogramSelfTest());
  if (f.selftest) return report.ok() ? 0 : 1;

  const size_t n_senders =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  const std::string dir =
      f.dir + "/" + f.workload + "-" + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SyncFilesystem(dir);

  const std::vector<OpenLoopSpec> specs = {
      {"kv_point", 10000,
       [&](const std::string& d, bool traced) {
         return SetupKv(d, f, n_senders, traced, /*quorum=*/false);
       }},
      {"quorum_put", 3000,
       [&](const std::string& d, bool traced) {
         return SetupKv(d, f, n_senders, traced, /*quorum=*/true);
       }},
      {"wiki_history", 2500,
       [&](const std::string& d, bool traced) {
         return SetupWiki(d, f, n_senders, traced);
       }},
  };

  int rc = 2;
  const char* backend = "kMem";
  if (f.workload == "ledger_commit") {
    rc = RunLedger(f, dir, &report);
  } else {
    for (const OpenLoopSpec& spec : specs) {
      if (f.workload == spec.name) {
        rc = RunOpenLoop(spec, f, dir, &report, &backend);
      }
    }
  }
  if (rc == 2) {
    std::fprintf(stderr, "unknown workload '%s'\n", f.workload.c_str());
  }
  std::filesystem::remove_all(dir);
  SyncFilesystem(f.dir);
  if (rc != 0) return rc;

  if (!f.trace_file.empty() && !Tracer::Get().WriteChromeJson(f.trace_file)) {
    report.Check("trace_written", false);
  }
  if (!f.out.empty() && !report.Write(f, backend, n_senders)) {
    std::fprintf(stderr, "cannot write %s\n", f.out.c_str());
    return 1;
  }
  return report.ok() ? 0 : 1;
}
