// Figure 8: Scalability with multiple servlets.
//
// Throughput of Put and Get at request sizes 256 B and 2560 B while the
// number of servlets grows 1 -> 16. Servlets share nothing (per-servlet
// branch tables and chunk placement), which is why the paper observes
// near-linear scaling.
//
// Each servlet's partition of the workload runs on its own thread — the
// striped BranchManager and striped chunk shards are exercised by real
// concurrency. Wall-clock time is the MAX over per-servlet partition
// times: on a many-core host that equals elapsed time; on a starved host
// it still equals the completion time of N shared-nothing machines
// running their partitions concurrently. Any cross-servlet coupling
// surfaces as inflated per-servlet times.
//
// A second phase measures the striped BranchManager directly: T threads
// committing to independent keys of ONE shared engine, with the stripe
// count at 1 (the paper's fully-serialized servlet, our single-lock
// baseline) versus the default striping. `--json` records both series in
// BENCH_fig8_scalability.json; `--quick` shrinks the sweep for CI.

#include <future>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "chunk/peer_resolver.h"
#include "cluster/client.h"
#include "cluster/cluster.h"
#include "replication/group.h"
#include "replication/replicated_store.h"
#include "rpc/remote_service.h"
#include "rpc/server.h"
#include "util/random.h"

namespace fb {
namespace {

double RunPhase(Cluster* cluster, size_t value_size, int total_ops,
                bool do_puts) {
  ClusterClient client(cluster);
  const size_t n = cluster->num_servlets();
  const int ops_per_servlet = total_ops / static_cast<int>(n);

  // Pre-partition keys by their routed servlet so each partition is a
  // pure single-servlet stream.
  std::vector<std::vector<std::string>> partition(n);
  {
    uint64_t i = 0;
    while (true) {
      const std::string key = MakeKey(i++, 10, "sk");
      auto& p = partition[cluster->ServletOf(key)];
      if (p.size() < 4096) p.push_back(key);
      bool all_full = true;
      for (const auto& pp : partition) all_full &= pp.size() >= 4096;
      if (all_full) break;
    }
  }

  std::vector<double> elapsed(n, 0);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    threads.emplace_back([&, s] {
      Rng rng(s * 7919 + 13);
      const std::string value = rng.String(value_size);
      Timer t;
      for (int i = 0; i < ops_per_servlet; ++i) {
        const std::string& key = partition[s][i % partition[s].size()];
        if (do_puts) {
          bench::Check(client.Put(key, Value::OfString(value)).status(),
                       "Put");
        } else {
          bench::Check(client.Get(key).status(), "Get");
        }
      }
      elapsed[s] = t.ElapsedSeconds();
    });
  }
  for (auto& th : threads) th.join();

  double max_elapsed = 0;
  for (double e : elapsed) max_elapsed = std::max(max_elapsed, e);
  return static_cast<double>(ops_per_servlet) * static_cast<double>(n) /
         max_elapsed;
}

// T threads committing small values to disjoint key sets of one shared
// engine. Returns kops/s of total wall-clock (contention included).
double RunStripedPuts(size_t n_threads, size_t n_stripes,
                      int ops_per_thread) {
  DBOptions opts;
  opts.branch_stripes = n_stripes;
  ForkBase db(opts);
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  Timer t;
  for (size_t tid = 0; tid < n_threads; ++tid) {
    threads.emplace_back([&, tid] {
      Rng rng(101 * tid + 7);
      const std::string value = rng.String(128);
      std::vector<std::string> keys;
      for (size_t k = 0; k < 64; ++k) {
        keys.push_back(MakeKey(tid * 64 + k, 10, "bm"));
      }
      for (int i = 0; i < ops_per_thread; ++i) {
        bench::Check(
            db.Put(keys[i % keys.size()], Value::OfString(value)).status(),
            "Put");
      }
    });
  }
  for (auto& th : threads) th.join();
  return static_cast<double>(n_threads) *
         static_cast<double>(ops_per_thread) / t.ElapsedSeconds() / 1e3;
}

// The async client path: T threads Submit() fork-on-demand Puts in
// bursts and then await the futures. Per-servlet worker queues coalesce
// queued Puts into PutMany group commits; the returned stats show how
// many groups formed.
struct AsyncResult {
  double kops = 0;
  ClusterClient::SubmitStats stats;
};

AsyncResult RunAsyncSubmit(Cluster* cluster, size_t n_threads,
                           int ops_per_thread, size_t value_size) {
  ClusterClient client(cluster);
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  Timer t;
  for (size_t tid = 0; tid < n_threads; ++tid) {
    threads.emplace_back([&, tid] {
      Rng rng(311 * tid + 5);
      const std::string value = rng.String(value_size);
      std::vector<std::future<Reply>> futures;
      futures.reserve(ops_per_thread);
      for (int i = 0; i < ops_per_thread; ++i) {
        Command cmd;
        cmd.op = CommandOp::kPut;
        cmd.key = MakeKey(tid * 100000 + i, 10, "as");
        cmd.branch = kDefaultBranch;
        cmd.value = Value::OfString(value);
        futures.push_back(client.Submit(std::move(cmd)));
      }
      for (auto& f : futures) {
        bench::Check(f.get().ToStatus(), "Submit(Put)");
      }
    });
  }
  for (auto& th : threads) th.join();
  client.Flush();
  AsyncResult r;
  r.kops = static_cast<double>(n_threads) *
           static_cast<double>(ops_per_thread) / t.ElapsedSeconds() / 1e3;
  r.stats = client.submit_stats();
  return r;
}

// The RPC transport phase: the same service surface over (a) in-process
// dispatch and (b) a loopback socket to a ForkBaseServer, sync round
// trips and the pipelined Submit path. The gap between (a) and (b) is
// the framing + syscall cost a real deployment pays per request.
struct RpcResult {
  double put_kops = 0;
  double get_kops = 0;
  double pipelined_put_kops = 0;  // socket only
};

RpcResult RunRpcPhase(ForkBaseService* service, int ops, bool pipelined,
                      rpc::RemoteService* remote) {
  RpcResult r;
  Rng rng(23);
  const std::string value = rng.String(256);
  {
    Timer t;
    for (int i = 0; i < ops; ++i) {
      bench::Check(
          service->Put(MakeKey(i, 10, "rp"), Value::OfString(value)).status(),
          "Put");
    }
    r.put_kops = ops / t.ElapsedSeconds() / 1e3;
  }
  {
    Timer t;
    for (int i = 0; i < ops; ++i) {
      bench::Check(service->Get(MakeKey(i, 10, "rp")).status(), "Get");
    }
    r.get_kops = ops / t.ElapsedSeconds() / 1e3;
  }
  if (pipelined && remote != nullptr) {
    // 4x the sync op count: pipelining is a steady-state measurement,
    // and a deeper run amortizes connect/warmup out of the number.
    const int pops = ops * 4;
    Timer t;
    std::vector<std::future<Reply>> futures;
    futures.reserve(pops);
    for (int i = 0; i < pops; ++i) {
      Command cmd;
      cmd.op = CommandOp::kPut;
      cmd.key = MakeKey(i, 10, "rq");
      cmd.branch = kDefaultBranch;
      cmd.value = Value::OfString(value);
      futures.push_back(remote->Submit(std::move(cmd)));
    }
    for (auto& f : futures) bench::Check(f.get().ToStatus(), "Submit(Put)");
    r.pipelined_put_kops = pops / t.ElapsedSeconds() / 1e3;
  }
  return r;
}

// The peer-fetch phase: a two-servlet all-remote deployment with
// server-to-server chunk fetch (forkbased --peers wiring). Half the
// version-addressed reads route to the shard that did NOT commit the
// object, so the serving servlet resolves the meta chunk from its peer
// (then its chunk cache). Reported against same-shard reads, with the
// fetch count, this is the latency price of shard-placement-blind reads.
struct PeerFetchResult {
  double put_kops = 0;
  double get_by_uid_kops = 0;
  uint64_t peer_fetches = 0;
  uint64_t peer_fetch_failures = 0;
};

struct PeerServlet {
  std::unique_ptr<PeerChunkResolver> resolver =
      std::make_unique<PeerChunkResolver>();
  ChunkStore* raw_local = nullptr;
  std::unique_ptr<ForkBase> engine;
  std::unique_ptr<rpc::ForkBaseServer> server;
};

// Two standalone servlet processes (in-process, real sockets) wired as
// each other's chunk peers — the `forkbased --peers` topology.
void StartPeerPair(PeerServlet servlets[2], const DBOptions& db = {}) {
  for (int i = 0; i < 2; ++i) {
    PeerServlet& s = servlets[i];
    auto local = std::make_unique<MemChunkStore>();
    s.raw_local = local.get();
    s.engine = std::make_unique<ForkBase>(
        db, std::make_unique<ServletChunkStore>(std::move(local),
                                                s.resolver.get()));
    rpc::ServerOptions so;
    so.local_chunk_store = s.raw_local;
    so.peer_count = 1;
    auto started = rpc::ForkBaseServer::Start(s.engine.get(), so);
    bench::Check(started.status(), "peer server start");
    s.server = std::move(*started);
  }
  servlets[0].resolver->SetPeers({servlets[1].server->endpoint()});
  servlets[1].resolver->SetPeers({servlets[0].server->endpoint()});
}

PeerFetchResult RunPeerFetchPhase(int ops) {
  PeerServlet servlets[2];
  StartPeerPair(servlets);

  ClusterClientOptions copts;
  copts.endpoints = {servlets[0].server->endpoint(),
                     servlets[1].server->endpoint()};
  auto client = ClusterClient::Connect(nullptr, copts);
  bench::Check(client.status(), "peer client connect");

  PeerFetchResult r;
  Rng rng(29);
  const std::string value = rng.String(256);
  std::vector<Hash> uids;
  uids.reserve(ops);
  {
    Timer t;
    for (int i = 0; i < ops; ++i) {
      auto uid =
          (*client)->Put(MakeKey(i, 10, "pf"), Value::OfString(value));
      bench::Check(uid.status(), "Put");
      uids.push_back(*uid);
    }
    r.put_kops = ops / t.ElapsedSeconds() / 1e3;
  }
  {
    // uid routing ignores key placement, so ~half of these land on the
    // shard that must peer-fetch (first read) or hit its cache (rest).
    Timer t;
    for (const Hash& uid : uids) {
      bench::Check((*client)->GetByUid(uid).status(), "GetByUid");
    }
    r.get_by_uid_kops = ops / t.ElapsedSeconds() / 1e3;
  }
  for (const PeerServlet& s : servlets) {
    const ChunkStoreStats stats = s.engine->store()->stats();
    r.peer_fetches += stats.peer_fetches;
    r.peer_fetch_failures += stats.peer_fetch_failures;
  }
  return r;
}

// The batched-peer-fetch phase: a server-side diff of two blob versions
// whose chunks are cid-partitioned across both shards. Every chunk the
// traversing servlet misses must be resolved from its peer; with
// kChunkPeerGetBatch the misses of each tree level ride ONE round trip,
// so round_trips stays far below chunks_fetched.
struct BatchedPeerFetchResult {
  double diff_ms = 0;
  uint64_t chunks_fetched = 0;
  uint64_t round_trips = 0;
};

BatchedPeerFetchResult RunBatchedPeerFetchPhase(size_t blob_bytes) {
  PeerServlet servlets[2];
  // Finer chunking than the 4KB default so the trees are deep enough
  // (hundreds of leaves, a real index level) for level-batched fetches
  // to have something to batch.
  DBOptions db;
  db.tree.leaf_pattern_bits = 9;   // ~512 B leaves
  db.tree.index_pattern_bits = 4;  // ~16 entries per index node
  StartPeerPair(servlets, db);

  ClusterClientOptions copts;
  copts.endpoints = {servlets[0].server->endpoint(),
                     servlets[1].server->endpoint()};
  auto client = ClusterClient::Connect(nullptr, copts);
  bench::Check(client.status(), "peer client connect");

  Rng rng(31);
  const std::string content_a = rng.String(blob_bytes);
  std::string content_b = content_a;
  content_b.replace(blob_bytes / 2, 16, "EDITED-SIXTEEN-B");
  auto blob_a = (*client)->CreateBlob(Slice(content_a));
  bench::Check(blob_a.status(), "CreateBlob");
  auto blob_b = (*client)->CreateBlob(Slice(content_b));
  bench::Check(blob_b.status(), "CreateBlob");
  auto uid_a = (*client)->Put("bpf-a", blob_a->ToValue());
  bench::Check(uid_a.status(), "Put");
  auto uid_b = (*client)->Put("bpf-b", blob_b->ToValue());
  bench::Check(uid_b.status(), "Put");

  BatchedPeerFetchResult r;
  Timer t;
  auto diff = (*client)->DiffBlobVersions(*uid_a, *uid_b);
  r.diff_ms = t.ElapsedSeconds() * 1e3;
  bench::Check(diff.status(), "DiffBlobVersions");
  for (const PeerServlet& s : servlets) {
    r.chunks_fetched += s.resolver->fetches();
    r.round_trips += s.resolver->round_trips();
  }
  return r;
}

// The replication phase: the quorum-ack tax. The same put stream runs
// against (a) a single-copy engine and (b) the leader of a 3-member
// replica group under DurabilityPolicy::kQuorum, where every commit
// blocks until a majority (leader + 1 follower) holds it. The gap is
// the price of synchronous 2-of-3 durability over loopback sockets.
struct ReplicatedPutResult {
  double single_put_kops = 0;
  double quorum_put_kops = 0;
  uint64_t records_shipped = 0;
  uint64_t quorum_commits = 0;
};

ReplicatedPutResult RunReplicatedPutPhase(int ops) {
  ReplicatedPutResult r;
  Rng rng(37);
  const std::string value = rng.String(256);

  {
    ForkBase db;
    Timer t;
    for (int i = 0; i < ops; ++i) {
      bench::Check(
          db.Put(MakeKey(i, 10, "rr"), Value::OfString(value)).status(),
          "Put");
    }
    r.single_put_kops = ops / t.ElapsedSeconds() / 1e3;
  }

  struct Member {
    MemChunkStore* raw = nullptr;
    std::unique_ptr<PeerChunkResolver> resolver =
        std::make_unique<PeerChunkResolver>();
    repl::ReplicatingChunkStore* rstore = nullptr;
    std::unique_ptr<ForkBase> engine;
    std::unique_ptr<rpc::ForkBaseServer> server;
    std::unique_ptr<repl::ReplicaGroup> group;
    ~Member() {
      if (server != nullptr) server->Stop();
      if (group != nullptr) group->Stop();
    }
  };
  Member members[3];
  for (Member& m : members) {
    auto local = std::make_unique<MemChunkStore>();
    m.raw = local.get();
    auto wrapped = std::make_unique<repl::ReplicatingChunkStore>(
        std::make_unique<ServletChunkStore>(std::move(local),
                                            m.resolver.get()));
    m.rstore = wrapped.get();
    DBOptions dbo;
    dbo.durability = DurabilityPolicy::kQuorum;
    m.engine = std::make_unique<ForkBase>(dbo, std::move(wrapped));
    rpc::ServerOptions so;
    so.local_chunk_store = m.raw;
    so.peer_count = 2;
    auto server = rpc::ForkBaseServer::Start(m.engine.get(), so);
    bench::Check(server.status(), "replica server start");
    m.server = std::move(*server);
  }
  std::vector<std::string> endpoints;
  for (const Member& m : members) endpoints.push_back(m.server->endpoint());
  for (size_t i = 0; i < 3; ++i) {
    std::vector<std::string> peers;
    for (size_t j = 0; j < 3; ++j) {
      if (j != i) peers.push_back(endpoints[j]);
    }
    members[i].resolver->SetPeers(peers);
    repl::ReplicaGroupOptions ro;
    ro.members = endpoints;
    ro.self = endpoints[i];
    ro.heartbeat_ms = 10;
    ro.election_timeout_ms = 60000;
    members[i].group = std::make_unique<repl::ReplicaGroup>(
        members[i].engine.get(), members[i].rstore, ro);
    bench::Check(members[i].group->Start(), "replica group start");
    members[i].server->set_replication(members[i].group.get());
  }
  // Quorum commits block until a majority acks; wait for the followers
  // to register before the timer starts.
  while (members[0].group->Snapshot().follower_count < 2) {
    std::this_thread::yield();
  }
  {
    Timer t;
    for (int i = 0; i < ops; ++i) {
      bench::Check(members[0]
                       .engine->Put(MakeKey(i, 10, "rr"),
                                    Value::OfString(value))
                       .status(),
                   "quorum Put");
    }
    r.quorum_put_kops = ops / t.ElapsedSeconds() / 1e3;
  }
  const repl::ReplicaGroupStats stats = members[0].group->stats();
  r.records_shipped = stats.records_shipped;
  r.quorum_commits = stats.quorum_commits;
  return r;
}

}  // namespace
}  // namespace fb

int main(int argc, char** argv) {
  const bool quick = fb::bench::FlagArg(argc, argv, "--quick");
  const double scale = fb::bench::ScaleArg(argc, argv, quick ? 0.05 : 0.25);
  const int base_ops = static_cast<int>(40000 * scale);
  fb::bench::BenchJson json(argc, argv, "fig8_scalability");
  json.Config("scale", scale)
      .Config("quick", quick ? "true" : "false")
      .Config("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));

  fb::bench::Header("Figure 8: Scalability with multiple servlets");
  fb::bench::Row("(one thread per servlet; wall-clock = max over servlet "
                 "partitions)");
  fb::bench::Row("%8s %16s %16s %16s %16s", "#Nodes", "Put-256 kop/s",
                 "Get-256 kop/s", "Put-2560 kop/s", "Get-2560 kop/s");

  const std::vector<size_t> node_counts =
      quick ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 2, 4, 8, 16};
  for (size_t n : node_counts) {
    fb::ClusterOptions opts;
    opts.num_servlets = n;
    fb::Cluster cluster(opts);
    const int ops = base_ops * static_cast<int>(n);

    const double put256 = fb::RunPhase(&cluster, 256, ops, true);
    const double get256 = fb::RunPhase(&cluster, 256, ops, false);
    const double put2560 = fb::RunPhase(&cluster, 2560, ops, true);
    const double get2560 = fb::RunPhase(&cluster, 2560, ops, false);
    fb::bench::Row("%8zu %16.1f %16.1f %16.1f %16.1f", n, put256 / 1e3,
                   get256 / 1e3, put2560 / 1e3, get2560 / 1e3);
    json.Row()
        .Str("phase", "cluster")
        .Num("nodes", static_cast<double>(n))
        .Num("put256_kops", put256 / 1e3)
        .Num("get256_kops", get256 / 1e3)
        .Num("put2560_kops", put2560 / 1e3)
        .Num("get2560_kops", get2560 / 1e3);
  }

  fb::bench::Header(
      "Striped BranchManager: shared-engine Puts on independent keys");
  fb::bench::Row("%8s %20s %20s %10s", "Threads", "1 stripe kop/s",
                 "64 stripes kop/s", "speedup");
  const int stripe_ops = std::max(1000, base_ops / 2);
  const std::vector<size_t> thread_counts =
      quick ? std::vector<size_t>{4} : std::vector<size_t>{1, 2, 4, 8};
  // Best-of-3 per config: on a starved host, scheduler interference
  // dominates a single run; the max is the least-perturbed measurement.
  const int reps = quick ? 1 : 3;
  for (size_t t : thread_counts) {
    double single = 0, striped = 0;
    for (int r = 0; r < reps; ++r) {
      single = std::max(single, fb::RunStripedPuts(t, 1, stripe_ops));
      striped = std::max(striped, fb::RunStripedPuts(t, 64, stripe_ops));
    }
    fb::bench::Row("%8zu %20.1f %20.1f %9.2fx", t, single, striped,
                   striped / single);
    json.Row()
        .Str("phase", "branch_stripes")
        .Num("threads", static_cast<double>(t))
        .Num("put_single_lock_kops", single)
        .Num("put_striped_kops", striped)
        .Num("speedup", striped / single);
  }

  fb::bench::Header(
      "Async ClusterClient::Submit: per-servlet queues coalescing Puts "
      "into PutMany group commits");
  fb::bench::Row("%8s %14s %12s %16s %10s", "Threads", "Put kop/s",
                 "put groups", "coalesced puts", "max group");
  const int async_ops = std::max(500, base_ops / 4);
  const std::vector<size_t> async_threads =
      quick ? std::vector<size_t>{4} : std::vector<size_t>{2, 4, 8};
  for (size_t t : async_threads) {
    fb::ClusterOptions opts;
    opts.num_servlets = 4;
    fb::Cluster cluster(opts);
    const fb::AsyncResult r =
        fb::RunAsyncSubmit(&cluster, t, async_ops, 256);
    fb::bench::Row("%8zu %14.1f %12llu %16llu %10llu", t, r.kops,
                   static_cast<unsigned long long>(r.stats.put_groups),
                   static_cast<unsigned long long>(r.stats.coalesced_puts),
                   static_cast<unsigned long long>(r.stats.max_group));
    json.Row()
        .Str("phase", "async_client")
        .Num("threads", static_cast<double>(t))
        .Num("put_kops", r.kops)
        .Num("put_groups", static_cast<double>(r.stats.put_groups))
        .Num("coalesced_puts", static_cast<double>(r.stats.coalesced_puts))
        .Num("max_group", static_cast<double>(r.stats.max_group));
  }

  fb::bench::Header(
      "RPC transport: loopback socket vs embedded dispatch (256 B values)");
  fb::bench::Row("%-10s %14s %14s %20s", "Transport", "Put kop/s",
                 "Get kop/s", "pipelined Put kop/s");
  const int rpc_ops = std::max(500, base_ops / 4);
  // Best-of-N like the stripes phase: on a starved host a single run is
  // dominated by scheduler interference.
  const int rpc_reps = quick ? 1 : 3;
  {
    fb::RpcResult r;
    for (int rep = 0; rep < rpc_reps; ++rep) {
      fb::ForkBase engine;
      fb::EmbeddedService embedded(&engine);
      const fb::RpcResult one =
          fb::RunRpcPhase(&embedded, rpc_ops, false, nullptr);
      r.put_kops = std::max(r.put_kops, one.put_kops);
      r.get_kops = std::max(r.get_kops, one.get_kops);
    }
    fb::bench::Row("%-10s %14.1f %14.1f %20s", "embedded", r.put_kops,
                   r.get_kops, "-");
    json.Row()
        .Str("phase", "rpc")
        .Str("transport", "embedded")
        .Num("put_kops", r.put_kops)
        .Num("get_kops", r.get_kops);
  }
  {
    fb::RpcResult r;
    for (int rep = 0; rep < rpc_reps; ++rep) {
      fb::ForkBase engine;
      auto server = fb::rpc::ForkBaseServer::Start(&engine, {});
      fb::bench::Check(server.status(), "server start");
      auto remote = fb::rpc::RemoteService::Connect((*server)->endpoint());
      fb::bench::Check(remote.status(), "connect");
      const fb::RpcResult one =
          fb::RunRpcPhase(remote->get(), rpc_ops, true, remote->get());
      r.put_kops = std::max(r.put_kops, one.put_kops);
      r.get_kops = std::max(r.get_kops, one.get_kops);
      r.pipelined_put_kops =
          std::max(r.pipelined_put_kops, one.pipelined_put_kops);
    }
    fb::bench::Row("%-10s %14.1f %14.1f %20.1f", "socket", r.put_kops,
                   r.get_kops, r.pipelined_put_kops);
    json.Row()
        .Str("phase", "rpc")
        .Str("transport", "socket")
        .Num("put_kops", r.put_kops)
        .Num("get_kops", r.get_kops)
        .Num("pipelined_put_kops", r.pipelined_put_kops);
  }
  {
    // Two servers resolving each other's chunks: the cost of
    // placement-blind version-addressed reads over a real socket pair.
    const fb::PeerFetchResult r = fb::RunPeerFetchPhase(rpc_ops);
    fb::bench::Row("%-10s %14.1f %14.1f %20s  (peer fetches: %llu)",
                   "peer_fetch", r.put_kops, r.get_by_uid_kops, "-",
                   static_cast<unsigned long long>(r.peer_fetches));
    json.Row()
        .Str("phase", "rpc")
        .Str("transport", "peer_fetch")
        .Num("put_kops", r.put_kops)
        .Num("get_by_uid_kops", r.get_by_uid_kops)
        .Num("peer_fetches", static_cast<double>(r.peer_fetches))
        .Num("peer_fetch_failures",
             static_cast<double>(r.peer_fetch_failures));
  }
  {
    // A cross-shard tree diff: every miss of a traversal level rides one
    // batched peer fetch, so round trips stay well below chunks moved.
    const fb::BatchedPeerFetchResult r =
        fb::RunBatchedPeerFetchPhase(quick ? 65536 : 262144);
    fb::bench::Row("%-18s diff %.2f ms  (%llu chunks over %llu round trips)",
                   "batched_peer_fetch", r.diff_ms,
                   static_cast<unsigned long long>(r.chunks_fetched),
                   static_cast<unsigned long long>(r.round_trips));
    json.Row()
        .Str("phase", "rpc")
        .Str("transport", "batched_peer_fetch")
        .Num("diff_ms", r.diff_ms)
        .Num("peer_chunks_fetched", static_cast<double>(r.chunks_fetched))
        .Num("peer_round_trips", static_cast<double>(r.round_trips));
  }
  {
    // The quorum-ack tax: one put stream, single-copy vs a 3-member
    // replica group where every commit waits for a majority.
    const fb::ReplicatedPutResult r = fb::RunReplicatedPutPhase(rpc_ops);
    fb::bench::Row("%-14s %14.1f single-copy  %10.1f quorum kop/s  "
                   "(%.1fx tax, %llu records shipped)",
                   "replicated_put", r.single_put_kops, r.quorum_put_kops,
                   r.single_put_kops / r.quorum_put_kops,
                   static_cast<unsigned long long>(r.records_shipped));
    json.Row()
        .Str("phase", "replication")
        .Str("transport", "replicated_put")
        .Num("single_put_kops", r.single_put_kops)
        .Num("quorum_put_kops", r.quorum_put_kops)
        .Num("quorum_tax", r.single_put_kops / r.quorum_put_kops)
        .Num("records_shipped", static_cast<double>(r.records_shipped))
        .Num("quorum_commits", static_cast<double>(r.quorum_commits));
  }
  return 0;
}
