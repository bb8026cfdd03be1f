// forkbased: the ForkBase servlet daemon.
//
// Serves one ForkBase engine over the socket RPC transport, so clients
// in other processes (forkbase_cli --connect, RemoteService,
// ClusterClient with endpoints) reach it through the same Command/Reply
// envelope the in-process facade uses. One forkbased process per
// servlet; a multi-servlet deployment is N processes plus a client-side
// endpoint list.
//
// Usage:
//   forkbased [--listen <host:port|unix:/path>] [--dir <data-dir>]
//             [--workers <n>] [--peers <ep1,ep2,...>]
//             [--group <ep1,ep2,...>] [--replicate-from <ep>]
//
//   --listen   endpoint to serve (default 127.0.0.1:8087; ":0" picks an
//              ephemeral port, printed on stdout)
//   --dir      persist chunks + branch heads under this directory
//              (default: in-memory)
//   --workers  request worker threads (default 4)
//   --peers    comma-separated endpoints of the OTHER servlets of this
//              deployment. Chunk reads that miss the local store are
//              resolved from these peers (shared-pool semantics of
//              Section 4.6 across processes), cached, and served —
//              so version-addressed commands and server-side traversals
//              of trees whose chunks landed on another shard work on
//              any servlet, with no client-side retries.
//   --group    comma-separated endpoints of ALL members of this shard's
//              replication group, identically ordered on every member;
//              --listen must appear in the list, the first entry is the
//              initial leader. Implies quorum durability (a Put returns
//              only once a majority of members holds it) and failover
//              (followers elect a new leader when the leader dies).
//              Group members double as chunk peers automatically.
//   --replicate-from
//              run as a STATIC follower of the given leader: apply its
//              shipped log, serve reads, never promote. A lightweight
//              read replica / live backup, without group semantics.
//
// Runs until SIGINT/SIGTERM, then shuts the transport down cleanly
// (which also snapshots branch state when --dir is set).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "api/db.h"
#include "chunk/peer_resolver.h"
#include "cluster/cluster.h"
#include "replication/group.h"
#include "replication/replicated_store.h"
#include "rpc/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

const char* ArgValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen = "127.0.0.1:8087";
  std::string dir;
  fb::rpc::ServerOptions options;
  if (const char* v = ArgValue(argc, argv, "--listen")) listen = v;
  if (const char* v = ArgValue(argc, argv, "--dir")) dir = v;
  if (const char* v = ArgValue(argc, argv, "--workers")) {
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (*end != '\0' || n < 1 || n > 1024) {
      std::fprintf(stderr, "--workers wants an integer in [1, 1024], got %s\n",
                   v);
      return 1;
    }
    options.num_workers = static_cast<size_t>(n);
  }
  options.listen = listen;
  std::vector<std::string> peers;
  if (const char* v = ArgValue(argc, argv, "--peers")) peers = SplitCommas(v);

  // Replication: --group (full leader/follower group, quorum
  // durability, failover) or --replicate-from (static follower).
  std::vector<std::string> group;
  std::string replicate_from;
  if (const char* v = ArgValue(argc, argv, "--group")) group = SplitCommas(v);
  if (const char* v = ArgValue(argc, argv, "--replicate-from")) {
    replicate_from = v;
  }
  if (!group.empty() && !replicate_from.empty()) {
    std::fprintf(stderr, "--group and --replicate-from are exclusive\n");
    return 1;
  }
  const bool replicated = !group.empty() || !replicate_from.empty();
  if (!group.empty()) {
    bool self_listed = false;
    for (const auto& m : group) self_listed |= (m == listen);
    if (!self_listed) {
      std::fprintf(stderr, "--group must include --listen (%s)\n",
                   listen.c_str());
      return 1;
    }
    // Group members double as chunk peers: a follower bootstrapped by
    // snapshot pulls the chunks behind it from the leader on demand.
    for (const auto& m : group) {
      if (m != listen) peers.push_back(m);
    }
  }
  if (!replicate_from.empty()) peers.push_back(replicate_from);

  // With peers, the engine's store becomes a peer-resolving view over
  // the physical local store: local -> cache -> peer fetch. The
  // server answers kChunkPeerGet from the RAW local store (never the
  // view), so peers asking each other can never recurse. Replicated,
  // one more layer goes on top: the ReplicatingChunkStore that feeds
  // fresh chunks into the shipped log while this member leads.
  std::unique_ptr<fb::PeerChunkResolver> resolver;
  if (!peers.empty()) {
    resolver = std::make_unique<fb::PeerChunkResolver>(peers);
  }
  fb::ChunkStore* raw_local = nullptr;
  fb::repl::ReplicatingChunkStore* repl_store = nullptr;

  fb::DBOptions dbo;
  if (!group.empty()) dbo.durability = fb::DurabilityPolicy::kQuorum;

  auto wrap_stack = [&](std::unique_ptr<fb::ChunkStore> base)
      -> std::unique_ptr<fb::ChunkStore> {
    raw_local = base.get();
    std::unique_ptr<fb::ChunkStore> view = std::move(base);
    if (resolver != nullptr) {
      view = std::make_unique<fb::ServletChunkStore>(std::move(view),
                                                     resolver.get());
    }
    if (replicated) {
      auto wrapped =
          std::make_unique<fb::repl::ReplicatingChunkStore>(std::move(view));
      repl_store = wrapped.get();
      view = std::move(wrapped);
    }
    return view;
  };

  std::unique_ptr<fb::ForkBase> engine;
  if (!dir.empty()) {
    fb::ForkBase::StoreWrapper wrap;
    if (resolver != nullptr || replicated) wrap = wrap_stack;
    auto opened = fb::ForkBase::OpenPersistent(dir, dbo, wrap);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*opened);
  } else if (resolver != nullptr || replicated) {
    engine = std::make_unique<fb::ForkBase>(
        dbo, wrap_stack(std::make_unique<fb::MemChunkStore>()));
  } else {
    engine = std::make_unique<fb::ForkBase>(dbo);
  }

  options.local_chunk_store = raw_local;  // null when no peers: engine store
  options.peer_count = peers.size();
  auto server = fb::rpc::ForkBaseServer::Start(engine.get(), options);
  if (!server.ok()) {
    std::fprintf(stderr, "start: %s\n", server.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<fb::repl::ReplicaGroup> repl_group;
  if (replicated) {
    fb::repl::ReplicaGroupOptions ro;
    ro.self = listen;
    if (!group.empty()) {
      ro.members = group;
    } else {
      // Static follower: the source leads, we never promote.
      ro.members = {replicate_from, listen};
      ro.auto_promote = false;
    }
    repl_group = std::make_unique<fb::repl::ReplicaGroup>(
        engine.get(), repl_store, std::move(ro));
    const fb::Status rs = repl_group->Start();
    if (!rs.ok()) {
      std::fprintf(stderr, "replication: %s\n", rs.ToString().c_str());
      return 1;
    }
    (*server)->set_replication(repl_group.get());
  }

  std::printf("forkbased serving %s on %s (%zu workers, %zu peers)\n",
              dir.empty() ? "in-memory store" : dir.c_str(),
              (*server)->endpoint().c_str(), options.num_workers,
              peers.size());
  if (repl_group != nullptr) {
    std::printf("replication: %s of %zu-member group, epoch %llu\n",
                fb::repl::RoleName(repl_group->role()),
                repl_group->members().size(),
                static_cast<unsigned long long>(repl_group->epoch()));
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  while (g_stop == 0) {
    timespec nap{};
    nap.tv_nsec = 200 * 1000 * 1000;
    nanosleep(&nap, nullptr);
  }

  std::printf("forkbased: shutting down\n");
  (*server)->Stop();
  if (repl_group != nullptr) repl_group->Stop();
  const auto stats = (*server)->stats();
  std::printf("served %llu requests over %llu connections (%llu protocol "
              "errors)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.protocol_errors));
  return 0;
}
