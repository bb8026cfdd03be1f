// Tests for the socket RPC transport (src/rpc):
//
//  * Framing — CRC32 vectors, encode/decode round-trips, and the damage
//    taxonomy (truncation, checksum mismatch, oversized length prefix).
//  * Hostile wire input against a LIVE server — a bad checksum is
//    answered with an error and the SAME connection keeps working; an
//    oversized length prefix closes only that connection; a mid-stream
//    disconnect leaves the server serving new connections. No crash, no
//    hang, clean Status everywhere.
//  * RemoteService — pipelined Submit with out-of-order completion
//    (request-id demultiplexing), reconnect after a server restart, sync
//    callers that read their own replies (no helper threads), mixed
//    sync/pipelined callers on one socket, and GetValues the server
//    answers on its event loop from the hot-head cache.
//  * ClusterClient endpoints — mixed embedded/remote and all-remote
//    deployments route the same typed API across processes.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "api/service.h"
#include "chunk/peer_resolver.h"
#include "cluster/client.h"
#include "cluster/cluster.h"
#include "rpc/frame.h"
#include "rpc/remote_service.h"
#include "rpc/server.h"
#include "util/random.h"

namespace fb {
namespace {

DBOptions SmallOpts() {
  DBOptions o;
  o.tree.leaf_pattern_bits = 7;
  o.tree.index_pattern_bits = 3;
  return o;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(FrameTest, Crc32KnownAnswer) {
  // The standard CRC-32 check value.
  EXPECT_EQ(rpc::Crc32(Slice("123456789")), 0xCBF43926u);
  EXPECT_EQ(rpc::Crc32(Slice()), 0u);
}

// A connected socket pair for in-process framing tests.
struct SocketPair {
  rpc::Socket a, b;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = rpc::Socket(fds[0]);
    b = rpc::Socket(fds[1]);
  }
};

TEST(FrameTest, RoundTripsTypeIdAndPayload) {
  SocketPair pair;
  const Bytes payload = ToBytes("some frame payload");
  ASSERT_TRUE(rpc::SendFrame(&pair.a, rpc::FrameType::kChunkPut, 0xABCDEF01u,
                             Slice(payload))
                  .ok());
  rpc::Frame frame;
  ASSERT_TRUE(rpc::RecvFrame(&pair.b, &frame).ok());
  EXPECT_EQ(frame.type, rpc::FrameType::kChunkPut);
  EXPECT_EQ(frame.request_id, 0xABCDEF01u);
  EXPECT_EQ(frame.payload, payload);
}

TEST(FrameTest, ChecksumMismatchIsCorruptionAndStreamStaysFramed) {
  SocketPair pair;
  Bytes wire;
  rpc::EncodeFrame(rpc::FrameType::kCommand, 7, Slice("payload"), &wire);
  wire.back() ^= 0xFF;  // flip a payload byte; the header crc now lies
  ASSERT_TRUE(pair.a.SendAll(wire.data(), wire.size()).ok());
  // A healthy frame right behind it.
  ASSERT_TRUE(rpc::SendFrame(&pair.a, rpc::FrameType::kHello, 8, Slice()).ok());

  rpc::Frame frame;
  Status s = rpc::RecvFrame(&pair.b, &frame);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(frame.request_id, 7u);  // header still identified the request
  // The boundary held: the next frame decodes cleanly.
  ASSERT_TRUE(rpc::RecvFrame(&pair.b, &frame).ok());
  EXPECT_EQ(frame.type, rpc::FrameType::kHello);
  EXPECT_EQ(frame.request_id, 8u);
}

TEST(FrameTest, OversizedLengthIsInvalidArgument) {
  SocketPair pair;
  uint8_t header[rpc::kFrameHeaderSize] = {};
  const uint32_t huge = rpc::kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) header[i] = static_cast<uint8_t>(huge >> (8 * i));
  ASSERT_TRUE(pair.a.SendAll(header, sizeof(header)).ok());
  rpc::Frame frame;
  const Status s = rpc::RecvFrame(&pair.b, &frame);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(FrameTest, TruncationIsIOError) {
  SocketPair pair;
  Bytes wire;
  rpc::EncodeFrame(rpc::FrameType::kCommand, 9, Slice("payload"), &wire);
  ASSERT_TRUE(pair.a.SendAll(wire.data(), wire.size() - 3).ok());
  pair.a.Close();  // peer dies mid-frame
  rpc::Frame frame;
  const Status s = rpc::RecvFrame(&pair.b, &frame);
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
}

// ---------------------------------------------------------------------------
// Hostile input against a live server
// ---------------------------------------------------------------------------

struct LiveServer {
  ForkBase engine{SmallOpts()};
  std::unique_ptr<rpc::ForkBaseServer> server;
  LiveServer() {
    auto started = rpc::ForkBaseServer::Start(&engine, {});
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    server = std::move(*started);
  }
  rpc::Socket RawConnect() {
    auto ep = rpc::Endpoint::Parse(server->endpoint());
    EXPECT_TRUE(ep.ok());
    auto sock = rpc::Socket::Connect(*ep);
    EXPECT_TRUE(sock.ok()) << sock.status().ToString();
    return std::move(*sock);
  }
};

TEST(ServerHostileInputTest, BadChecksumAnsweredOnUsableConnection) {
  LiveServer live;
  rpc::Socket sock = live.RawConnect();

  Bytes damaged;
  rpc::EncodeFrame(rpc::FrameType::kHello, 41, Slice("x"), &damaged);
  damaged.back() ^= 0x55;
  ASSERT_TRUE(sock.SendAll(damaged.data(), damaged.size()).ok());

  // The server reports the damage, tagged with our request id...
  rpc::Frame frame;
  ASSERT_TRUE(rpc::RecvFrame(&sock, &frame).ok());
  EXPECT_EQ(frame.type, rpc::FrameType::kControlResp);
  EXPECT_EQ(frame.request_id, 41u);
  Status remote;
  Slice body;
  ASSERT_TRUE(rpc::DecodeControl(Slice(frame.payload), &remote, &body).ok());
  EXPECT_TRUE(remote.IsCorruption()) << remote.ToString();

  // ...and the SAME connection still serves requests.
  ASSERT_TRUE(rpc::SendFrame(&sock, rpc::FrameType::kHello, 42, Slice()).ok());
  ASSERT_TRUE(rpc::RecvFrame(&sock, &frame).ok());
  EXPECT_EQ(frame.request_id, 42u);
  ASSERT_TRUE(rpc::DecodeControl(Slice(frame.payload), &remote, &body).ok());
  EXPECT_TRUE(remote.ok());
  TreeConfig config;
  uint64_t peer_count = 99;
  ASSERT_TRUE(rpc::DecodeHello(body, &config, &peer_count).ok());
  EXPECT_EQ(config.leaf_pattern_bits, SmallOpts().tree.leaf_pattern_bits);
  EXPECT_EQ(peer_count, 0u) << "server without --peers advertised peers";

  EXPECT_GE(live.server->stats().protocol_errors, 1u);
}

TEST(ServerHostileInputTest, OversizedLengthPrefixClosesOnlyThatConnection) {
  LiveServer live;
  rpc::Socket sock = live.RawConnect();

  uint8_t header[rpc::kFrameHeaderSize] = {};
  const uint32_t huge = 0xFFFFFFFFu;
  for (int i = 0; i < 4; ++i) header[i] = static_cast<uint8_t>(huge >> (8 * i));
  header[5] = 77;  // request id, so the error reply is attributable
  ASSERT_TRUE(sock.SendAll(header, sizeof(header)).ok());

  // Best-effort error reply, then EOF: framing was lost.
  rpc::Frame frame;
  Status s = rpc::RecvFrame(&sock, &frame);
  if (s.ok()) {
    EXPECT_EQ(frame.type, rpc::FrameType::kControlResp);
    Status remote;
    Slice body;
    ASSERT_TRUE(rpc::DecodeControl(Slice(frame.payload), &remote, &body).ok());
    EXPECT_TRUE(remote.IsInvalidArgument()) << remote.ToString();
    s = rpc::RecvFrame(&sock, &frame);
  }
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();

  // The server is unharmed: a fresh connection works end to end.
  auto client = rpc::RemoteService::Connect(live.server->endpoint());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto uid = (*client)->Put("after-attack", Value::OfInt(1));
  EXPECT_TRUE(uid.ok()) << uid.status().ToString();
}

TEST(ServerHostileInputTest, ResponseFramesDisconnectAfterBoundedErrors) {
  // kReply/kControlResp are frames only a SERVER may send. A client
  // shipping them gets an InvalidArgument answer — but only a bounded
  // number of times: a hostile client must not be able to loop on free
  // error replies over a connection the server keeps open forever.
  LiveServer live;
  rpc::Socket sock = live.RawConnect();

  constexpr int kSent = 32;  // well past the default protocol-error bound
  // The server hangs up once the bound is reached, so later sends may
  // fail (EPIPE / reset): stop at the first one that does.
  int sent = 0;
  while (sent < kSent &&
         rpc::SendFrame(&sock, rpc::FrameType::kReply,
                        1000 + static_cast<uint64_t>(sent), Slice())
             .ok()) {
    ++sent;
  }
  ASSERT_GE(static_cast<uint64_t>(sent),
            rpc::ServerOptions().max_protocol_errors);

  // Drain replies until the server hangs up. Every reply that does come
  // back is an InvalidArgument control response, and there are at most
  // max_protocol_errors of them.
  int error_replies = 0;
  for (;;) {
    rpc::Frame frame;
    const Status s = rpc::RecvFrame(&sock, &frame);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
      break;
    }
    ASSERT_EQ(frame.type, rpc::FrameType::kControlResp);
    Status remote;
    Slice body;
    ASSERT_TRUE(rpc::DecodeControl(Slice(frame.payload), &remote, &body).ok());
    EXPECT_TRUE(remote.IsInvalidArgument()) << remote.ToString();
    ++error_replies;
    ASSERT_LE(error_replies, sent) << "more replies than frames sent";
  }
  EXPECT_LT(error_replies, kSent)
      << "the server answered every hostile frame: the connection was "
         "never closed";
  EXPECT_GE(live.server->stats().protocol_errors,
            static_cast<uint64_t>(error_replies));
  // The server disconnected with unread hostile frames still queued, so
  // its close goes out as an RST — which can race ahead of the error
  // replies and flush them from our receive queue before we read. The
  // "errors are answered, boundedly" property is therefore asserted on
  // the server's own counter, which the wire cannot lose: it stopped at
  // the disconnect bound instead of counting all kSent frames.
  EXPECT_GE(live.server->stats().protocol_errors,
            rpc::ServerOptions().max_protocol_errors);
  EXPECT_LT(live.server->stats().protocol_errors,
            static_cast<uint64_t>(kSent));

  // Only that connection died; the server keeps serving.
  auto client = rpc::RemoteService::Connect(live.server->endpoint());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto uid = (*client)->Put("after-hostile-client", Value::OfInt(3));
  EXPECT_TRUE(uid.ok()) << uid.status().ToString();
}

TEST(ServerHostileInputTest, MidStreamDisconnectLeavesServerServing) {
  LiveServer live;
  {
    rpc::Socket sock = live.RawConnect();
    Bytes wire;
    rpc::EncodeFrame(rpc::FrameType::kCommand, 5,
                     Slice("pretend this is a long command"), &wire);
    // Ship the header plus a few payload bytes, then vanish.
    ASSERT_TRUE(sock.SendAll(wire.data(), rpc::kFrameHeaderSize + 3).ok());
  }  // destructor closes the socket mid-frame
  auto client = rpc::RemoteService::Connect(live.server->endpoint());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto uid = (*client)->Put("still-alive", Value::OfInt(2));
  EXPECT_TRUE(uid.ok()) << uid.status().ToString();
  auto obj = (*client)->Get("still-alive");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->value().AsInt(), 2);
}

// ---------------------------------------------------------------------------
// RemoteService behavior
// ---------------------------------------------------------------------------

TEST(RemoteServiceTest, PipelinedSubmitCompletesEveryFuture) {
  LiveServer live;
  // One connection, several server workers: replies may come back in
  // any order and the request-id demux must pair them correctly.
  rpc::RemoteServiceOptions opts;
  opts.pool_size = 1;
  auto client = rpc::RemoteService::Connect(live.server->endpoint(), opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr int kOps = 200;
  std::vector<std::future<Reply>> futures;
  futures.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    Command cmd;
    cmd.op = CommandOp::kPut;
    cmd.key = MakeKey(i, 8, "pipe");
    cmd.branch = kDefaultBranch;
    cmd.value = Value::OfInt(i);
    futures.push_back((*client)->Submit(std::move(cmd)));
  }
  for (int i = 0; i < kOps; ++i) {
    Reply r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.ToStatus().ToString();
    auto obj = (*client)->GetByUid(r.uid);
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(obj->value().AsInt(), i);
  }
}

size_t ThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(RemoteServiceTest, SyncOnlyConnectionStartsNoHelperThreads) {
  LiveServer live;  // the server's own threads exist before the count
  const size_t before = ThreadCount();
  rpc::RemoteServiceOptions opts;
  opts.pool_size = 1;
  auto client = rpc::RemoteService::Connect(live.server->endpoint(), opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 100; ++i) {
    const std::string key = MakeKey(i % 10, 8, "sync");
    if (i % 4 == 0) {
      ASSERT_TRUE((*client)->Put(key, Value::OfInt(i)).ok());
    } else {
      auto got = (*client)->GetValue(key);
      ASSERT_TRUE(got.ok() || got.status().IsNotFound())
          << got.status().ToString();
    }
  }
  EXPECT_LE(ThreadCount(), before)
      << "a synchronous-only connection started reader or writer threads";
  EXPECT_EQ((*client)->connections_opened(), 1u);
}

TEST(RemoteServiceTest, MixedSyncAndPipelinedCallersShareOneConnection) {
  // Sync callers read the socket themselves and hand each other's replies
  // over; the first Submit starts the reader thread while they read.
  // Every reply must land with its own request.
  LiveServer live;
  rpc::RemoteServiceOptions opts;
  opts.pool_size = 1;
  auto client = rpc::RemoteService::Connect(live.server->endpoint(), opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  rpc::RemoteService* svc = client->get();

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([svc, t, &mismatches] {
      std::vector<std::pair<Hash, std::future<Reply>>> submitted;
      for (int i = 0; i < kRounds; ++i) {
        const std::string key = MakeKey(t * 1000 + i, 8, "mix");
        const int64_t v = t * 1000 + i;
        auto put = svc->Put(key, Value::OfInt(v));
        if (!put.ok()) {
          ++mismatches[t];
          continue;
        }
        // Odd threads pipeline their reads, even ones call synchronously.
        if (t % 2 == 1) {
          Command cmd;
          cmd.op = CommandOp::kGetValue;
          cmd.key = key;
          cmd.branch = kDefaultBranch;
          submitted.emplace_back(*put, svc->Submit(std::move(cmd)));
        } else {
          auto got = svc->GetValue(key);
          if (!got.ok() || got->object.uid() != *put ||
              got->object.value().AsInt() != v) {
            ++mismatches[t];
          }
        }
      }
      for (auto& [uid, future] : submitted) {
        const Reply r = future.get();
        if (!r.ok() || r.uid != uid) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_EQ(svc->connections_opened(), 1u);
}

// Holds every quorum commit while closed: a server worker applying a Put
// sits in WaitCommitDurable, and the Put's caller waits for a reply that
// is not coming until Open().
class CommitGate : public ReplicationCommitHook {
 public:
  Status WaitCommitDurable() override {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
    --waiting_;
    return Status::OK();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void AwaitWaiter() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return waiting_ > 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  int waiting_ = 0;
};

DBOptions GatedOpts() {
  DBOptions o = SmallOpts();
  o.durability = DurabilityPolicy::kQuorum;
  return o;
}

TEST(RemoteServiceTest, HotHeadReadsKeepReadYourWritesAndSkipTheWorkers) {
  ForkBase engine(GatedOpts());
  CommitGate gate;
  engine.AttachReplication(nullptr, &gate);
  rpc::ServerOptions sopts;
  sopts.num_workers = 1;  // one gated Put blocks every worker
  auto server = rpc::ForkBaseServer::Start(&engine, sopts);
  ASSERT_TRUE(server.ok());
  rpc::RemoteServiceOptions opts;
  opts.pool_size = 1;
  auto writer = rpc::RemoteService::Connect((*server)->endpoint(), opts);
  auto reader = rpc::RemoteService::Connect((*server)->endpoint(), opts);
  ASSERT_TRUE(writer.ok() && reader.ok());

  // A returned Put is seen by the next GetValue on either connection,
  // whether the cache held the old head or not.
  for (int i = 0; i < 30; ++i) {
    auto uid = (*writer)->Put("ryw", Value::OfInt(i));
    ASSERT_TRUE(uid.ok()) << uid.status().ToString();
    for (rpc::RemoteService* svc : {writer->get(), reader->get()}) {
      for (int rep = 0; rep < 2; ++rep) {
        auto got = svc->GetValue("ryw");
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->object.uid(), *uid) << "round " << i;
        EXPECT_EQ(got->object.value().AsInt(), i);
      }
    }
  }
  ASSERT_TRUE(engine.Put("cold", Value::OfInt(7)).ok());

  // A synchronous GetValue issued while the only worker is parked. If no
  // answer comes without the worker, the gate opens (so the test fails
  // instead of hanging) and the read finishes on the worker.
  auto read_while_parked = [&](const std::string& key) {
    auto read = std::async(std::launch::async,
                           [&] { return (*reader)->GetValue(key); });
    const bool inline_answer = read.wait_for(std::chrono::seconds(10)) ==
                               std::future_status::ready;
    EXPECT_TRUE(inline_answer) << key << " waited for the parked worker";
    if (!inline_answer) gate.Open();
    return read.get();
  };

  // Park the only worker on a gated Put.
  gate.Close();
  std::thread blocked([&] { (void)(*writer)->Put("held", Value::OfInt(1)); });
  gate.AwaitWaiter();

  // A cached head is answered on the event loop while the worker is busy.
  auto hot = read_while_parked("ryw");
  EXPECT_TRUE(hot.ok()) << hot.status().ToString();
  if (hot.ok()) {
    EXPECT_EQ(hot->object.value().AsInt(), 29);
  }

  // An uncached head waits for a worker.
  Command cmd;
  cmd.op = CommandOp::kGetValue;
  cmd.key = "cold";
  cmd.branch = kDefaultBranch;
  std::future<Reply> cold = (*reader)->Submit(cmd);
  EXPECT_EQ(cold.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "an uncached head was answered without a worker";
  gate.Open();
  const Reply first = cold.get();
  blocked.join();
  ASSERT_TRUE(first.ok()) << first.ToStatus().ToString();

  // The worker's read filled the cache: the next read of the key is
  // answered while the worker is parked again.
  gate.Close();
  std::thread blocked_again(
      [&] { (void)(*writer)->Put("held", Value::OfInt(2)); });
  gate.AwaitWaiter();
  auto warm = read_while_parked("cold");
  gate.Open();
  blocked_again.join();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->object.uid(), first.uid);
  EXPECT_EQ(warm->object.value().AsInt(), 7);
  EXPECT_GT(engine.hot_head_stats().hits, 0u);

  // A cached value too large for the event loop to copy is answered by
  // a worker, and whole.
  const std::string big(256u << 10, 'b');
  ASSERT_TRUE(engine.Put("big", Value::OfString(Slice(big))).ok());
  ASSERT_TRUE(engine.GetValue("big").ok());  // now the cache holds it
  gate.Close();
  std::thread blocked_big(
      [&] { (void)(*writer)->Put("held", Value::OfInt(3)); });
  gate.AwaitWaiter();
  cmd.key = "big";
  std::future<Reply> large = (*reader)->Submit(cmd);
  EXPECT_EQ(large.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "a large cached value was copied on the event loop";
  gate.Open();
  const Reply big_reply = large.get();
  blocked_big.join();
  ASSERT_TRUE(big_reply.ok()) << big_reply.ToStatus().ToString();
  EXPECT_EQ(Slice(big_reply.value).ToString(), big);
}

TEST(RemoteServiceTest, BackpressureBoundNeverDeadlocksOrDropsRequests) {
  // A dispatch queue bounded far below the pipelining depth: readers
  // park on the bound and drain as workers catch up. Every future must
  // still resolve.
  ForkBase engine(SmallOpts());
  rpc::ServerOptions sopts;
  sopts.max_queued_requests = 2;
  sopts.num_workers = 1;
  auto server = rpc::ForkBaseServer::Start(&engine, sopts);
  ASSERT_TRUE(server.ok());
  rpc::RemoteServiceOptions opts;
  opts.pool_size = 2;
  auto client = rpc::RemoteService::Connect((*server)->endpoint(), opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<std::future<Reply>> futures;
  for (int i = 0; i < 150; ++i) {
    Command cmd;
    cmd.op = CommandOp::kPut;
    cmd.key = MakeKey(i, 8, "bp");
    cmd.branch = kDefaultBranch;
    cmd.value = Value::OfInt(i);
    futures.push_back((*client)->Submit(std::move(cmd)));
  }
  for (auto& f : futures) {
    Reply r = f.get();
    ASSERT_TRUE(r.ok()) << r.ToStatus().ToString();
  }
}

TEST(RemoteServiceTest, ReconnectsAfterServerRestart) {
  ForkBase engine(SmallOpts());
  rpc::ServerOptions sopts;
  auto server = rpc::ForkBaseServer::Start(&engine, sopts);
  ASSERT_TRUE(server.ok());
  const std::string endpoint = (*server)->endpoint();

  rpc::RemoteServiceOptions opts;
  opts.pool_size = 1;
  auto client = rpc::RemoteService::Connect(endpoint, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->Put("survivor", Value::OfInt(10)).ok());
  const uint64_t before = (*client)->connections_opened();

  // Take the server down (in-flight connections die) and bring a new
  // process-equivalent up on the same endpoint and engine.
  (*server)->Stop();
  server->reset();
  sopts.listen = endpoint;
  auto revived = rpc::ForkBaseServer::Start(&engine, sopts);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();

  // Nothing read the idle pooled connection when the server closed it;
  // the pool must notice before reusing it, so the very first call after
  // the restart is served, on a fresh connection, with state intact.
  Result<FObject> obj = (*client)->Get("survivor");
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  EXPECT_EQ(obj->value().AsInt(), 10);
  EXPECT_GT((*client)->connections_opened(), before);
}

// ---------------------------------------------------------------------------
// ClusterClient over endpoints
// ---------------------------------------------------------------------------

TEST(ClusterEndpointsTest, MixedEmbeddedAndRemoteDeployment) {
  // Shard 0 lives in-process; shard 1 is a separate server process
  // (modeled by a second engine behind a socket).
  ClusterOptions copts;
  copts.num_servlets = 2;
  copts.db = SmallOpts();
  Cluster cluster(copts);

  ForkBase remote_engine(SmallOpts());
  auto server = rpc::ForkBaseServer::Start(&remote_engine, {});
  ASSERT_TRUE(server.ok());

  ClusterClientOptions opts;
  opts.endpoints = {"", (*server)->endpoint()};
  auto client = ClusterClient::Connect(&cluster, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Keys route across both transports; every commit reads back.
  std::set<std::string> expected;
  std::set<size_t> shards_used;
  for (int i = 0; i < 24; ++i) {
    const std::string key = MakeKey(i, 8, "mx");
    shards_used.insert(ShardOfKey(key, 2));
    ASSERT_TRUE((*client)->Put(key, Value::OfInt(i)).ok()) << key;
    expected.insert(key);
    auto obj = (*client)->Get(key);
    ASSERT_TRUE(obj.ok()) << key;
    EXPECT_EQ(obj->value().AsInt(), i);
    // Version-addressed reads work no matter which shard committed the
    // object: they route to the in-process shard, whose chunk view
    // peer-fetches from the remote servlet — ONE dispatch, no retries.
    auto by_uid = (*client)->GetByUid(obj->uid());
    ASSERT_TRUE(by_uid.ok()) << key << ": " << by_uid.status().ToString();
  }
  ASSERT_EQ(shards_used.size(), 2u) << "keys did not span both shards";
  const auto routes = (*client)->route_stats();
  EXPECT_EQ(routes.version_commands, routes.version_dispatches)
      << "a version-addressed command was retried on another shard";

  // ListKeys unions the in-process shard and the remote shard.
  auto keys = (*client)->ListKeys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(std::set<std::string>(keys->begin(), keys->end()), expected);

  // PutMany partitions across transports and reassembles uids in order.
  std::vector<std::pair<std::string, Value>> kvs;
  for (int i = 0; i < 16; ++i) {
    kvs.emplace_back(MakeKey(i, 8, "mb"), Value::OfInt(100 + i));
  }
  auto uids = (*client)->PutMany(kvs);
  ASSERT_TRUE(uids.ok()) << uids.status().ToString();
  for (size_t i = 0; i < kvs.size(); ++i) {
    auto obj = (*client)->Get(kvs[i].first);
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(obj->uid(), (*uids)[i]);
  }

  // Server-side blob construction works on whichever shard owns the key,
  // and the client's composite chunk view can read both back.
  for (int i = 0; i < 4; ++i) {
    const std::string key = MakeKey(i, 8, "blob");
    const std::string content = "content for " + key;
    ASSERT_TRUE(
        (*client)->PutBlob(key, kDefaultBranch, Slice(content)).ok());
    auto obj = (*client)->Get(key);
    ASSERT_TRUE(obj.ok());
    auto blob = (*client)->GetBlob(*obj);
    ASSERT_TRUE(blob.ok());
    auto read = blob->ReadAll();
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(BytesToString(*read), content);
  }
}

// ---------------------------------------------------------------------------
// Server-to-server chunk fetch (peer topology)
// ---------------------------------------------------------------------------

// One standalone servlet wired the way `forkbased --peers` wires itself:
// the engine's store is a peer-resolving view over the physical local
// store, and the server answers kChunkPeerGet from the raw store.
struct PeerServer {
  std::unique_ptr<PeerChunkResolver> resolver;
  ChunkStore* raw_local = nullptr;
  std::unique_ptr<ForkBase> engine;
  std::unique_ptr<rpc::ForkBaseServer> server;

  explicit PeerServer(size_t advertised_peers = 1) {
    resolver = std::make_unique<PeerChunkResolver>();
    auto local = std::make_unique<MemChunkStore>();
    raw_local = local.get();
    engine = std::make_unique<ForkBase>(
        SmallOpts(), std::make_unique<ServletChunkStore>(std::move(local),
                                                         resolver.get()));
    rpc::ServerOptions so;
    so.local_chunk_store = raw_local;
    so.peer_count = advertised_peers;
    auto started = rpc::ForkBaseServer::Start(engine.get(), so);
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    server = std::move(*started);
  }

  ChunkStoreStats view_stats() const { return engine->store()->stats(); }
};

TEST(PeerFetchTest, ResolverDistinguishesNobodyHasItFromPeerDown) {
  PeerServer alive(0);
  const Chunk held = Chunk(ChunkType::kBlob, ToBytes("held by the peer"));
  const Hash held_cid = held.ComputeCid();
  ASSERT_TRUE(alive.raw_local->Put(held_cid, held).ok());

  // All peers up: a present cid resolves, an absent one is an
  // authoritative NotFound.
  PeerChunkResolver resolver({alive.server->endpoint()});
  Chunk out;
  ASSERT_TRUE(resolver.Fetch(held_cid, &out).ok());
  EXPECT_EQ(out.payload().ToString(), "held by the peer");
  EXPECT_EQ(resolver.fetches(), 1u);
  const Status missing =
      resolver.Fetch(Hash::Of(Slice("nobody has this")), &out);
  EXPECT_TRUE(missing.IsNotFound()) << missing.ToString();
  // Every peer answered authoritatively: that is a NEGATIVE, not a
  // failure — nothing about the fetch machinery failed.
  EXPECT_EQ(resolver.negatives(), 1u);
  EXPECT_EQ(resolver.failures(), 0u);

  // A dead peer in the set: absence can no longer be proven, so the
  // miss surfaces as Unavailable, never NotFound — and counts as a
  // failure, not a negative.
  PeerChunkResolver half_down(
      {alive.server->endpoint(), "127.0.0.1:1"});
  const Status unprovable =
      half_down.Fetch(Hash::Of(Slice("nobody has this either")), &out);
  EXPECT_TRUE(unprovable.IsUnavailable()) << unprovable.ToString();
  EXPECT_EQ(half_down.failures(), 1u);
  EXPECT_EQ(half_down.negatives(), 0u);
  // A cid the live peer holds still resolves despite the dead one.
  ASSERT_TRUE(half_down.Fetch(held_cid, &out).ok());
}

TEST(PeerFetchTest, DownPeerEntersBackoffAndSkipsReconnects) {
  // A peer that cannot be reached must not cost a fresh failed TCP
  // connect on every fetch: after the first failure it cools down and
  // is skipped outright until the cooldown expires.
  PeerResolverOptions opts;
  opts.backoff_initial_ms = 60'000;  // far beyond this test's lifetime
  PeerChunkResolver resolver({"127.0.0.1:1"}, opts);
  Chunk out;
  const Hash cid = Hash::Of(Slice("unreachable"));
  EXPECT_TRUE(resolver.Fetch(cid, &out).IsUnavailable());
  EXPECT_EQ(resolver.connect_attempts(), 1u);
  for (int i = 0; i < 5; ++i) {
    // Still Unavailable (absence unproven: the peer was never asked),
    // but without a single additional connect syscall.
    EXPECT_TRUE(resolver.Fetch(cid, &out).IsUnavailable());
  }
  EXPECT_EQ(resolver.connect_attempts(), 1u)
      << "a cooling peer was re-connected on every fetch";
  EXPECT_EQ(resolver.negatives(), 0u);
}

TEST(PeerFetchTest, ExpiredBackoffRetriesAndRecovers) {
  PeerServer holder(0);
  const Chunk chunk = Chunk(ChunkType::kBlob, ToBytes("eventually"));
  const Hash cid = chunk.ComputeCid();
  ASSERT_TRUE(holder.raw_local->Put(cid, chunk).ok());

  // Same endpoint, but the resolver first meets it "down" via a
  // one-millisecond cooldown: after the cooldown expires the peer is
  // retried, answers, and its health resets.
  PeerResolverOptions opts;
  opts.backoff_initial_ms = 1;
  opts.backoff_max_ms = 1;
  PeerChunkResolver resolver({"127.0.0.1:1"}, opts);
  Chunk out;
  EXPECT_TRUE(resolver.Fetch(cid, &out).IsUnavailable());
  const uint64_t attempts_after_first = resolver.connect_attempts();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(resolver.Fetch(cid, &out).IsUnavailable());
  EXPECT_GT(resolver.connect_attempts(), attempts_after_first)
      << "an expired cooldown never retried the peer";

  // Swap in the live endpoint: the fetch succeeds and health resets.
  resolver.SetPeers({holder.server->endpoint()});
  ASSERT_TRUE(resolver.Fetch(cid, &out).ok());
  EXPECT_EQ(out.payload().ToString(), "eventually");
}

TEST(PeerFetchTest, FirstFetchAfterPeerRestartSucceeds) {
  PeerServer holder(0);
  const Chunk chunk = Chunk(ChunkType::kBlob, ToBytes("outlives a restart"));
  const Hash cid = chunk.ComputeCid();
  ASSERT_TRUE(holder.raw_local->Put(cid, chunk).ok());
  PeerChunkResolver resolver({holder.server->endpoint()});
  Chunk out;
  ASSERT_TRUE(resolver.Fetch(cid, &out).ok());

  // The peer restarts on the same endpoint while the resolver's pooled
  // connection sits idle. The next fetch must not fail on the closed
  // connection (that would cool the peer off and fail reads for 100 ms).
  const std::string endpoint = holder.server->endpoint();
  holder.server->Stop();
  holder.server.reset();
  rpc::ServerOptions so;
  so.listen = endpoint;
  so.local_chunk_store = holder.raw_local;
  so.peer_count = 0;
  auto revived = rpc::ForkBaseServer::Start(holder.engine.get(), so);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  out = Chunk();
  const Status s = resolver.Fetch(cid, &out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(out.payload().ToString(), "outlives a restart");
  EXPECT_EQ(resolver.failures(), 0u);
}

TEST(PeerFetchTest, ConcurrentFetchesOfOneCidAreSingleFlighted) {
  PeerServer holder(0);
  const Chunk chunk = Chunk(ChunkType::kBlob, ToBytes("hot chunk"));
  const Hash cid = chunk.ComputeCid();
  ASSERT_TRUE(holder.raw_local->Put(cid, chunk).ok());

  PeerChunkResolver resolver({holder.server->endpoint()});
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        Chunk out;
        if (resolver.Fetch(cid, &out).ok() &&
            out.payload().ToString() == "hot chunk") {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), kThreads * kRounds);
  // Every call either led a network fetch or piggybacked on one; the
  // outcome buckets must account for all of them.
  EXPECT_EQ(resolver.fetches() + resolver.failures() + resolver.negatives() +
                resolver.coalesced_fetches(),
            static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_GE(resolver.fetches(), 1u);
}

// The regression this PR exists for. PR 4 papered over cross-shard
// version-addressed reads with a client-side NotFound retry loop — and a
// tree whose chunks were SPLIT across shards (client-side construction
// partitions data chunks by cid) could not be traversed server-side by
// ANY single shard, so retrying every shard still failed. With peer
// fetch, the uid-routed servlet resolves foreign chunks from its peers
// and the traversal works, in exactly one client dispatch.
TEST(PeerFetchTest, CrossShardTraversalOfClientBuiltTreesResolves) {
  PeerServer a;
  PeerServer b;
  a.resolver->SetPeers({b.server->endpoint()});
  b.resolver->SetPeers({a.server->endpoint()});

  ClusterClientOptions opts;
  opts.endpoints = {a.server->endpoint(), b.server->endpoint()};
  auto client = ClusterClient::Connect(nullptr, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Two client-built blobs, big enough to chunk into many pieces whose
  // cids land on both servers.
  Rng rng(7);
  const std::string content_a = rng.String(4096);
  std::string content_b = content_a;
  content_b.replace(2048, 16, "EDITED-SIXTEEN-B");
  auto blob_a = (*client)->CreateBlob(Slice(content_a));
  auto blob_b = (*client)->CreateBlob(Slice(content_b));
  ASSERT_TRUE(blob_a.ok());
  ASSERT_TRUE(blob_b.ok());
  ASSERT_GT(a.raw_local->stats().chunks, 0u)
      << "client-built chunks all landed on one shard; the scenario "
         "needs a split";
  ASSERT_GT(b.raw_local->stats().chunks, 0u)
      << "client-built chunks all landed on one shard; the scenario "
         "needs a split";

  auto uid_a = (*client)->Put("cross-a", blob_a->ToValue());
  auto uid_b = (*client)->Put("cross-b", blob_b->ToValue());
  ASSERT_TRUE(uid_a.ok()) << uid_a.status().ToString();
  ASSERT_TRUE(uid_b.ok()) << uid_b.status().ToString();

  // Server-side traversal of both trees: whichever servlet the uids
  // route to, it holds only part of the chunks and must peer-fetch the
  // rest. Before peer fetch this returned NotFound from every shard.
  auto diff = (*client)->DiffBlobVersions(*uid_a, *uid_b);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_FALSE(diff->identical);

  // Version-addressed reads across shards, same story.
  auto by_uid_a = (*client)->GetByUid(*uid_a);
  auto by_uid_b = (*client)->GetByUid(*uid_b);
  ASSERT_TRUE(by_uid_a.ok()) << by_uid_a.status().ToString();
  ASSERT_TRUE(by_uid_b.ok()) << by_uid_b.status().ToString();

  // Exactly one dispatch per version-addressed command: the retry loop
  // is gone for good.
  const auto routes = (*client)->route_stats();
  EXPECT_EQ(routes.version_commands, routes.version_dispatches);
  EXPECT_GE(routes.version_commands, 3u);

  // The traversals were served by real server-to-server fetches.
  const uint64_t peer_fetches =
      a.view_stats().peer_fetches + b.view_stats().peer_fetches;
  EXPECT_GT(peer_fetches, 0u) << "no server resolved a chunk from a peer";

  // The handshake advertised the topology to the client.
  auto probe = rpc::RemoteService::Connect(a.server->endpoint());
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ((*probe)->server_peer_count(), 1u);
  // And the peer-fetch counters travel the wire in ChunkStoreStats.
  const ChunkStoreStats remote_stats = (*probe)->store()->stats();
  EXPECT_EQ(remote_stats.peer_fetches, a.view_stats().peer_fetches);
}

TEST(PeerFetchTest, BatchedPeerFetchUsesFewerRoundTripsThanChunks) {
  // The wire-tax regression: a server-side traversal of a tree whose
  // chunks are split across shards used to cost one peer round trip per
  // missing chunk. With kChunkPeerGetBatch, a traversal's misses ride
  // batched fetches — the resolver must move MORE chunks than it makes
  // network calls.
  PeerServer a;
  PeerServer b;
  a.resolver->SetPeers({b.server->endpoint()});
  b.resolver->SetPeers({a.server->endpoint()});

  ClusterClientOptions opts;
  opts.endpoints = {a.server->endpoint(), b.server->endpoint()};
  auto client = ClusterClient::Connect(nullptr, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Client-built blobs big enough to split into many leaves across both
  // shards (client-side construction partitions data chunks by cid).
  Rng rng(11);
  const std::string content_a = rng.String(16384);
  std::string content_b = content_a;
  content_b.replace(8192, 16, "EDITED-SIXTEEN-B");
  auto blob_a = (*client)->CreateBlob(Slice(content_a));
  auto blob_b = (*client)->CreateBlob(Slice(content_b));
  ASSERT_TRUE(blob_a.ok());
  ASSERT_TRUE(blob_b.ok());
  ASSERT_GT(a.raw_local->stats().chunks, 0u);
  ASSERT_GT(b.raw_local->stats().chunks, 0u);

  auto uid_a = (*client)->Put("batch-a", blob_a->ToValue());
  auto uid_b = (*client)->Put("batch-b", blob_b->ToValue());
  ASSERT_TRUE(uid_a.ok());
  ASSERT_TRUE(uid_b.ok());

  // Server-side diff traverses both trees on one servlet; its misses
  // (the other shard's leaves) must batch.
  auto diff = (*client)->DiffBlobVersions(*uid_a, *uid_b);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_FALSE(diff->identical);

  const uint64_t chunks_fetched = a.resolver->fetches() + b.resolver->fetches();
  const uint64_t round_trips =
      a.resolver->round_trips() + b.resolver->round_trips();
  EXPECT_GT(chunks_fetched, 0u) << "the traversal never needed a peer";
  EXPECT_GT(round_trips, 0u);
  EXPECT_LT(round_trips, chunks_fetched)
      << "peer fetches were not batched: " << round_trips
      << " round trips for " << chunks_fetched << " chunks";

  // The new counters travel the wire in kStoreStats.
  auto probe = rpc::RemoteService::Connect(a.server->endpoint());
  ASSERT_TRUE(probe.ok());
  const ChunkStoreStats remote_stats = (*probe)->store()->stats();
  EXPECT_EQ(remote_stats.peer_round_trips, a.resolver->round_trips());
  EXPECT_EQ(remote_stats.peer_fetch_negatives, a.resolver->negatives());
}

TEST(RemoteServiceTest, ClientChunkCacheServesRepeatReadsWithoutRoundTrips) {
  LiveServer live;
  auto client = rpc::RemoteService::Connect(live.server->endpoint());
  ASSERT_TRUE(client.ok());

  const Chunk chunk = Chunk(ChunkType::kBlob, ToBytes("cache me"));
  const Hash cid = chunk.ComputeCid();
  ASSERT_TRUE((*client)->store()->Put(cid, chunk).ok());

  // The write primed the client cache; the read never hits the server.
  const uint64_t server_gets_before = live.engine.store()->stats().gets;
  Chunk out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*client)->store()->Get(cid, &out).ok());
    EXPECT_EQ(out.payload().ToString(), "cache me");
  }
  EXPECT_EQ(live.engine.store()->stats().gets, server_gets_before)
      << "a cached chunk was re-fetched over the wire";

  // A cache-less client pays the round trip (control case).
  rpc::RemoteServiceOptions nocache;
  nocache.chunk_cache_bytes = 0;
  auto cold = rpc::RemoteService::Connect(live.server->endpoint(), nocache);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*cold)->store()->Get(cid, &out).ok());
  EXPECT_GT(live.engine.store()->stats().gets, server_gets_before);
}

TEST(PeerFetchTest, VersionOpsRouteOnlyToPeerCapableServers) {
  // A lopsided all-remote topology: shard 0 resolves misses from its
  // peer, shard 1 runs without --peers (the pre-peer-fetch server). The
  // client must send every version-addressed command to the capable
  // shard — the incapable one can only serve uids it committed itself,
  // and there is no retry loop to paper over a bad route anymore.
  PeerServer capable;
  ForkBase plain(SmallOpts());
  auto plain_server = rpc::ForkBaseServer::Start(&plain, {});
  ASSERT_TRUE(plain_server.ok());
  capable.resolver->SetPeers({(*plain_server)->endpoint()});

  ClusterClientOptions opts;
  opts.endpoints = {capable.server->endpoint(), (*plain_server)->endpoint()};
  auto client = ClusterClient::Connect(nullptr, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::set<size_t> shards_used;
  for (int i = 0; i < 24; ++i) {
    const std::string key = MakeKey(i, 8, "vc");
    shards_used.insert(ShardOfKey(key, 2));
    auto uid = (*client)->Put(key, Value::OfInt(i));
    ASSERT_TRUE(uid.ok());
    // Every uid must read back — including the ones committed on the
    // peerless shard, whose meta chunk the capable shard fetches over.
    auto obj = (*client)->GetByUid(*uid);
    ASSERT_TRUE(obj.ok()) << key << ": " << obj.status().ToString();
    EXPECT_EQ(obj->value().AsInt(), i);
  }
  ASSERT_EQ(shards_used.size(), 2u) << "keys did not span both shards";
  const auto routes = (*client)->route_stats();
  EXPECT_EQ(routes.version_commands, routes.version_dispatches);
  EXPECT_GT(capable.view_stats().peer_fetches, 0u)
      << "the capable shard never had to fetch from its peer";
}

TEST(RemoteServiceTest, ServerDeathFailsEveryPendingSubmit) {
  // Kill the server while a deep pipeline is in flight: every future
  // must complete — successes for replies that made it back, transport
  // errors for the rest. An unresolved future is the bug this pins.
  ForkBase engine(SmallOpts());
  auto server = rpc::ForkBaseServer::Start(&engine, {});
  ASSERT_TRUE(server.ok());
  rpc::RemoteServiceOptions opts;
  opts.pool_size = 2;
  auto client = rpc::RemoteService::Connect((*server)->endpoint(), opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr int kOps = 400;
  std::vector<std::future<Reply>> futures;
  futures.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    Command cmd;
    cmd.op = CommandOp::kPut;
    cmd.key = MakeKey(i, 8, "die");
    cmd.branch = kDefaultBranch;
    cmd.value = Value::OfInt(i);
    futures.push_back((*client)->Submit(std::move(cmd)));
    if (i == kOps / 2) (*server)->Stop();  // mid-pipeline
  }
  server->reset();

  int completed = 0, transport_errors = 0;
  for (auto& f : futures) {
    // A hung future would stall here forever; bound the wait so the
    // failure mode is a test failure, not a timeout-killed binary.
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "a pipelined Submit future never completed";
    const Reply r = f.get();
    ++completed;
    if (!r.ok()) ++transport_errors;
  }
  EXPECT_EQ(completed, kOps);
  EXPECT_GT(transport_errors, 0) << "the kill landed after the pipeline";

  // Submits issued against the dead endpoint keep failing fast — with a
  // resolved future, never a hang.
  Command late;
  late.op = CommandOp::kGet;
  late.key = "whatever";
  late.branch = kDefaultBranch;
  std::future<Reply> late_future = (*client)->Submit(std::move(late));
  ASSERT_EQ(late_future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_FALSE(late_future.get().ok());

  // Now the server dies while a synchronous caller is reading the socket
  // for its own reply, with pipelined Submits queued behind it: the call
  // fails, every Submit completes, and the next call reconnects.
  ForkBase gated_engine(GatedOpts());
  CommitGate gate;
  gated_engine.AttachReplication(nullptr, &gate);
  auto gated = rpc::ForkBaseServer::Start(&gated_engine, {});
  ASSERT_TRUE(gated.ok());
  const std::string endpoint = (*gated)->endpoint();
  opts.pool_size = 1;
  auto caller = rpc::RemoteService::Connect(endpoint, opts);
  ASSERT_TRUE(caller.ok()) << caller.status().ToString();
  gate.Close();
  std::future<Reply> held = std::async(std::launch::async, [&] {
    Command cmd;
    cmd.op = CommandOp::kPut;
    cmd.key = "held";
    cmd.branch = kDefaultBranch;
    cmd.value = Value::OfInt(1);
    return (*caller)->Execute(cmd);
  });
  gate.AwaitWaiter();  // the call is in
  // No Submit has started the reader thread yet, so the thread holding
  // the read side is the caller, reading for its own reply.
  for (int i = 0; i < 30000 && !(*caller)->ReadSideHeld(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE((*caller)->ReadSideHeld());
  std::vector<std::future<Reply>> queued;
  for (int i = 0; i < 50; ++i) {
    Command cmd;
    cmd.op = CommandOp::kGetValue;
    cmd.key = "held";
    cmd.branch = kDefaultBranch;
    queued.push_back((*caller)->Submit(std::move(cmd)));
  }
  // Stop() joins the workers, and one sits in the gate until it opens:
  // stop on the side, open once the dead socket has failed every call.
  std::thread stopper([&] { (*gated)->Stop(); });
  ASSERT_EQ(held.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "the reading caller never saw the server die";
  EXPECT_FALSE(held.get().ok());
  for (auto& f : queued) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "a Submit queued behind a reading caller never completed";
    (void)f.get();
  }
  gate.Open();
  stopper.join();
  gated->reset();

  rpc::ServerOptions revived_opts;
  revived_opts.listen = endpoint;
  auto revived = rpc::ForkBaseServer::Start(&gated_engine, revived_opts);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  const uint64_t opened = (*caller)->connections_opened();
  auto again = (*caller)->Put("after", Value::OfInt(2));
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_GT((*caller)->connections_opened(), opened);
}

TEST(ClusterEndpointsTest, AllRemoteDeploymentNeedsNoLocalCluster) {
  ForkBase engine_a(SmallOpts());
  ForkBase engine_b(SmallOpts());
  auto server_a = rpc::ForkBaseServer::Start(&engine_a, {});
  auto server_b = rpc::ForkBaseServer::Start(&engine_b, {});
  ASSERT_TRUE(server_a.ok());
  ASSERT_TRUE(server_b.ok());

  ClusterClientOptions opts;
  opts.endpoints = {(*server_a)->endpoint(), (*server_b)->endpoint()};
  auto client = ClusterClient::Connect(nullptr, opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->num_servlets(), 2u);
  // Chunking parameters came over the handshake, not from any local
  // engine.
  EXPECT_EQ((*client)->tree_config().leaf_pattern_bits,
            SmallOpts().tree.leaf_pattern_bits);

  std::set<std::string> expected;
  for (int i = 0; i < 24; ++i) {
    const std::string key = MakeKey(i, 8, "ar");
    ASSERT_TRUE((*client)->Put(key, Value::OfInt(i)).ok());
    expected.insert(key);
  }
  auto keys = (*client)->ListKeys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(std::set<std::string>(keys->begin(), keys->end()), expected);

  // Both engines actually hold a shard (separate processes, no unions
  // behind the scenes).
  EXPECT_GT(engine_a.ListKeys().size(), 0u);
  EXPECT_GT(engine_b.ListKeys().size(), 0u);
  EXPECT_EQ(engine_a.ListKeys().size() + engine_b.ListKeys().size(),
            expected.size());

  // The async Submit path rides the same remote transports.
  std::vector<std::future<Reply>> futures;
  for (int i = 0; i < 50; ++i) {
    Command cmd;
    cmd.op = CommandOp::kPut;
    cmd.key = MakeKey(i, 8, "as");
    cmd.branch = kDefaultBranch;
    cmd.value = Value::OfInt(i);
    futures.push_back((*client)->Submit(std::move(cmd)));
  }
  for (auto& f : futures) {
    Reply r = f.get();
    ASSERT_TRUE(r.ok()) << r.ToStatus().ToString();
  }
}

}  // namespace
}  // namespace fb
