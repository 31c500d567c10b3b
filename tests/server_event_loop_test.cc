// Torture tests for the serving stack's connection handling, run against
// BOTH serving modes (the epoll event loop and the legacy
// thread-per-connection fallback), which must behave identically on the
// wire: dribbled byte-at-a-time frames, several frames per send(),
// pipelined requests answered strictly in order, mid-frame disconnects,
// slow-loris stalls that must not block other connections, mutation under
// a crowd of live readers, the Stop()-vs-in-flight-write race (a large
// response must arrive complete even when Stop lands mid-send), and the
// event loop's two answer paths — small QUERYs answered inline on the loop
// thread, everything else on the workers — which must be indistinguishable
// on the wire.

#include "server/server.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/filter_registry.h"
#include "core/file_io.h"
#include "engine/batch_query_engine.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/connection.h"
#include "server/net.h"
#include "server/protocol.h"

namespace shbf {
namespace {

/// `shards` > 1 wraps the filter in the sharded wrapper; a nonzero
/// `delta_capacity` in the dynamic one (whose build keys then sit in the
/// delta). Deterministic: two calls build bit-identical filters.
std::unique_ptr<MembershipFilter> BuildFilter(const std::string& name,
                                              size_t keys, uint32_t shards = 1,
                                              size_t delta_capacity = 0) {
  FilterSpec spec = FilterSpec::ForKeys(keys, 12.0, 8);
  spec.max_count = 8;
  spec.shards = shards;
  spec.delta_capacity = delta_capacity;
  std::unique_ptr<MembershipFilter> filter;
  CheckOk(FilterRegistry::Global().Create(name, spec, &filter));
  for (size_t i = 0; i < keys; ++i) filter->Add("key-" + std::to_string(i));
  return filter;
}

/// Frames the event loop has answered on its own thread (process-wide).
uint64_t InlineFrames() {
  return obs::MetricsRegistry::Global()
      .GetCounter("server.inline_frames_total")
      ->Value();
}

/// The OK payload a QUERY (membership mode) over `keys` must carry: what a
/// local engine answers over an identical filter.
std::string ExpectedMembershipPayload(const MembershipFilter& filter,
                                      const std::vector<std::string>& keys) {
  const BatchQueryEngine engine(
      BatchOptions{.batch_size = ServerOptions{}.batch_size});
  std::vector<uint8_t> results;
  engine.ContainsBatch(filter, keys, &results);
  ByteWriter writer;
  writer.PutU8(static_cast<uint8_t>(wire::QueryMode::kMembership));
  writer.PutU64(keys.size());
  for (uint8_t result : results) writer.PutU8(result != 0 ? 1 : 0);
  return writer.Take();
}

/// `count` keys, half of them members of BuildFilter(.., 2000).
std::vector<std::string> MixedKeys(size_t count, size_t salt) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (size_t j = 0; j < count; ++j) {
    keys.push_back("key-" + std::to_string((salt * 131 + j * 7) % 4000));
  }
  return keys;
}

/// Param: true = legacy thread-per-connection, false = epoll event loop.
class ServerTortureTest : public ::testing::TestWithParam<bool> {
 protected:
  void StartServer(ServerOptions options = {}) {
    options.legacy_threads = GetParam();
    // Deterministic parallelism regardless of the host's core count.
    options.num_workers = 4;
    server_ = std::make_unique<ShbfServer>(options);
    CheckOk(server_->RegisterFilter("members", BuildFilter("shbf_m", 2000)));
    CheckOk(server_->RegisterFilter("counting",
                                    BuildFilter("counting_bloom", 2000)));
    // No batch fast path: the sharded wrapper locks its own shards, and a
    // dynamic filter's fast path is off while its delta holds keys.
    CheckOk(server_->RegisterFilter("sharded",
                                    BuildFilter("shbf_m", 2000, /*shards=*/4)));
    CheckOk(server_->RegisterFilter(
        "dynamic", BuildFilter("shbf_m", 2000, 1, /*delta_capacity=*/4096)));
    CheckOk(server_->Start());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  int RawConnect() {
    Status s;
    int fd = net::ConnectTcp("127.0.0.1", server_->port(), &s);
    EXPECT_GE(fd, 0) << s.ToString();
    return fd;
  }

  /// HELLO on a raw fd, expecting the OK response.
  void Handshake(int fd) {
    const std::string hello = wire::BuildHello();
    ASSERT_TRUE(net::SendAll(fd, hello.data(), hello.size()));
    std::string response;
    ASSERT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
              net::FrameRead::kOk);
    ASSERT_FALSE(response.empty());
    ASSERT_EQ(response[0], 0);  // kOk
  }

  /// Reads one response and returns its OK payload.
  std::string ReadOkPayload(int fd) {
    std::string response;
    EXPECT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
              net::FrameRead::kOk);
    wire::WireStatus status;
    std::string_view payload;
    std::string message;
    EXPECT_TRUE(wire::ParseResponse(response, &status, &payload, &message));
    EXPECT_EQ(status, wire::WireStatus::kOk) << message;
    return std::string(payload);
  }

  /// A fresh client connection must still round-trip — the liveness probe
  /// after every abuse.
  void ExpectServerAlive() {
    ShbfClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    std::vector<uint8_t> results;
    ASSERT_TRUE(client.Query("members", {"key-1", "nope"}, &results).ok());
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0], 1);
  }

  /// Blocks until `want` frames have reached a handler (the frame counter
  /// is bumped as a handler starts), bounded by a deadline.
  void WaitForFramesStarted(uint64_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server_->counters().frames < want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(server_->counters().frames, want);
  }

  /// Closed sockets take a moment to unwind on the server side.
  void WaitForActiveConnections(uint64_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server_->active_connections() != want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(server_->active_connections(), want);
  }

  std::unique_ptr<ShbfServer> server_;
};

// A peer that trickles one byte per send() must be served exactly like one
// that sends whole frames: framing is a stream property, not a recv one.
TEST_P(ServerTortureTest, DribbledBytesOneAtATime) {
  StartServer();
  int fd = RawConnect();
  std::string stream = wire::BuildHello();
  stream += wire::BuildQuery("members", wire::QueryMode::kMembership,
                             {"key-7", "absent-key"});
  for (char byte : stream) {
    ASSERT_TRUE(net::SendAll(fd, &byte, 1));
  }
  ReadOkPayload(fd);  // HELLO
  const std::string payload = ReadOkPayload(fd);
  // mode u8 + count u64 + one result byte per key.
  ASSERT_EQ(payload.size(), 1 + 8 + 2u);
  EXPECT_EQ(payload[9], 1);   // key-7 present
  net::CloseFd(fd);
  ExpectServerAlive();
}

// Two frames in one send(): both must be answered from a single read burst.
TEST_P(ServerTortureTest, TwoFramesInOneSend) {
  StartServer();
  int fd = RawConnect();
  std::string stream = wire::BuildHello();
  stream += wire::BuildQuery("members", wire::QueryMode::kMembership,
                             {"key-1", "key-2", "key-3"});
  ASSERT_TRUE(net::SendAll(fd, stream.data(), stream.size()));
  ReadOkPayload(fd);
  const std::string payload = ReadOkPayload(fd);
  ASSERT_EQ(payload.size(), 1 + 8 + 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(payload[9 + i], 1);
  net::CloseFd(fd);
}

// 64 pipelined QUERYs in one write; query i carries i+1 keys, so each
// response's length proves the answers come back in request order.
TEST_P(ServerTortureTest, PipelinedQueriesAnsweredInOrder) {
  StartServer();
  int fd = RawConnect();
  Handshake(fd);
  std::string stream;
  for (size_t i = 0; i < 64; ++i) {
    std::vector<std::string> keys;
    for (size_t j = 0; j <= i; ++j) {
      keys.push_back("key-" + std::to_string(j));
    }
    stream +=
        wire::BuildQuery("members", wire::QueryMode::kMembership, keys);
  }
  ASSERT_TRUE(net::SendAll(fd, stream.data(), stream.size()));
  for (size_t i = 0; i < 64; ++i) {
    const std::string payload = ReadOkPayload(fd);
    ASSERT_EQ(payload.size(), 1 + 8 + (i + 1)) << "response " << i;
    for (size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(payload[9 + j], 1) << "response " << i << " key " << j;
    }
  }
  net::CloseFd(fd);
  ExpectServerAlive();
}

// A framing violation pipelined behind a valid request: the valid request
// is answered first, then the error, then the connection closes — wire
// order survives the violation.
TEST_P(ServerTortureTest, ViolationKeepsPipelineOrder) {
  StartServer();
  int fd = RawConnect();
  Handshake(fd);
  std::string stream = wire::BuildQuery(
      "members", wire::QueryMode::kMembership, {"key-1"});
  stream += std::string(4, '\0');  // zero-length frame: kBadFrame, fatal
  ASSERT_TRUE(net::SendAll(fd, stream.data(), stream.size()));
  ReadOkPayload(fd);  // the valid QUERY
  std::string response;
  ASSERT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
            net::FrameRead::kOk);
  wire::WireStatus status;
  std::string_view payload;
  std::string message;
  ASSERT_TRUE(wire::ParseResponse(response, &status, &payload, &message));
  EXPECT_EQ(status, wire::WireStatus::kBadFrame) << message;
  // Fatal: the server closes; nothing further arrives.
  EXPECT_EQ(net::ReadFrame(fd, wire::kMaxFrameBytes, &response),
            net::FrameRead::kClosed);
  net::CloseFd(fd);
  ExpectServerAlive();
}

// Disconnecting mid-frame (prefix promised more than was sent) must not
// wedge the server or leak the connection slot.
TEST_P(ServerTortureTest, MidFrameDisconnect) {
  StartServer();
  int fd = RawConnect();
  Handshake(fd);
  const uint8_t partial[] = {100, 0, 0, 0, 1, 2, 3};  // claims 100 bytes
  ASSERT_TRUE(net::SendAll(fd, partial, sizeof(partial)));
  net::CloseFd(fd);
  ExpectServerAlive();
  WaitForActiveConnections(0);
}

// A slow loris sends a length prefix and stalls. Other connections must
// keep being served at full function while it sits there.
TEST_P(ServerTortureTest, SlowLorisDoesNotBlockOthers) {
  StartServer();
  int loris = RawConnect();
  Handshake(loris);
  const uint8_t prefix[] = {50, 0, 0, 0};  // 50-byte frame, body withheld
  ASSERT_TRUE(net::SendAll(loris, prefix, sizeof(prefix)));
  // The stalled connection must not absorb a worker or the loop: a crowd
  // of round-trips on other connections completes promptly.
  for (int i = 0; i < 20; ++i) ExpectServerAlive();
  // And the loris is still welcome to finish its frame afterwards.
  std::string body(50, '\0');
  body[0] = static_cast<char>(99);  // unknown opcode — a structured error
  ASSERT_TRUE(net::SendAll(loris, body.data(), body.size()));
  std::string response;
  ASSERT_EQ(net::ReadFrame(loris, wire::kMaxFrameBytes, &response),
            net::FrameRead::kOk);
  wire::WireStatus status;
  std::string_view payload;
  std::string message;
  ASSERT_TRUE(wire::ParseResponse(response, &status, &payload, &message));
  EXPECT_EQ(status, wire::WireStatus::kUnknownOpcode);
  net::CloseFd(loris);
}

// ADD and RELOAD racing a crowd of live readers: every query must return a
// structured answer (the per-filter lock discipline), and the server must
// come out healthy.
TEST_P(ServerTortureTest, ConcurrentMutationUnderManyReaders) {
  StartServer();
  const std::string snapshot_path =
      ::testing::TempDir() + "/event_loop_reload.shbf";
  {
    ShbfClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(client.Snapshot("counting", snapshot_path).ok());
  }
  constexpr int kReaders = 100;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ShbfClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      std::vector<std::string> keys = {"key-" + std::to_string(r % 2000),
                                       "absent-" + std::to_string(r)};
      std::vector<uint8_t> results;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.Query("counting", keys, &results).ok() ||
            results.size() != 2 || results[0] != 1) {
          failures.fetch_add(1);
          return;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  {
    ShbfClient writer;
    ASSERT_TRUE(writer.Connect("127.0.0.1", server_->port()).ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    int cycle = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      uint64_t added = 0;
      ASSERT_TRUE(
          writer.Add("counting", {"hot-" + std::to_string(cycle)}, &added)
              .ok());
      ASSERT_TRUE(writer.Reload("counting", snapshot_path).ok());
      ++cycle;
    }
    EXPECT_GT(cycle, 0);
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  ExpectServerAlive();
}

// The Stop()-vs-in-flight-write race: a client reading a large response
// must receive it COMPLETE even when Stop lands mid-send. (The legacy mode
// used to SHUT_RDWR live fds in Stop, cutting responses off mid-frame.)
TEST_P(ServerTortureTest, StopDrainsInFlightWrites) {
  StartServer();
  int fd = RawConnect();
  Handshake(fd);
  // ~1 MiB of response: far beyond the socket buffers, so the server is
  // still mid-send when Stop arrives.
  constexpr size_t kKeys = 1u << 20;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back("key-" + std::to_string(i & 1023));
  }
  const std::string query =
      wire::BuildQuery("members", wire::QueryMode::kMembership, keys);
  ASSERT_TRUE(net::SendAll(fd, query.data(), query.size()));
  // Once the QUERY's handler has started (HELLO + QUERY counted), Stop
  // concurrently while this thread is the only reader draining the
  // response.
  std::thread stopper([&] {
    WaitForFramesStarted(2);
    server_->Stop();
  });
  const std::string payload = ReadOkPayload(fd);
  stopper.join();
  ASSERT_EQ(payload.size(), 1 + 8 + kKeys);
  for (size_t i = 0; i < kKeys; i += 4096) {
    ASSERT_EQ(payload[9 + i], 1) << "result " << i;
  }
  net::CloseFd(fd);
}

// A stalled peer must not hold Stop() hostage: past drain_timeout_ms the
// connection is aborted and Stop returns.
TEST_P(ServerTortureTest, StopAbortsStalledPeer) {
  ServerOptions options;
  options.drain_timeout_ms = 200;
  StartServer(options);
  int fd = RawConnect();
  Handshake(fd);
  constexpr size_t kKeys = 1u << 20;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back("key-" + std::to_string(i & 1023));
  }
  const std::string query =
      wire::BuildQuery("members", wire::QueryMode::kMembership, keys);
  ASSERT_TRUE(net::SendAll(fd, query.data(), query.size()));
  WaitForFramesStarted(2);  // HELLO + the QUERY, which is now in flight
  // Never read the response; Stop must still return promptly.
  const auto start = std::chrono::steady_clock::now();
  server_->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  EXPECT_EQ(server_->active_connections(), 0u);
  net::CloseFd(fd);
}

// A few hundred concurrent live connections, all answering correctly.
TEST_P(ServerTortureTest, ManyConcurrentConnections) {
  StartServer();
  constexpr int kConns = 200;
  std::vector<std::unique_ptr<ShbfClient>> clients;
  clients.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    auto client = std::make_unique<ShbfClient>();
    ASSERT_TRUE(client->Connect("127.0.0.1", server_->port()).ok())
        << "connection " << i;
    clients.push_back(std::move(client));
  }
  EXPECT_EQ(server_->active_connections(), static_cast<uint64_t>(kConns));
  for (int i = 0; i < kConns; ++i) {
    std::vector<uint8_t> results;
    ASSERT_TRUE(clients[i]
                    ->Query("members",
                            {"key-" + std::to_string(i), "absent"},
                            &results)
                    .ok());
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0], 1) << "connection " << i;
  }
  clients.clear();
  WaitForActiveConnections(0);
}

// The over-limit policy: connections past max_connections are accepted and
// immediately closed; the ones inside the limit keep working.
TEST_P(ServerTortureTest, ConnectionLimitRejectsOverflow) {
  if (GetParam()) GTEST_SKIP() << "max_connections is event-loop-only";
  ServerOptions options;
  options.max_connections = 4;
  StartServer(options);
  std::vector<std::unique_ptr<ShbfClient>> clients;
  for (int i = 0; i < 4; ++i) {
    auto client = std::make_unique<ShbfClient>();
    ASSERT_TRUE(client->Connect("127.0.0.1", server_->port()).ok());
    clients.push_back(std::move(client));
  }
  // The fifth is cut before (or instead of) a HELLO response.
  ShbfClient overflow;
  EXPECT_FALSE(overflow.Connect("127.0.0.1", server_->port()).ok());
  // Limit slots free up when connections close.
  clients.pop_back();
  WaitForActiveConnections(3);
  ShbfClient replacement;
  ASSERT_TRUE(replacement.Connect("127.0.0.1", server_->port()).ok());
  std::vector<uint8_t> results;
  EXPECT_TRUE(replacement.Query("members", {"key-1"}, &results).ok());
}

// Small QUERYs (answered inline on the loop thread) interleaved with large
// ones (shipped to the workers) on one connection: every response comes
// back in request order, bit-identical to a local engine over an identical
// filter.
TEST_P(ServerTortureTest, InlineAndWorkerQueriesKeepOrderAndMatchEngine) {
  StartServer();
  const auto local = BuildFilter("shbf_m", 2000);
  const uint64_t inline_before = InlineFrames();
  int fd = RawConnect();
  Handshake(fd);
  std::vector<std::string> frames;
  std::vector<std::string> expected;
  size_t small_frames = 0;
  for (size_t i = 0; i < 48; ++i) {
    const bool small = i % 3 != 2;
    const size_t count = small ? 1 + (i * 7) % ShbfServer::kInlineMaxKeys
                               : ShbfServer::kInlineMaxKeys + 1 + i * 400;
    const std::vector<std::string> keys = MixedKeys(count, i);
    frames.push_back(
        wire::BuildQuery("members", wire::QueryMode::kMembership, keys));
    expected.push_back(ExpectedMembershipPayload(*local, keys));
    small_frames += small ? 1 : 0;
  }
  // The largest legal inline frame and the smallest worker one, back to
  // back.
  for (size_t count : {ShbfServer::kInlineMaxKeys,
                       ShbfServer::kInlineMaxKeys + 1}) {
    const std::vector<std::string> keys = MixedKeys(count, count);
    frames.push_back(
        wire::BuildQuery("members", wire::QueryMode::kMembership, keys));
    expected.push_back(ExpectedMembershipPayload(*local, keys));
  }
  ++small_frames;
  // One send() per frame, and after each large one a wait until its
  // handler has started: the small frames behind it then arrive in a later
  // read, typically while its batch is still in flight — the case where
  // answering them inline would overtake it.
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(net::SendAll(fd, frames[i].data(), frames[i].size()));
    if (i % 3 == 2) WaitForFramesStarted(/*HELLO*/ 1 + i + 1);
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(ReadOkPayload(fd), expected[i]) << "response " << i;
  }
  net::CloseFd(fd);
  const uint64_t inlined = InlineFrames() - inline_before;
  if (GetParam()) {
    EXPECT_EQ(inlined, 0u);  // the legacy server has no loop thread
  } else if (obs::Enabled()) {
    // The first QUERY has nothing ahead of it, so it is always inline;
    // small frames read behind a large one ride in its worker batch.
    EXPECT_GE(inlined, 1u);
    EXPECT_LE(inlined, small_frames);
  }
}

// A large ADD holds the filter's writer lock on a worker. A small QUERY
// pipelined behind it on the same connection is answered after it (it sees
// every added key) and in order; small QUERYs from another connection that
// land while the lock is held are declined inline (try_lock_shared fails)
// and answered by a worker once the ADD is done. Correctness does not
// depend on which of those paths any frame took.
TEST_P(ServerTortureTest, SmallQueryBehindWriterLockedAddIsAnsweredInOrder) {
  StartServer();
  constexpr size_t kAddKeys = 200000;
  std::vector<std::string> added;
  added.reserve(kAddKeys);
  for (size_t i = 0; i < kAddKeys; ++i) {
    added.push_back("added-" + std::to_string(i));
  }
  const std::vector<std::string> probe = {"added-0", "added-77777",
                                          "added-199999", "key-5"};
  std::string stream =
      wire::BuildKeysRequest(wire::Opcode::kAdd, "members", added);
  stream += wire::BuildQuery("members", wire::QueryMode::kMembership, probe);
  std::atomic<bool> add_answered{false};
  std::atomic<int> side_failures{0};
  std::atomic<uint64_t> side_queries{0};
  std::thread side([&] {
    ShbfClient client;
    if (!client.Connect("127.0.0.1", server_->port()).ok()) {
      side_failures.fetch_add(1);
      return;
    }
    std::vector<uint8_t> results;
    while (!add_answered.load()) {
      if (!client.Query("members", {"key-1", "key-2"}, &results).ok() ||
          results != std::vector<uint8_t>{1, 1}) {
        side_failures.fetch_add(1);
        return;
      }
      side_queries.fetch_add(1);
    }
  });
  int fd = RawConnect();
  Handshake(fd);
  ASSERT_TRUE(net::SendAll(fd, stream.data(), stream.size()));
  const std::string add_payload = ReadOkPayload(fd);
  add_answered.store(true);
  side.join();
  ByteReader add_reader(add_payload);
  uint64_t added_count = 0;
  ASSERT_TRUE(add_reader.GetU64(&added_count));
  EXPECT_EQ(added_count, kAddKeys);
  ByteWriter want;
  want.PutU8(static_cast<uint8_t>(wire::QueryMode::kMembership));
  want.PutU64(probe.size());
  for (size_t i = 0; i < probe.size(); ++i) want.PutU8(1);
  EXPECT_EQ(ReadOkPayload(fd), want.Take());
  EXPECT_EQ(side_failures.load(), 0);
  net::CloseFd(fd);
  ExpectServerAlive();
}

// Filters without a batch fast path (the sharded wrapper, a dynamic filter
// whose delta holds keys), and any QUERY before HELLO, take the worker path
// and answer exactly the bytes they always did.
TEST_P(ServerTortureTest, NoFastPathAndPreHelloQueriesTakeWorkerPath) {
  StartServer();
  const auto sharded = BuildFilter("shbf_m", 2000, 4);
  const auto dynamic = BuildFilter("shbf_m", 2000, 1, 4096);
  ASSERT_EQ(sharded->batch_fast_path().kind, BatchFastPath::Kind::kNone);
  ASSERT_EQ(dynamic->batch_fast_path().kind, BatchFastPath::Kind::kNone);
  const uint64_t inline_before = InlineFrames();

  int early = RawConnect();
  const std::string query = wire::BuildQuery(
      "members", wire::QueryMode::kMembership, {"key-1"});
  ASSERT_TRUE(net::SendAll(early, query.data(), query.size()));
  std::string response;
  ASSERT_EQ(net::ReadFrame(early, wire::kMaxFrameBytes, &response),
            net::FrameRead::kOk);
  EXPECT_EQ(wire::Frame(response),
            wire::BuildError(wire::WireStatus::kBadFrame,
                             "the first frame on a connection must be HELLO"));
  EXPECT_EQ(net::ReadFrame(early, wire::kMaxFrameBytes, &response),
            net::FrameRead::kClosed);
  net::CloseFd(early);

  int fd = RawConnect();
  Handshake(fd);
  std::string stream;
  std::vector<std::string> expected;
  for (size_t i = 0; i < 8; ++i) {
    const std::vector<std::string> keys =
        MixedKeys(1 + i * 8 % ShbfServer::kInlineMaxKeys, i);
    const bool use_sharded = i % 2 == 0;
    stream += wire::BuildQuery(use_sharded ? "sharded" : "dynamic",
                               wire::QueryMode::kMembership, keys);
    expected.push_back(
        ExpectedMembershipPayload(use_sharded ? *sharded : *dynamic, keys));
  }
  ASSERT_TRUE(net::SendAll(fd, stream.data(), stream.size()));
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(ReadOkPayload(fd), expected[i]) << "response " << i;
  }
  net::CloseFd(fd);
  EXPECT_EQ(InlineFrames(), inline_before);
}

// A peer that pipelines small QUERYs and never reads: the inline answers
// pile up in its output buffer, whose watermark pauses its reads exactly
// as worker answers do, so the server stops reading it (the peer's sends
// stall) instead of buffering without bound. Other connections stay
// served, and once the peer reads, every answer arrives, in order.
TEST_P(ServerTortureTest, NeverReadingPeerOfSmallQueriesIsBackpressured) {
  StartServer();
  const uint64_t engaged_before =
      obs::MetricsRegistry::Global()
          .GetCounter("server.backpressure_engaged_total")
          ->Value();
  int fd = RawConnect();
  Handshake(fd);
  // Empty keys: the most answer bytes per request byte an inline QUERY
  // can produce, so the output watermark is reached soonest.
  const std::vector<std::string> keys(ShbfServer::kInlineMaxKeys);
  const std::string frame =
      wire::BuildQuery("members", wire::QueryMode::kMembership, keys);
  std::string chunk;
  for (int i = 0; i < 256; ++i) chunk += frame;
  ASSERT_TRUE(net::SetNonBlocking(fd));
  // Small peer-side socket buffers, so the server's own buffering is what
  // the stall measures.
  const int kPeerBuffer = 64 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kPeerBuffer, sizeof(kPeerBuffer));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kPeerBuffer, sizeof(kPeerBuffer));
  // Far past the 8 MiB output watermark plus every socket buffer: a server
  // that kept reading would swallow all of it.
  constexpr size_t kSendCeiling = size_t{512} << 20;
  size_t sent = 0;
  bool stalled = false;
  while (sent < kSendCeiling) {
    const size_t at = sent % chunk.size();
    size_t wrote = 0;
    const net::IoResult result =
        net::SendSome(fd, chunk.data() + at, chunk.size() - at, &wrote);
    ASSERT_NE(result, net::IoResult::kError);
    sent += wrote;
    if (result != net::IoResult::kWouldBlock) continue;
    pollfd writable{fd, POLLOUT, 0};
    if (::poll(&writable, 1, 1000) == 0) {
      stalled = true;
      break;
    }
  }
  ASSERT_TRUE(stalled) << "the server kept reading " << sent << " bytes";
  if (!GetParam() && obs::Enabled()) {
    EXPECT_GT(obs::MetricsRegistry::Global()
                  .GetCounter("server.backpressure_engaged_total")
                  ->Value(),
              engaged_before);
  }
  ExpectServerAlive();

  // Read everything back while completing the last, partly sent frame.
  const size_t frames = (sent + frame.size() - 1) / frame.size();
  const std::string tail = frame.substr(sent % frame.size() == 0
                                            ? frame.size()
                                            : sent % frame.size());
  std::atomic<bool> reading_done{false};
  std::thread finisher([&] {
    size_t done = 0;
    while (done < tail.size() && !reading_done.load()) {
      size_t wrote = 0;
      const net::IoResult result =
          net::SendSome(fd, tail.data() + done, tail.size() - done, &wrote);
      if (result == net::IoResult::kError) return;
      done += wrote;
      if (result == net::IoResult::kWouldBlock) {
        pollfd writable{fd, POLLOUT, 0};
        ::poll(&writable, 1, 100);
      }
    }
  });
  const auto local = BuildFilter("shbf_m", 2000);
  const std::string want = ExpectedMembershipPayload(*local, keys);
  size_t answered = 0;
  [&] {
    server::FrameSplitter splitter(wire::kMaxFrameBytes);
    std::vector<char> buffer(256 * 1024);
    while (answered < frames) {
      size_t got = 0;
      const net::IoResult result =
          net::RecvSome(fd, buffer.data(), buffer.size(), &got);
      ASSERT_NE(result, net::IoResult::kError);
      ASSERT_NE(result, net::IoResult::kEof) << "after " << answered;
      if (result == net::IoResult::kWouldBlock) {
        pollfd readable{fd, POLLIN, 0};
        ASSERT_GT(::poll(&readable, 1, 10000), 0) << "after " << answered;
        continue;
      }
      splitter.Feed(buffer.data(), got);
      std::string_view body;
      while (splitter.Next(&body) == server::FrameSplitter::Event::kFrame) {
        wire::WireStatus status;
        std::string_view payload;
        std::string message;
        ASSERT_TRUE(wire::ParseResponse(body, &status, &payload, &message));
        ASSERT_EQ(status, wire::WireStatus::kOk) << message;
        ASSERT_EQ(payload, want) << "response " << answered;
        ++answered;
      }
    }
  }();
  reading_done.store(true);
  finisher.join();
  EXPECT_EQ(answered, frames);
  net::CloseFd(fd);
}

// The default worker count follows the CPUs the process may run on, not
// the host's core count: a server started under `taskset -c 1-2` gets 2
// workers. The loop is built (never started) on a thread whose affinity
// mask is narrowed to one CPU, then two.
TEST(EventLoopTest, DefaultWorkersFollowTheAffinityMask) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  for (size_t want : {size_t{1}, size_t{2}}) {
    if (cpus.size() < want) continue;
    size_t workers = 0;
    std::thread pinned([&] {
      cpu_set_t narrow;
      CPU_ZERO(&narrow);
      for (size_t i = 0; i < want; ++i) CPU_SET(cpus[i], &narrow);
      ASSERT_EQ(::sched_setaffinity(0, sizeof(narrow), &narrow), 0);
      server::EventLoop loop(/*listen_fd=*/-1, server::EventLoopOptions{},
                             [](std::string_view, bool*,
                                const server::EventLoop::FrameContext&) {
                               return server::EventLoop::FrameResult{};
                             });
      workers = loop.num_workers();
    });
    pinned.join();
    EXPECT_EQ(workers, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ServerTortureTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "LegacyThreads" : "EventLoop";
                         });

}  // namespace
}  // namespace shbf
