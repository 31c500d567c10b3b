// ShbfServer — the networked query-serving subsystem: any filter the
// registry can build or deserialize becomes a remotely addressable backend
// under a string name (cf. Bloofi's "many filters, one service" framing).
//
// Model (default): one epoll event-loop thread multiplexing every
// connection plus a fixed worker pool (server::EventLoop) — thread count
// is O(workers), not O(connections), so C10K+ concurrent connections and
// pipelined request frames are first-class. Small QUERY frames against a
// lock-free fast-path filter are answered on the loop thread itself when
// the filter's reader lock is free (TryInline, kInlineMaxKeys); every
// other frame goes to the workers. Each request frame carries a
// *batch* of keys, which the handler resolves in one BatchQueryEngine call
// under the filter's reader lock — so concurrent connections querying the
// same filter stay on the shared-lock path, and a sharded/dynamic wrapper
// underneath additionally spreads them across its per-shard locks.
// Mutating opcodes (ADD / REMOVE / RELOAD) take the writer lock and finish
// with PrepareForConstReads(), so lazily-rebuilt bases (shbf_x, shbf_a)
// never mutate inside a shared-lock read.
//
// Fallback (options.legacy_threads): the original acceptor thread plus one
// blocking thread per connection — the reference implementation the event
// loop is differential-tested against; both speak byte-identical wire.
//
// Lifecycle: RegisterFilter/LoadFilter before Start(); the served-name map
// is immutable while serving (RELOAD swaps a filter's *contents* under its
// writer lock, never the map shape). Stop() is idempotent, drains
// in-flight responses (bounded by drain_timeout_ms) and joins every
// thread — safe from signal-driven shutdown paths and from tests.
//
// The wire protocol is protocol.h / docs/serving.md; the matching client
// is client.h.

#ifndef SHBF_SERVER_SERVER_H_
#define SHBF_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/set_catalog.h"
#include "api/set_query_filter.h"
#include "core/status.h"
#include "engine/batch_query_engine.h"
#include "multiset/multi_set_index.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"
#include "server/event_loop.h"
#include "server/protocol.h"

namespace shbf {

struct ServerOptions {
  /// IPv4 address to bind. Loopback by default: exposing a filter fleet
  /// beyond the host is a deliberate operator decision (docs/serving.md).
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;

  /// Group size of the engine each QUERY batch is resolved through.
  size_t batch_size = 32;

  /// Per-frame body ceiling (see wire::kMaxFrameBytes).
  size_t max_frame_bytes = wire::kMaxFrameBytes;

  /// Keys-per-frame ceiling (see wire::kMaxKeysPerFrame).
  size_t max_keys_per_frame = wire::kMaxKeysPerFrame;

  /// Serve with the original thread-per-connection model instead of the
  /// epoll event loop. Kept as the differential-testing reference and as
  /// an operational escape hatch; both modes speak identical bytes.
  bool legacy_threads = false;

  /// Event-loop worker threads. 0 = one per CPU in the process's affinity
  /// mask, clamped to [1, 8]. Ignored under legacy_threads.
  size_t num_workers = 0;

  /// Concurrent-connection ceiling; past it new sockets are accepted and
  /// immediately closed. 0 = unlimited. Ignored under legacy_threads.
  size_t max_connections = 0;

  /// Stop(): how long to keep flushing in-flight responses before
  /// aborting connections whose peers have stalled (both modes).
  int drain_timeout_ms = 5000;

  /// Frames whose handle time crosses this threshold emit one stderr line
  /// and count into server.slow_requests_total (docs/observability.md).
  /// 0 disables the slow log; the trace ring records regardless.
  int slow_request_ms = 0;
};

class ShbfServer {
 public:
  /// Largest QUERY frame (in keys) the event loop answers on its own
  /// thread. An inline frame holds up every other connection for as long
  /// as it runs, so it should cost no more than the loop→worker handoff
  /// it saves. Measured on a 4-vCPU Xeon KVM guest serving a 12 MB
  /// split-block filter (perfbench wire_membership, 64-key frames): the
  /// handoff's server.queue_wait_us p50 is 5.8-6.9 us, and
  /// server.handle_us.query p50 is 6.0-6.6 us per 64-key frame, i.e.
  /// 0.094-0.103 us per key including decode and encode. The break-even
  /// is 6.9 / 0.094 ≈ 74 down to 5.8 / 0.103 ≈ 56 keys; 64 sits inside
  /// that range. The 256- and 1024-key frames of heavier workloads stay
  /// on the workers.
  static constexpr size_t kInlineMaxKeys = 64;

  explicit ShbfServer(ServerOptions options = {});
  ~ShbfServer();

  ShbfServer(const ShbfServer&) = delete;
  ShbfServer& operator=(const ShbfServer&) = delete;

  /// Serves `filter` under `serve_name`. `source_path` (optional) is the
  /// default target of SNAPSHOT/RELOAD frames with an empty path. Must be
  /// called before Start(); fails on a duplicate, empty or oversized name.
  Status RegisterFilter(std::string serve_name,
                        std::unique_ptr<MembershipFilter> filter,
                        std::string source_path = {});

  /// Deserializes a registry-envelope blob from `path` and serves it
  /// under `serve_name` with `path` as its remembered source. An "mmap:"
  /// prefix instead opens the path as a flat image (checksums verified)
  /// and serves queries zero-copy off the mapping — instant restart, the
  /// open cost is O(1) in filter size — with the entry read-only.
  Status LoadFilter(std::string serve_name, const std::string& path);

  /// Serves `catalog` behind a MultiSetIndex: WHICH_SETS answers "which of
  /// these sets contain key k" and INDEX_ADD / INDEX_DROP maintain the
  /// index incrementally. One catalog per server; must be called before
  /// Start(). The catalog is independent of the RegisterFilter namespace.
  Status ServeCatalog(SetCatalog catalog,
                      const MultiSetIndexOptions& options = {});

  /// Deserializes a SetCatalog envelope from `path` and serves it.
  Status LoadCatalog(const std::string& path,
                     const MultiSetIndexOptions& options = {});

  /// Binds, listens, and spawns the acceptor. Fails if no filter is
  /// registered or the address is unusable.
  Status Start();

  /// Stops accepting, unblocks and joins every connection thread, closes
  /// all sockets. Idempotent; called by the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return port_; }

  /// Monotonic liveness counters (the STATS of the server itself).
  ///
  /// Both serving modes feed the SAME four atomics: accepts are counted by
  /// the acceptor (legacy) or by the event loop through its
  /// connections_counter hook; framing violations, which never reach
  /// HandleRequest in loop mode, flow through the loop's
  /// framing_errors_counter hook into protocol_errors; frames and keys are
  /// counted in the shared HandleFrame path. A METRICS frame therefore
  /// reports values bit-identical to counters() in either mode.
  struct Counters {
    uint64_t connections = 0;      ///< accepted since Start
    uint64_t frames = 0;           ///< request frames answered
    uint64_t keys_queried = 0;     ///< keys across QUERY + WHICH_SETS frames
    uint64_t protocol_errors = 0;  ///< non-OK responses sent
    uint64_t uptime_seconds = 0;   ///< seconds since Start (0 before)
    std::string version;           ///< core/version.h build version
  };
  Counters counters() const;

  /// The full observability snapshot a METRICS frame answers with: the
  /// process-global obs registry plus the four core counters above (as
  /// "server.connections_total" / "server.frames_total" /
  /// "server.keys_queried_total" / "server.protocol_errors_total"), slow
  /// log totals, uptime, build version and SIMD dispatch level. Also the
  /// source of --metrics-dump files.
  obs::MetricsSnapshot CollectMetrics() const;

  /// The per-frame trace ring (opcode, key count, queue wait, handle
  /// time, bytes for the last ~1024 frames). Configure the slow threshold
  /// via ServerOptions::slow_request_ms.
  obs::RequestTraceRing& trace_ring() { return trace_ring_; }
  const obs::RequestTraceRing& trace_ring() const { return trace_ring_; }

  /// Currently-open connections — the fuzz suite's slot-leak probe. Always
  /// 0 after Stop().
  uint64_t active_connections() const;

 private:
  /// One served filter: the object, its RW lock, and serving metadata.
  struct Served {
    std::unique_ptr<MembershipFilter> filter;
    /// Cached MultiplicityFilter view (null → COUNT mode unsupported).
    MultiplicityFilter* multiplicity = nullptr;
    /// Default SNAPSHOT/RELOAD target; updated by either opcode. An
    /// "mmap:" prefix marks a flat-image target (docs/persistence.md), so
    /// an empty-path RELOAD round-trips in the same mode it snapshot in.
    std::string source_path;
    /// True when `filter` serves straight off a read-only mapped image
    /// (storage::MappedFilter): ADD / REMOVE answer kUnsupported instead
    /// of tripping the mapped filter's mutation CHECK.
    bool read_only = false;
    /// Generation stamped into the last mapped snapshot (or carried by the
    /// mapped image this entry was loaded from); the next mmap SNAPSHOT
    /// writes generation + 1 so crash tooling can tell old from new.
    uint64_t snapshot_generation = 0;
    /// Readers shared, mutators exclusive (see file comment).
    mutable std::shared_mutex mu;
  };

  /// (legacy mode) A connection thread and its socket, so Stop() can
  /// unblock + join.
  struct LegacyConnection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// One response frame plus the close-after-send decision. Handlers run
  /// on concurrent connection threads, so everything per-request travels
  /// by value — the server object holds no per-request state.
  struct Response {
    std::string frame;
    bool close_connection = false;
    /// Keys this frame touched (QUERY/ADD/REMOVE/WHICH_SETS/INDEX_ADD);
    /// feeds the request-trace ring.
    uint32_t keys_touched = 0;
  };

  void AcceptLoop();
  void ServeConnection(LegacyConnection* connection);

  /// The shared per-frame entry point of BOTH serving modes: counts the
  /// frame, dispatches via HandleRequest, and (when obs::Enabled) records
  /// per-opcode latency, the queue-wait histogram and a trace-ring entry.
  /// The frame counter is bumped BEFORE handling so a METRICS response
  /// includes its own frame — the bit-for-bit parity contract with
  /// counters(). `reader_locked` is the filter whose reader lock the
  /// caller already holds (TryInline), null otherwise.
  Response HandleFrame(std::string_view body, bool* hello_done,
                       const server::EventLoop::FrameContext& context,
                       const Served* reader_locked = nullptr);

  /// The event loop's inline hook (loop thread): answers a QUERY frame
  /// through HandleFrame when it comes after HELLO, carries at most
  /// kInlineMaxKeys keys, names a filter reporting a probe-protocol layout
  /// (batch_fast_path().kind != kNone: its reads take no locks of their
  /// own; the batch itself runs through the engine's probe hook), and that
  /// filter's reader lock is free right now (try_lock_shared). Declines
  /// everything else — the loop thread never waits on a lock, a disk or a
  /// peer.
  std::optional<server::EventLoop::FrameResult> TryInline(
      std::string_view body, bool* hello_done,
      const server::EventLoop::FrameContext& context);

  /// Dispatches one request body. `*hello_done` tracks the connection's
  /// handshake state.
  Response HandleRequest(std::string_view body, bool* hello_done,
                         const Served* reader_locked);

  Response HandleHello(ByteReader* reader, bool* hello_done);
  Response HandleQuery(ByteReader* reader, const Served* reader_locked);
  Response HandleAdd(ByteReader* reader);
  Response HandleRemove(ByteReader* reader);
  Response HandleStats(ByteReader* reader);
  Response HandleList();
  Response HandleSnapshot(ByteReader* reader);
  Response HandleReload(ByteReader* reader);
  Response HandleWhichSets(ByteReader* reader);
  Response HandleIndexAdd(ByteReader* reader);
  Response HandleIndexDrop(ByteReader* reader);
  Response HandleMultisetList();
  Response HandleMetrics(ByteReader* reader);

  /// Reads the leading filter-name string and resolves it; on failure
  /// returns nullptr with `*error` set to the ready-to-send response.
  Served* ResolveFilter(ByteReader* reader, Response* error);

  /// Error response; fatal statuses (wire::IsFatal) also close.
  Response Error(wire::WireStatus status, std::string_view message);

  /// Joins and drops finished connection threads (called from the
  /// acceptor between accepts, and from Stop for the stragglers).
  void ReapConnections(bool all);

  ServerOptions options_;
  BatchQueryEngine engine_;
  /// Served-name → filter. Shape is frozen by Start(); per-entry state is
  /// guarded by the entry's own lock.
  std::map<std::string, std::unique_ptr<Served>, std::less<>> served_;

  /// The multiset subsystem (null until ServeCatalog/LoadCatalog): catalog
  /// and index move together under one lock — WHICH_SETS / MULTISET_LIST
  /// shared, INDEX_ADD / INDEX_DROP exclusive and ending with
  /// PrepareForConstReads() (same discipline as the per-filter locks).
  SetCatalog catalog_;
  std::unique_ptr<MultiSetIndex> multiset_;
  mutable std::shared_mutex multiset_mu_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  /// The default serving core (null under legacy_threads or before Start).
  /// Kept alive after Stop() so its counters remain readable.
  std::unique_ptr<server::EventLoop> loop_;

  // ---- legacy thread-per-connection state ----
  std::thread acceptor_;
  mutable std::mutex connections_mu_;
  std::vector<std::unique_ptr<LegacyConnection>> connections_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_served_{0};
  std::atomic<uint64_t> keys_queried_{0};
  std::atomic<uint64_t> protocol_errors_{0};

  // ---- observability (src/obs/, docs/observability.md) ----
  /// Set by Start(); epoch before it (uptime reads as 0).
  std::chrono::steady_clock::time_point start_time_{};
  obs::RequestTraceRing trace_ring_;
  /// Per-opcode handles into the global registry, resolved once in the
  /// constructor; index is the raw opcode byte.
  static constexpr size_t kOpcodeSlots = 16;
  struct OpcodeMetrics {
    obs::Counter* frames = nullptr;
    obs::Histogram* handle_us = nullptr;
  };
  OpcodeMetrics op_metrics_[kOpcodeSlots] = {};
  obs::Histogram* queue_wait_us_ = nullptr;
};

}  // namespace shbf

#endif  // SHBF_SERVER_SERVER_H_
