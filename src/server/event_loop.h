// EventLoop — the epoll serving core behind ShbfServer's default mode:
// one loop thread multiplexing every connection (nonblocking accept,
// buffered framed reads tolerating arbitrary fragmentation, buffered
// writes surviving short writes) plus a fixed worker pool draining a
// frame-batch queue. Cheap frames the owner's inline hook accepts are
// answered on the loop thread itself; everything else — large batches,
// writer locks, snapshot I/O — runs on the workers, so nothing that can
// wait ever runs on, or blocks, the loop thread.
//
// Flow of one request frame:
//
//   epoll_wait → read() until EAGAIN → FrameSplitter pops 1..N pipelined
//   frames → if nothing is queued or in flight ahead of a frame, the
//   inline hook may answer it straight off the splitter's view (no copy,
//   no worker) → otherwise it joins conn.pending → (if no batch in flight)
//   dispatch a batch to the work queue → a worker runs the frame handler
//   per frame, in order, concatenating response frames → completion queue
//   + eventfd wakeup → loop appends to conn.outbuf → the frames queued
//   behind that batch get the inline offer in turn → flush, arm EPOLLOUT
//   for the rest
//
// The inline hook is the owner's to keep cheap and non-blocking: it must
// decline rather than wait on a lock, a disk or a peer, because while it
// runs no other connection is served. ShbfServer accepts only small
// QUERY frames whose reader lock it can take with try_lock_shared
// (docs/serving.md §2).
//
// Ordering: at most ONE batch per connection is in flight, and a frame is
// only answered inline when nothing is queued or in flight ahead of it, so
// pipelined responses leave in request order; across connections workers
// (and the loop's inline answers) run freely in parallel (per-filter locks
// serialize what must be serialized).
//
// Backpressure: a connection whose parsed-frame backlog or output buffer
// crosses its high-watermark stops being read (EPOLLIN dropped) until the
// workers/peer catch up — a slow-loris or never-reading peer idles its own
// connection and nothing else. Inline answers land in the same output
// buffer, so they count against the same watermark. Memory per connection
// is thereby bounded by max_frame_bytes + the watermarks.
//
// Stop() drains deterministically: stop accepting and reading, let
// in-flight batches complete, then keep flushing pending responses until
// every buffer empties or drain_timeout_ms passes — only stalled peers
// get their connections aborted. See docs/serving.md §2.
//
// The loop knows framing, not the protocol: the owner supplies the frame
// handler, the optional inline hook and the two canned framing-violation
// responses.

#ifndef SHBF_SERVER_EVENT_LOOP_H_
#define SHBF_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "server/connection.h"

namespace shbf {
namespace server {

struct EventLoopOptions {
  /// Per-frame body ceiling (mirrors wire::kMaxFrameBytes).
  size_t max_frame_bytes = size_t{1} << 26;

  /// Worker threads draining the frame-batch queue. 0 = one per CPU the
  /// process may run on (its affinity mask), clamped to [1, 8].
  size_t num_workers = 0;

  /// Accepted-connection ceiling; past it new sockets are accepted and
  /// immediately closed (so the backlog can't silently fill). 0 = none.
  size_t max_connections = 0;

  /// Most frames handed to a worker as one batch.
  size_t max_batch_frames = 64;

  /// Parsed-frame backlog per connection before its reads pause.
  size_t max_pending_frames = 256;

  /// Output-buffer bytes per connection before its reads pause.
  size_t max_output_bytes = size_t{8} << 20;  // 8 MiB

  /// Stop(): how long to keep flushing pending responses before aborting
  /// connections whose peers have stalled.
  int drain_timeout_ms = 5000;

  /// Canned responses for framing violations (already length-prefixed);
  /// sent in pipeline order, then the connection closes.
  std::string empty_frame_response;
  std::string too_large_response;

  /// Owner-supplied counters the loop feeds alongside its internal ones,
  /// so ShbfServer::counters() reports identical semantics in epoll and
  /// legacy modes (the legacy paths increment the same atomics directly).
  /// Optional; both may be null.
  std::atomic<uint64_t>* connections_counter = nullptr;     ///< accepts
  std::atomic<uint64_t>* framing_errors_counter = nullptr;  ///< violations
};

class EventLoop {
 public:
  /// What the frame handler returns for one request body.
  struct FrameResult {
    std::string frame;  ///< complete response (length prefix included)
    bool close_connection = false;
  };

  /// Per-frame serving context the loop knows and the handler does not:
  /// which connection, and how long the frame waited parsed-but-unserved
  /// before a worker (or the inline hook) picked it up (0 when metrics are
  /// disabled, for frames answered inline straight off the read, and in
  /// the legacy server, which handles frames inline with the read).
  struct FrameContext {
    uint64_t connection_id = 0;
    uint64_t queue_wait_us = 0;
  };

  /// Runs on worker threads. Must be safe to call concurrently for
  /// DIFFERENT connections; calls for one connection are serialized by
  /// the one-batch-in-flight rule. `*hello_done` is the connection's
  /// handshake state.
  using FrameHandler = std::function<FrameResult(
      std::string_view body, bool* hello_done, const FrameContext& context)>;

  /// Runs on the LOOP thread, offered each request frame that nothing is
  /// queued or in flight ahead of (a declined frame may be offered again
  /// before it ships). Returns the answer to serve the frame right there,
  /// or nullopt to send it — and every frame behind it — to the workers.
  /// Concurrent with FrameHandler calls for other connections. Must
  /// decline instead of blocking: while it runs, no other connection is
  /// served.
  using InlineHandler = std::function<std::optional<FrameResult>(
      std::string_view body, bool* hello_done, const FrameContext& context)>;

  /// Takes ownership of `listen_fd` (made nonblocking in Start). An empty
  /// `try_inline` sends every frame to the workers.
  EventLoop(int listen_fd, EventLoopOptions options, FrameHandler handler,
            InlineHandler try_inline = nullptr);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread and the worker pool.
  Status Start();

  /// Drains (see file comment) and joins every thread. Idempotent.
  void Stop();

  /// Worker threads Start spawns (num_workers, or its affinity default).
  size_t num_workers() const { return options_.num_workers; }

  /// Connections accepted since Start (rejected-over-limit ones excluded).
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// Connections accepted and immediately closed over max_connections.
  uint64_t connections_rejected() const {
    return connections_rejected_.load(std::memory_order_relaxed);
  }

  /// Framing violations answered with a canned response (zero-length or
  /// oversized prefixes) — the loop-level protocol errors.
  uint64_t framing_errors() const {
    return framing_errors_.load(std::memory_order_relaxed);
  }

  /// Currently-open connections (0 after Stop): the fuzz suite's
  /// slot-leak probe, and an operator liveness signal.
  uint64_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Work {
    std::shared_ptr<Connection> conn;
    std::vector<PendingFrame> frames;
  };
  struct Completion {
    std::shared_ptr<Connection> conn;
    std::string output;         ///< concatenated response frames, in order
    bool close_connection = false;
  };

  void LoopThread();
  void WorkerThread();

  // ---- loop-thread helpers (never called from workers) ----
  void HandleAccept();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void HandleWritable(const std::shared_ptr<Connection>& conn);
  void DrainCompletions();
  /// Offers the frames at the head of conn.pending to the inline hook,
  /// then ships the rest as one batch — unless a batch is in flight.
  void MaybeDispatch(const std::shared_ptr<Connection>& conn);
  /// Offers one frame to the inline hook; on acceptance appends the answer
  /// to conn.outbuf (and, for a fatal answer, stops the connection's
  /// reads and drops its backlog). Returns false when declined.
  bool ServeInline(const std::shared_ptr<Connection>& conn,
                   std::string_view body, uint64_t queue_wait_us);
  /// Writes outbuf until EAGAIN/empty; kills the connection on error.
  /// Returns false when the connection died.
  bool Flush(const std::shared_ptr<Connection>& conn);
  /// Recomputes and applies the connection's epoll interest mask.
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  /// Closes the fd, removes the connection from the map and epoll.
  void Kill(const std::shared_ptr<Connection>& conn);
  /// True while reads are paused for backpressure.
  bool ReadsPaused(const Connection& conn) const;
  /// The shutdown phase of the loop thread: drain then close everything.
  void DrainAndClose();

  void WakeLoop();

  EventLoopOptions options_;
  FrameHandler handler_;
  InlineHandler try_inline_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread loop_thread_;

  // Work queue: loop → workers.
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<Work> work_queue_;
  bool workers_stop_ = false;
  std::vector<std::thread> workers_;

  // Completion queue: workers → loop (paired with a wake_fd_ write).
  std::mutex completion_mu_;
  std::vector<Completion> completions_;

  /// fd → connection; entries are erased in Kill, never elsewhere.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;
  /// Batches at the workers; the Stop drain waits for this to hit zero.
  size_t batches_in_flight_ = 0;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> framing_errors_{0};
  std::atomic<uint64_t> active_connections_{0};
};

}  // namespace server
}  // namespace shbf

#endif  // SHBF_SERVER_EVENT_LOOP_H_
