#include "server/event_loop.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "server/net.h"

namespace shbf {
namespace server {

namespace {

/// Cap on bytes read from one connection per loop iteration, so a firehose
/// peer cannot starve its neighbours (level-triggered epoll re-arms it).
constexpr size_t kMaxReadPerEvent = 256 * 1024;

/// One worker per CPU the process may actually run on: a server started
/// under `taskset -c 1-2` gets 2, not one per core of the host.
size_t DefaultWorkers() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  size_t cpus = 0;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    cpus = static_cast<size_t>(CPU_COUNT(&allowed));
  } else {
    cpus = std::thread::hardware_concurrency();
  }
  return std::min<size_t>(std::max<size_t>(cpus, 1), 8);
}

/// Microseconds since `enqueued`; 0 for frames stamped while metrics were
/// disabled (the epoch sentinel).
uint64_t QueueWaitUs(std::chrono::steady_clock::time_point enqueued) {
  if (enqueued == std::chrono::steady_clock::time_point{}) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - enqueued)
          .count());
}

/// The loop's registry handles, resolved once per process (the registry
/// returns stable pointers; increments after that are lock-free).
struct LoopMetrics {
  obs::Counter* connections_opened;
  obs::Counter* connections_closed;
  obs::Counter* connections_rejected;
  obs::Counter* backpressure_engaged;
  obs::Counter* backpressure_released;
  obs::Counter* inline_frames;
  obs::Counter* drains;
  obs::Gauge* last_drain_us;

  static const LoopMetrics& Get() {
    static const LoopMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      LoopMetrics m;
      m.connections_opened =
          registry.GetCounter("server.connections_opened_total");
      m.connections_closed =
          registry.GetCounter("server.connections_closed_total");
      m.connections_rejected =
          registry.GetCounter("server.connections_rejected_total");
      m.backpressure_engaged =
          registry.GetCounter("server.backpressure_engaged_total");
      m.backpressure_released =
          registry.GetCounter("server.backpressure_released_total");
      m.inline_frames = registry.GetCounter("server.inline_frames_total");
      m.drains = registry.GetCounter("server.drains_total");
      m.last_drain_us = registry.GetGauge("server.last_drain_us");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

EventLoop::EventLoop(int listen_fd, EventLoopOptions options,
                     FrameHandler handler, InlineHandler try_inline)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      try_inline_(std::move(try_inline)),
      listen_fd_(listen_fd) {
  if (options_.num_workers == 0) options_.num_workers = DefaultWorkers();
  if (options_.max_batch_frames == 0) options_.max_batch_frames = 1;
  if (options_.max_pending_frames == 0) options_.max_pending_frames = 1;
}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  if (running_.load()) return Status::FailedPrecondition("already running");
  if (!net::SetNonBlocking(listen_fd_)) {
    return Status::Internal("listen fd: cannot set O_NONBLOCK");
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::Internal("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    net::CloseFd(epoll_fd_);
    epoll_fd_ = -1;
    return Status::Internal("eventfd failed");
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
  event.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);

  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  workers_stop_ = false;
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&EventLoop::WorkerThread, this);
  }
  loop_thread_ = std::thread(&EventLoop::LoopThread, this);
  return Status::Ok();
}

void EventLoop::Stop() {
  stopping_.store(true, std::memory_order_release);
  if (running_.exchange(false)) WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  net::CloseFd(listen_fd_);
  listen_fd_ = -1;
  net::CloseFd(epoll_fd_);
  epoll_fd_ = -1;
  net::CloseFd(wake_fd_);
  wake_fd_ = -1;
}

void EventLoop::WakeLoop() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
}

bool EventLoop::ReadsPaused(const Connection& conn) const {
  return conn.pending.size() >= options_.max_pending_frames ||
         conn.output_bytes() >= options_.max_output_bytes;
}

void EventLoop::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  const bool paused = ReadsPaused(*conn);
  if (paused != conn->reads_paused) {
    conn->reads_paused = paused;
    (paused ? LoopMetrics::Get().backpressure_engaged
            : LoopMetrics::Get().backpressure_released)
        ->Increment();
  }
  uint32_t want = 0;
  if (!conn->no_more_reads && !conn->close_after_flush && !paused) {
    want |= EPOLLIN;
  }
  if (conn->output_bytes() > 0) want |= EPOLLOUT;
  if (want == conn->epoll_mask) return;
  epoll_event event{};
  event.events = want;
  event.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
  conn->epoll_mask = want;
}

void EventLoop::Kill(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  conn->dead = true;
  const int fd = conn->fd;
  conn->fd = -1;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  net::CloseFd(fd);
  connections_.erase(fd);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  LoopMetrics::Get().connections_closed->Increment();
}

void EventLoop::HandleAccept() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: burst drained. EMFILE/ENFILE and friends: nothing to do
      // but wait for slots; level-triggered epoll retries us.
      break;
    }
    if (options_.max_connections != 0 &&
        connections_.size() >= options_.max_connections) {
      net::CloseFd(fd);
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      LoopMetrics::Get().connections_rejected->Increment();
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd, next_connection_id_++,
                                             options_.max_frame_bytes);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
    conn->epoll_mask = EPOLLIN;
    connections_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (options_.connections_counter != nullptr) {
      options_.connections_counter->fetch_add(1, std::memory_order_relaxed);
    }
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    LoopMetrics::Get().connections_opened->Increment();
  }
}

void EventLoop::HandleReadable(const std::shared_ptr<Connection>& conn) {
  if (conn->dead || conn->no_more_reads) return;
  char buffer[64 * 1024];
  size_t read_this_event = 0;
  while (read_this_event < kMaxReadPerEvent) {
    size_t got = 0;
    const net::IoResult result =
        net::RecvSome(conn->fd, buffer, sizeof(buffer), &got);
    if (result == net::IoResult::kError) {
      Kill(conn);
      return;
    }
    if (result == net::IoResult::kEof) {
      // Half-close: keep answering what already arrived; a partial frame
      // in the splitter is a truncation with nobody to answer.
      conn->no_more_reads = true;
      break;
    }
    if (result == net::IoResult::kWouldBlock) break;
    read_this_event += got;
    conn->splitter.Feed(buffer, got);
    std::string_view frame;
    bool violation = false;
    while (true) {
      const FrameSplitter::Event event = conn->splitter.Next(&frame);
      if (event == FrameSplitter::Event::kNeedMore) break;
      PendingFrame pending;
      if (event == FrameSplitter::Event::kFrame) {
        // Nothing ahead of it: the hook may answer it off the view.
        if (!conn->in_flight && conn->pending.empty() &&
            ServeInline(conn, frame, 0)) {
          if (conn->no_more_reads) break;  // a fatal answer
          continue;
        }
        pending.body.assign(frame.data(), frame.size());
        if (obs::Enabled()) {
          pending.enqueued = std::chrono::steady_clock::now();
        }
      } else {
        pending.kind = event == FrameSplitter::Event::kEmpty
                           ? PendingFrame::Kind::kEmpty
                           : PendingFrame::Kind::kTooLarge;
        framing_errors_.fetch_add(1, std::memory_order_relaxed);
        if (options_.framing_errors_counter != nullptr) {
          options_.framing_errors_counter->fetch_add(
              1, std::memory_order_relaxed);
        }
        violation = true;
      }
      conn->pending.push_back(std::move(pending));
      if (violation) break;
    }
    if (violation) {
      // The bytes after a violation are unframeable noise — stop reading;
      // the violation item flows through the queue so the error response
      // keeps pipeline order.
      conn->no_more_reads = true;
      break;
    }
    if (conn->no_more_reads || ReadsPaused(*conn)) break;
  }
  MaybeDispatch(conn);
  if (!Flush(conn)) return;  // inline answers leave on this same wake-up
  UpdateInterest(conn);
  // EOF with nothing buffered anywhere: a clean hang-up, close now.
  if (conn->no_more_reads && conn->pending.empty() && !conn->in_flight &&
      conn->output_bytes() == 0) {
    Kill(conn);
  }
}

bool EventLoop::ServeInline(const std::shared_ptr<Connection>& conn,
                            std::string_view body, uint64_t queue_wait_us) {
  if (!try_inline_) return false;
  FrameContext context;
  context.connection_id = conn->id;
  context.queue_wait_us = queue_wait_us;
  std::optional<FrameResult> result =
      try_inline_(body, &conn->hello_done, context);
  if (!result.has_value()) return false;
  LoopMetrics::Get().inline_frames->Increment();
  conn->AppendOutput(result->frame);
  if (result->close_connection) conn->CloseAfterFlush();
  return true;
}

void EventLoop::MaybeDispatch(const std::shared_ptr<Connection>& conn) {
  if (conn->dead || conn->in_flight) return;
  // Frames that queued behind a batch get their inline offer now, in
  // order, up to the first one the hook declines.
  while (!conn->pending.empty()) {
    const PendingFrame& front = conn->pending.front();
    if (front.kind != PendingFrame::Kind::kRequest ||
        !ServeInline(conn, front.body, QueueWaitUs(front.enqueued))) {
      break;
    }
    if (conn->close_after_flush) return;  // fatal: the backlog is gone
    conn->pending.pop_front();
  }
  if (conn->pending.empty()) return;
  Work work;
  work.conn = conn;
  const size_t take =
      std::min(options_.max_batch_frames, conn->pending.size());
  work.frames.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    work.frames.push_back(std::move(conn->pending.front()));
    conn->pending.pop_front();
  }
  conn->in_flight = true;
  ++batches_in_flight_;
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_queue_.push_back(std::move(work));
  }
  work_cv_.notify_one();
}

bool EventLoop::Flush(const std::shared_ptr<Connection>& conn) {
  while (!conn->dead && conn->output_bytes() > 0) {
    size_t sent = 0;
    const net::IoResult result =
        net::SendSome(conn->fd, conn->outbuf.data() + conn->out_cursor,
                      conn->output_bytes(), &sent);
    if (result == net::IoResult::kError) {
      Kill(conn);
      return false;
    }
    if (result == net::IoResult::kWouldBlock || sent == 0) break;
    conn->out_cursor += sent;
  }
  return !conn->dead;
}

void EventLoop::HandleWritable(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  if (!Flush(conn)) return;
  UpdateInterest(conn);
  if (conn->output_bytes() == 0 && !conn->in_flight) {
    if (conn->close_after_flush ||
        (conn->no_more_reads && conn->pending.empty())) {
      Kill(conn);
    }
  }
}

void EventLoop::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    const std::shared_ptr<Connection>& conn = completion.conn;
    conn->in_flight = false;
    --batches_in_flight_;
    if (conn->dead) continue;
    conn->AppendOutput(completion.output);
    if (completion.close_connection) conn->CloseAfterFlush();
    MaybeDispatch(conn);  // may append inline answers behind the batch's
    if (!Flush(conn)) continue;
    UpdateInterest(conn);
    if (conn->output_bytes() == 0 && !conn->in_flight) {
      if (conn->close_after_flush ||
          (conn->no_more_reads && conn->pending.empty())) {
        Kill(conn);
      }
    }
  }
}

void EventLoop::LoopThread() {
  std::vector<epoll_event> events(512);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int ready = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t mask = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t ignored =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (mask & EPOLLERR) {
        Kill(conn);
        continue;
      }
      if (mask & EPOLLIN) HandleReadable(conn);
      if (conn->dead) continue;
      if (mask & EPOLLOUT) HandleWritable(conn);
      if (conn->dead) continue;
      if ((mask & EPOLLHUP) != 0 && (mask & EPOLLIN) == 0) Kill(conn);
    }
    DrainCompletions();
  }
  DrainAndClose();
}

void EventLoop::DrainAndClose() {
  const auto drain_start = std::chrono::steady_clock::now();
  // 1. No new connections, no new requests: stop accepting and reading.
  //    Parsed-but-undispatched frames are abandoned (their requests never
  //    started), mirroring the legacy server abandoning unread bytes.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  net::CloseFd(listen_fd_);
  listen_fd_ = -1;
  for (auto& [fd, conn] : connections_) {
    conn->no_more_reads = true;
    conn->pending.clear();
    UpdateInterest(conn);
  }
  // 2. Deterministic drain: every batch already at the workers completes,
  //    and every queued response byte is flushed to peers that keep
  //    reading — only peers still stalled after drain_timeout_ms get cut.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  std::vector<epoll_event> events(512);
  while (true) {
    bool output_pending = false;
    for (const auto& [fd, conn] : connections_) {
      if (conn->output_bytes() > 0) {
        output_pending = true;
        break;
      }
    }
    const bool expired = std::chrono::steady_clock::now() >= deadline;
    // In-flight batches must complete regardless of the deadline (workers
    // cannot be aborted mid-handler); pending output stops mattering once
    // the deadline passes.
    if (batches_in_flight_ == 0 && (!output_pending || expired)) break;
    const int ready = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()), 50);
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t ignored =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        Kill(conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
    }
    DrainCompletions();
  }
  // 3. Close whatever is left (drained idle connections and stalled
  //    peers alike).
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) remaining.push_back(conn);
  for (const auto& conn : remaining) Kill(conn);
  LoopMetrics::Get().drains->Increment();
  LoopMetrics::Get().last_drain_us->Set(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - drain_start)
          .count());
}

void EventLoop::WorkerThread() {
  while (true) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock,
                    [this] { return workers_stop_ || !work_queue_.empty(); });
      if (work_queue_.empty()) return;  // workers_stop_ and drained
      work = std::move(work_queue_.front());
      work_queue_.pop_front();
    }
    Completion completion;
    completion.conn = work.conn;
    for (PendingFrame& frame : work.frames) {
      if (frame.kind == PendingFrame::Kind::kEmpty) {
        completion.output += options_.empty_frame_response;
        completion.close_connection = true;
        break;
      }
      if (frame.kind == PendingFrame::Kind::kTooLarge) {
        completion.output += options_.too_large_response;
        completion.close_connection = true;
        break;
      }
      FrameContext context;
      context.connection_id = work.conn->id;
      context.queue_wait_us = QueueWaitUs(frame.enqueued);
      FrameResult result =
          handler_(frame.body, &work.conn->hello_done, context);
      completion.output += result.frame;
      if (result.close_connection) {
        completion.close_connection = true;
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      completions_.push_back(std::move(completion));
    }
    WakeLoop();
  }
}

}  // namespace server
}  // namespace shbf
