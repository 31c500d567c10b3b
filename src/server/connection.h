// Per-connection state for the epoll event loop (event_loop.h): an
// incremental length-prefix frame splitter that tolerates arbitrarily
// fragmented input (byte-at-a-time dribbles, several pipelined frames in
// one read), a queue of parsed-but-unserved request bodies, and a buffered
// write side that survives short writes.
//
// Threading contract: every field is owned by the event-loop thread,
// EXCEPT `hello_done`, which belongs to whichever worker is processing the
// connection's one in-flight frame batch — the loop never dispatches a
// second batch before the first completes, only answers a frame inline
// (touching `hello_done` itself) while no batch is in flight, and the
// work/completion queue mutexes order the hand-offs, so no two threads
// ever touch it concurrently.

#ifndef SHBF_SERVER_CONNECTION_H_
#define SHBF_SERVER_CONNECTION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

namespace shbf {
namespace server {

/// Incremental length-prefixed frame parser. Feed() raw socket bytes in
/// any fragmentation; Next() pops complete frame bodies one at a time.
/// The returned views point into the internal buffer and are invalidated
/// by the next Feed() — copy before buffering.
class FrameSplitter {
 public:
  explicit FrameSplitter(size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  enum class Event {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< `*frame` holds one complete body
    kEmpty,     ///< a zero-length prefix arrived (protocol violation)
    kTooLarge,  ///< a prefix above max_frame_bytes arrived (violation)
  };

  void Feed(const char* data, size_t len);
  Event Next(std::string_view* frame);

  /// True when a partial prefix or body is buffered — an EOF now is a
  /// mid-frame truncation, not a clean close.
  bool mid_frame() const { return cursor_ < buffer_.size(); }

  /// Bytes currently buffered (flow-control accounting).
  size_t buffered_bytes() const { return buffer_.size() - cursor_; }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  size_t cursor_ = 0;  ///< start of the first unconsumed byte
};

/// One parsed item awaiting a worker (or the inline hook). Framing
/// violations travel through the same queue as real requests so error
/// responses keep wire order with the pipelined requests that preceded
/// them.
struct PendingFrame {
  enum class Kind : uint8_t {
    kRequest,   ///< `body` is a request body for the frame handler
    kEmpty,     ///< zero-length frame: answer the canned error, close
    kTooLarge,  ///< oversized frame: answer the canned error, close
  };
  Kind kind = Kind::kRequest;
  std::string body;
  /// When the loop parsed the frame; the worker derives the queue-wait
  /// metric from it. Left at epoch when metrics are disabled (a clock
  /// read per frame is exactly what obs::Enabled() gates).
  std::chrono::steady_clock::time_point enqueued{};
};

/// All loop-side state of one accepted socket. Lifetime is managed by
/// shared_ptr: the loop's fd-keyed map holds one reference, and every
/// in-flight work/completion item holds another, so a connection that
/// dies mid-batch stays valid until its last completion is discarded.
struct Connection {
  Connection(int fd_in, uint64_t id_in, size_t max_frame_bytes)
      : fd(fd_in), id(id_in), splitter(max_frame_bytes) {}

  int fd;
  const uint64_t id;

  FrameSplitter splitter;
  std::deque<PendingFrame> pending;  ///< parsed, not yet dispatched

  /// Bytes the kernel has not accepted yet; cursor avoids front-erases.
  std::string outbuf;
  size_t out_cursor = 0;

  bool hello_done = false;      ///< worker-owned (see file comment)
  bool in_flight = false;       ///< one batch is at the workers
  bool reads_paused = false;    ///< backpressure state (edge counting)
  bool no_more_reads = false;   ///< peer EOF'd or a fatal frame was seen
  bool close_after_flush = false;  ///< close once outbuf drains
  bool dead = false;            ///< discard any late completions
  uint32_t epoll_mask = 0;      ///< interest currently registered

  size_t output_bytes() const { return outbuf.size() - out_cursor; }

  /// After a fatal response: answer everything up to it, then close.
  /// Frames the peer pipelined behind the poison are abandoned, exactly
  /// like the thread-per-connection server leaving them unread.
  void CloseAfterFlush() {
    close_after_flush = true;
    no_more_reads = true;
    pending.clear();
  }

  /// Appends response bytes, compacting the consumed prefix when it
  /// dominates the buffer.
  void AppendOutput(std::string_view bytes);
};

}  // namespace server
}  // namespace shbf

#endif  // SHBF_SERVER_CONNECTION_H_
