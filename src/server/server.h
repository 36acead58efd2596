#ifndef AEETES_SERVER_SERVER_H_
#define AEETES_SERVER_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_annotations.h"
#include "src/server/collection_manager.h"
#include "src/server/protocol.h"
#include "src/server/rate_limiter.h"
#include "src/server/request_batcher.h"

namespace aeetes {
namespace server {

/// The aeetes_server daemon core (ISSUE 8 tentpole): a poll()-based event
/// loop speaking the framed-JSON protocol (protocol.h) over TCP. One
/// thread runs the loop; extraction work leaves it immediately through the
/// RequestBatcher (whose dispatcher fans out over each engine's
/// ParallelExtractor pool), so the loop only parses, routes, and writes.
///
/// Response ordering: a connection may pipeline requests; responses are
/// sequenced per connection, so they always come back in request order
/// even though extract completes asynchronously while admin verbs answer
/// inline.
///
/// Admin verbs (`create`, `load`, `swap`, `delete`) run synchronously on
/// the loop thread: they are rare, and `swap`'s expensive part (the
/// snapshot load) is mmap-backed. A `create` over a large TSV will stall
/// the accept loop for its build time — acceptable for an admin plane,
/// documented in DESIGN.md §14.
///
/// Drain contract: RequestDrain() (or a 'd' byte on drain_fd(), which is
/// what the SIGTERM handler writes — write(2) is async-signal-safe) makes
/// the loop stop accepting and stop reading; requests already received
/// finish, responses flush, connections close, the batcher drains, the
/// flight recorders dump (when configured), and Wait() returns.
class Server {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral; see port()
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    size_t max_connections = 256;
    /// Per-connection backpressure: once a connection holds this many
    /// unflushed response bytes, the loop stops reading further requests
    /// from it (POLLIN gated off) until the peer drains below the mark.
    /// A slow or stalled reader therefore caps its own memory footprint
    /// instead of growing the outbox without bound, and never stalls the
    /// poll loop or other connections. Pipelined response order is
    /// unaffected — sequencing happens before the outbox.
    size_t outbox_high_watermark = 4u << 20;
    RateLimiter::Options rate_limit;
    RequestBatcher::Options batcher;
    CollectionManager::Options collections;
    /// When nonempty, drain writes {"<collection>":<flight recorder
    /// json>,...} here (requires collections.enable_flight_recorder).
    std::string flight_recorder_dump_path;
  };

  /// Binds, listens, and starts the event loop thread. The server is
  /// serving when this returns.
  static Result<std::unique_ptr<Server>> Start(Options options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves ephemeral binds).
  [[nodiscard]] uint16_t port() const { return port_; }

  /// Write one 'd' byte here to request drain; safe from a signal
  /// handler. The fd stays valid for the server's lifetime.
  [[nodiscard]] int drain_fd() const { return wake_write_fd_; }

  /// Thread-safe drain request (idempotent).
  void RequestDrain();
  /// Blocks until the event loop has fully drained and exited.
  void Wait();
  /// RequestDrain + Wait; idempotent.
  void Stop();

  [[nodiscard]] CollectionManager& collections() { return *collections_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

 private:
  /// Per-connection state; owned and touched only by the loop thread.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    FrameReader reader;
    std::string outbox;  // encoded frames awaiting write
    size_t out_off = 0;
    uint64_t next_seq = 0;   // next request sequence number to assign
    uint64_t next_send = 0;  // next sequence to append to the outbox
    /// Completed payloads that arrived ahead of next_send.
    std::map<uint64_t, std::string> ready;
    size_t in_flight = 0;  // batcher jobs outstanding
    bool closing = false;  // stop reading; destroy once quiesced
    /// Poisoned by a bad frame: our side is shut down for writing and
    /// further input is discarded until the peer closes or the deadline
    /// passes (lingering close; see BeginLinger).
    bool lingering = false;
    int64_t linger_deadline_us = 0;

    explicit Connection(size_t max_frame_bytes) : reader(max_frame_bytes) {}
  };

  /// One asynchronously completed response in flight back to the loop.
  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    std::string payload;
  };

  explicit Server(Options options);

  Status Init();       // socket + pipe setup (loop not yet running)
  void Loop();         // the event loop (runs on loop_)
  void AcceptReady();
  /// Read/write pumps; false means the connection died and must be
  /// destroyed (in-flight completions for it are dropped by id lookup).
  [[nodiscard]] bool ReadReady(Connection& conn);
  [[nodiscard]] static bool WriteReady(Connection& conn);
  /// A closing connection with nothing left to deliver.
  [[nodiscard]] static bool Quiesced(const Connection& conn);
  /// Drops `conn` gracefully after a bad frame: sends FIN, discards the
  /// peer's remaining bytes and closes once it hangs up (or after
  /// kLingerMicros). Closing with unread input would reset the peer
  /// instead, failing its in-progress write rather than its next read.
  void BeginLinger(Connection& conn);
  void HandleFrame(Connection& conn, const std::string& payload);
  void HandleExtract(Connection& conn, uint64_t seq, Request req);
  [[nodiscard]] std::string HandleAdmin(const Request& req);
  /// Sequences `payload` as the response to request `seq` on `conn`,
  /// moving any now-in-order responses into the outbox.
  void CompleteLocal(Connection& conn, uint64_t seq, std::string payload);
  void PumpReady(Connection& conn);
  void PostCompletion(Completion completion) AEETES_EXCLUDES(mu_);
  void DrainCompletions() AEETES_EXCLUDES(mu_);
  void BeginDrain();
  void DumpFlightRecorders();

  Options options_;
  MetricsRegistry metrics_;
  Counter& requests_;
  Counter& rate_limited_;
  Counter& bad_frames_;
  Counter& connections_accepted_;
  Gauge& active_collections_;
  Gauge& delta_entities_;
  Counter& compactions_;
  Histogram& extract_latency_us_;

  std::unique_ptr<CollectionManager> collections_;
  RateLimiter rate_limiter_;
  std::unique_ptr<RequestBatcher> batcher_;
  /// Monotonic time base for the rate limiter and latency accounting.
  Stopwatch clock_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;

  /// Loop-thread-only state.
  std::map<uint64_t, Connection> conns_;
  uint64_t next_conn_id_ = 1;
  bool draining_ = false;

  Mutex mu_;
  std::vector<Completion> completions_ AEETES_GUARDED_BY(mu_);

  std::thread loop_;
  Mutex stop_mu_;  // serializes Wait() callers around the join
};

}  // namespace server
}  // namespace aeetes

#endif  // AEETES_SERVER_SERVER_H_
