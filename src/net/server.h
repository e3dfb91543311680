// blurnetd: the socket serving front-end for serve::InferenceEngine.
//
// A Server binds one TCP listen socket and runs one poll()-based event loop
// on its own thread — the server's only thread, however many connections are
// open. The loop accepts connections, reassembles frames from nonblocking
// reads (FrameDecoder), decodes requests, admits classify work straight into
// the engine's callback-form submit(), and writes queued response bytes back
// with short-write handling. Remote traffic therefore inherits batching,
// replica sharding, bounded-queue admission control and latency measurement
// unchanged:
//
//   wire → decode → submit() → coalesced replica forward → completion → encode → wire
//
// Classify work never executes on the loop. The engine's replica worker runs
// each request's completion, which only stores the prediction on its
// connection and pokes the loop's wake pipe; the loop then encodes the reply
// and appends it to the connection's outbox. Replies therefore come back in
// completion order, and ping/stats replies (written immediately by the loop)
// may overtake them — clients correlate by request id (the client library
// pipelines on exactly this). A completion touches only its connection and
// the wake pipe, both shared_ptr-owned, so a request that completes after the
// Server is gone is harmless.
//
// Backpressure is bidirectional: the loop stops reading from a connection
// whose unflushed outbox exceeds ServerConfig::max_outbox_bytes (a client
// that pipelines requests without reading replies cannot grow server memory
// without bound) or that already has max_inflight_requests classify requests
// unanswered; reads resume as the backlog drains.
//
// Failure is always a *frame*, never a dropped connection (except framing
// violations, where byte alignment is lost): an engine OverloadError becomes
// an ErrorCode::kOverload frame, validation failures (unknown variant, bad
// shape — the engine's descriptive messages, which list the registered
// variants) become kInvalidRequest, and requests arriving while the server
// drains become kShuttingDown.
//
// stop() is graceful: the listener closes immediately, requests already
// admitted keep draining (bounded by ServerConfig::drain_timeout_ms), new
// classify requests are refused with kShuttingDown frames, and once every
// connection is idle — or the deadline passes — connections are closed and
// the loop thread joins. Requests still inside the engine at that point
// complete into the void. The destructor calls stop().
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/serve/engine.h"
#include "src/util/lockdep.h"

namespace blurnet::net {

struct ServerConfig {
  /// Numeric IPv4 bind address. Loopback by default: blurnetd speaks an
  /// unauthenticated protocol, so exposing it beyond the host is a deliberate
  /// operator decision.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back with Server::port().
  std::uint16_t port = 0;
  int backlog = 64;
  /// Bound on any single frame (header + payload), both directions.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// stop(): longest wait for in-flight requests to drain before connections
  /// are closed anyway. Must be >= 1 — an unbounded drain would let one stuck
  /// request wedge shutdown forever.
  int drain_timeout_ms = 5000;
  /// Write backpressure: while a connection's unflushed outbox exceeds this
  /// many bytes, the loop stops reading from it (resuming once the backlog
  /// flushes), so a peer that pipelines requests without reading replies
  /// cannot grow server memory without bound.
  std::size_t max_outbox_bytes = std::size_t{8} << 20;
  /// Read backpressure: while a connection has this many decoded classify
  /// requests unanswered, the loop stops reading from it. Bounds the decoded
  /// image tensors a pipelining client can park server-side.
  int max_inflight_requests = 1024;

  /// Reject malformed configs with a descriptive std::invalid_argument
  /// (engine validation style).
  void validate() const;
};

class Server {
 public:
  /// Validates the config, binds and listens, and starts the event loop.
  /// The engine must outlive the server.
  Server(serve::InferenceEngine& engine, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves an ephemeral bind).
  std::uint16_t port() const { return port_; }
  const ServerConfig& config() const { return config_; }

  /// True once stop() has been requested (drain may still be in progress).
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Graceful shutdown: stop accepting, refuse new classify requests with
  /// kShuttingDown frames, drain in-flight requests (bounded by
  /// drain_timeout_ms), flush outboxes, then close every connection and join
  /// the loop thread. Idempotent and safe to call from any thread; blocks until
  /// shutdown is complete.
  void stop();

  /// Counter snapshot: per-opcode totals, per-open-connection counters, and
  /// the engine's per-variant stats (every name from variant_names(), aliases
  /// included). This is exactly the Stats opcode's payload.
  ServerStats stats() const;

 private:
  /// The self-pipe that wakes poll(). Engine completions hold it through
  /// their connection, so its fds close only with the last reference — a
  /// request completing after ~Server writes to a live pipe nobody reads,
  /// never to a closed (or reused) fd.
  struct WakePipe {
    WakePipe();
    ~WakePipe();
    WakePipe(const WakePipe&) = delete;
    WakePipe& operator=(const WakePipe&) = delete;

    /// Make the loop's poll() return. Never blocks: a full pipe already
    /// holds a pending wake-up.
    void poke() const;
    /// Empty the pipe (loop thread, after poll()).
    void drain() const;

    int read_fd = -1;
    int write_fd = -1;
  };

  /// One admitted classify (or classify-batch) request. Engine completions
  /// fill `predictions` under the connection's mutex; the one that brings
  /// `remaining` to zero hands the reply to the loop.
  struct Reply {
    std::uint32_t request_id = 0;
    bool batch = false;
    int remaining = 0;                            // images not yet completed
    std::vector<serve::Prediction> predictions;   // image order
    std::exception_ptr error;                     // first engine failure, if any
  };

  struct Connection {
    Connection(Socket sock, std::uint64_t id, std::size_t max_frame_bytes,
               std::shared_ptr<const WakePipe> wake)
        : socket(std::move(sock)), id(id), decoder(max_frame_bytes), wake(std::move(wake)) {}

    // Loop thread only.
    Socket socket;
    const std::uint64_t id;
    FrameDecoder decoder;
    std::vector<std::uint8_t> outbox;  // encoded frames awaiting write
    std::size_t outbox_offset = 0;     // flushed prefix of outbox
    int in_flight = 0;                 // admitted classify requests not yet answered
    bool input_closed = false;         // no further requests will be read
    bool close_after_flush = false;    // framing error: flush the error frame, then close

    // Shared with the engine completions of this connection's requests.
    const std::shared_ptr<const WakePipe> wake;
    util::DebugMutex mutex BLURNET_LOCK_CLASS("net::Server::connection");
    std::vector<std::shared_ptr<Reply>> completed;  // guarded by mutex; not yet encoded

    // Per-connection counters (atomic: stats() reads them from caller threads).
    std::atomic<std::int64_t> frames_in{0};
    std::atomic<std::int64_t> requests{0};
    std::atomic<std::int64_t> responses{0};
    std::atomic<std::int64_t> bytes_in{0};
    std::atomic<std::int64_t> bytes_out{0};
  };

  void event_loop();
  void accept_ready();
  /// Read-ready connection: pull bytes, decode frames, dispatch. Returns
  /// false when the connection should be torn down (EOF/reset).
  bool read_ready(const std::shared_ptr<Connection>& conn);
  /// Flush as much outbox as the socket accepts. Returns false on write
  /// failure (peer gone).
  bool flush_outbox(Connection& conn);
  void handle_frame(const std::shared_ptr<Connection>& conn, const Frame& frame);
  /// Decode and admit a classify request. Engine-side admission failures
  /// become typed error frames (kOverload / kInvalidRequest / kInternal),
  /// never a crash.
  void handle_classify(const std::shared_ptr<Connection>& conn, const Frame& frame, bool batch);
  /// Encode the replies whose images have all completed into the outbox.
  void deliver_completed(Connection& conn);
  /// Queue an error frame on the connection (counts errors_sent + specific
  /// counters per code).
  void queue_error(Connection& conn, std::uint32_t request_id, ErrorCode code,
                   const std::string& message);
  void queue_frame(Connection& conn, Opcode opcode, std::uint32_t request_id,
                   const std::vector<std::uint8_t>& payload);
  /// Close a connection and drop it from the live set. Completions still in
  /// the engine keep it alive until they have run.
  void retire(std::size_t index);

  serve::InferenceEngine& engine_;
  ServerConfig config_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::shared_ptr<const WakePipe> wake_;

  std::atomic<bool> draining_{false};

  // Lock hierarchy (outermost first): lifecycle -> roster, with the engine's
  // locks (shards -> queue) below both — stats() calls into the engine,
  // nothing in the engine calls back into the server. The connection mutex
  // is a leaf: the loop takes it to collect completed replies and engine
  // completions take it (outside every engine lock) to store one; no other
  // lock is ever acquired under it, and two connections' mutexes are never
  // held together. Enforced in Debug builds by util::DebugMutex
  // (src/util/lockdep.h).
  std::vector<std::shared_ptr<Connection>> connections_;  // loop thread only

  // serializes stop() callers
  util::DebugMutex lifecycle_mutex_ BLURNET_LOCK_CLASS("net::Server::lifecycle");
  bool stopped_ = false;

  std::atomic<std::uint64_t> next_connection_id_{1};
  std::atomic<std::int64_t> accepted_{0};
  std::atomic<std::int64_t> frames_in_{0};
  std::atomic<std::int64_t> frames_out_{0};
  std::atomic<std::int64_t> bytes_in_{0};
  std::atomic<std::int64_t> bytes_out_{0};
  std::atomic<std::int64_t> classify_{0};
  std::atomic<std::int64_t> classify_batch_{0};
  std::atomic<std::int64_t> stats_{0};
  std::atomic<std::int64_t> ping_{0};
  std::atomic<std::int64_t> errors_sent_{0};
  std::atomic<std::int64_t> protocol_errors_{0};
  std::atomic<std::int64_t> overloads_{0};
  std::atomic<std::int64_t> shutdown_rejected_{0};

  // `connections_` is loop-thread-only, but stats() runs on caller threads;
  // this mutex guards the snapshot the loop maintains for it.
  mutable util::DebugMutex roster_mutex_ BLURNET_LOCK_CLASS("net::Server::roster");
  std::vector<std::shared_ptr<Connection>> roster_;

  // Declared last, so the constructor starts it only once every member the
  // loop touches exists.
  std::thread loop_;  // lint:allow(net-thread) the event loop, the server's only thread
};

}  // namespace blurnet::net
