#include "src/net/server.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/tensor/shape.h"

namespace blurnet::net {

namespace {

using Clock = std::chrono::steady_clock;

/// The loop's idle poll period. Small enough that stop() never stalls
/// noticeably past the drain deadline.
constexpr int kPollTimeoutMs = 50;
constexpr std::size_t kReadChunk = 64 * 1024;

/// Copy image `index` out of an NCHW batch as a standalone CHW tensor.
tensor::Tensor slice_image(const tensor::Tensor& batch, int index) {
  const int c = batch.dim(1), h = batch.dim(2), w = batch.dim(3);
  tensor::Tensor image(tensor::Shape{c, h, w});
  const std::size_t stride = image.numel();
  std::memcpy(image.data(), batch.data() + static_cast<std::size_t>(index) * stride,
              stride * sizeof(float));
  return image;
}

/// The constructor's checks, run before anything is bound.
ServerConfig checked(const serve::InferenceEngine& engine, ServerConfig config) {
  config.validate();
  if (engine.overload_policy() == serve::OverloadPolicy::kBlock) {
    throw std::invalid_argument(
        "Server: the engine uses OverloadPolicy::kBlock; admission runs on the event loop, "
        "where a blocking submit() would stall every connection — serve with kReject");
  }
  return config;
}

Socket listen_nonblocking(const ServerConfig& config) {
  Socket listener = tcp_listen(config.host, config.port, config.backlog);
  set_nonblocking(listener.fd());
  return listener;
}

}  // namespace

void ServerConfig::validate() const {
  if (host.empty()) {
    throw std::invalid_argument("ServerConfig: host must not be empty");
  }
  if (backlog < 1) {
    throw std::invalid_argument("ServerConfig: backlog must be >= 1 (got " +
                                std::to_string(backlog) + ")");
  }
  if (max_frame_bytes < kHeaderBytes) {
    throw std::invalid_argument("ServerConfig: max_frame_bytes must be >= the " +
                                std::to_string(kHeaderBytes) + "-byte header (got " +
                                std::to_string(max_frame_bytes) + ")");
  }
  if (drain_timeout_ms < 1) {
    throw std::invalid_argument(
        "ServerConfig: drain_timeout_ms must be >= 1 (got " + std::to_string(drain_timeout_ms) +
        "); an unbounded drain would let one stuck request wedge shutdown");
  }
  if (max_outbox_bytes < 1) {
    throw std::invalid_argument("ServerConfig: max_outbox_bytes must be >= 1");
  }
  if (max_inflight_requests < 1) {
    throw std::invalid_argument("ServerConfig: max_inflight_requests must be >= 1 (got " +
                                std::to_string(max_inflight_requests) + ")");
  }
}

Server::WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw SocketError(std::string("Server: pipe(): ") + std::strerror(errno));
  }
  read_fd = fds[0];
  write_fd = fds[1];
  set_nonblocking(read_fd);
  set_nonblocking(write_fd);
}

Server::WakePipe::~WakePipe() {
  ::close(read_fd);
  ::close(write_fd);
}

void Server::WakePipe::poke() const {
  const std::uint8_t one = 1;
  // EAGAIN means the pipe already holds a pending wake-up; that is enough.
  [[maybe_unused]] const ssize_t rc = ::write(write_fd, &one, 1);
}

void Server::WakePipe::drain() const {
  std::uint8_t sink[64];
  while (::read(read_fd, sink, sizeof(sink)) > 0) {
  }
}

Server::Server(serve::InferenceEngine& engine, ServerConfig config)
    : engine_(engine),
      config_(checked(engine, std::move(config))),
      listener_(listen_nonblocking(config_)),
      port_(local_port(listener_.fd())),
      wake_(std::make_shared<const WakePipe>()),
      loop_([this] { event_loop(); }) {}

Server::~Server() { stop(); }

void Server::stop() {
  std::lock_guard<util::DebugMutex> lifecycle(lifecycle_mutex_);
  if (stopped_) return;
  stopped_ = true;
  draining_.store(true, std::memory_order_release);
  wake_->poke();
  if (loop_.joinable()) loop_.join();
}

void Server::event_loop() {
  bool drain_started = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    if (draining_.load(std::memory_order_acquire) && !drain_started) {
      drain_started = true;
      listener_.close();  // stop accepting immediately
      drain_deadline = Clock::now() + std::chrono::milliseconds(config_.drain_timeout_ms);
    }

    std::vector<pollfd> fds;
    fds.push_back({wake_->read_fd, POLLIN, 0});
    if (listener_.is_open()) fds.push_back({listener_.fd(), POLLIN, 0});
    const std::size_t first_conn = fds.size();
    for (auto& conn : connections_) {
      // Backpressure: stop reading from a peer whose replies it is not
      // consuming (unflushed outbox past the bound) or that already has a
      // full pipeline of unanswered classify requests. Reads resume once the
      // backlog drains — completions wake the loop as replies come back.
      const bool outbox_full =
          conn->outbox.size() - conn->outbox_offset > config_.max_outbox_bytes;
      const bool pipeline_full = conn->in_flight >= config_.max_inflight_requests;
      short events = 0;
      if (!conn->input_closed && !outbox_full && !pipeline_full) events |= POLLIN;
      if (conn->outbox_offset < conn->outbox.size()) events |= POLLOUT;
      fds.push_back({conn->socket.fd(), events, 0});
    }

    int timeout_ms = kPollTimeoutMs;
    if (drain_started) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(drain_deadline - Clock::now())
              .count();
      timeout_ms = static_cast<int>(std::clamp<long long>(left, 0, kPollTimeoutMs));
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;  // poll failure: bail out and tear down

    // Drain the wake pipe before collecting completions: one that lands after
    // the collection below pokes again, so the next poll() returns at once.
    if (fds[0].revents & POLLIN) wake_->drain();
    if (listener_.is_open() && fds.size() > 1 && (fds[1].revents & POLLIN)) accept_ready();

    // Service connections; collect the ones to tear down.
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      const std::shared_ptr<Connection>& conn = connections_[i];
      deliver_completed(*conn);
      const short revents = first_conn + i < fds.size() ? fds[first_conn + i].revents : 0;
      bool alive = true;
      if (revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (revents & (POLLIN | POLLHUP))) {
        try {
          alive = read_ready(conn);
        } catch (const SocketError&) {
          alive = false;  // peer reset mid-read
        }
        // Note: read_ready() feeds the decoder and dispatches frames; it
        // buffers responses, so always try a flush afterwards.
      }
      if (alive) {
        try {
          alive = flush_outbox(*conn);
        } catch (const SocketError&) {
          alive = false;
        }
      }
      if (alive) {
        // Fully served and peer finished sending: close once nothing is
        // pending and everything queued has hit the wire.
        const bool flushed = conn->outbox_offset >= conn->outbox.size();
        if (flushed && conn->close_after_flush) alive = false;
        if (flushed && conn->input_closed && conn->in_flight == 0) alive = false;
      }
      if (!alive) dead.push_back(i);
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) retire(*it);

    if (drain_started) {
      const bool idle =
          std::all_of(connections_.begin(), connections_.end(), [](const auto& conn) {
            return conn->in_flight == 0 && conn->outbox_offset >= conn->outbox.size();
          });
      if (idle || Clock::now() >= drain_deadline) break;
    }
  }

  // Teardown: abandon whatever is left (drain deadline passed, or poll died).
  while (!connections_.empty()) retire(connections_.size() - 1);
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN/EWOULDBLOCK: accepted everything pending
    }
    Socket socket(fd);
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.push_back(std::make_shared<Connection>(
        std::move(socket), next_connection_id_.fetch_add(1, std::memory_order_relaxed),
        config_.max_frame_bytes, wake_));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<util::DebugMutex> lock(roster_mutex_);
    roster_ = connections_;
  }
}

bool Server::read_ready(const std::shared_ptr<Connection>& conn) {
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const ssize_t got = ::recv(conn->socket.fd(), chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // reset
    }
    if (got == 0) {
      // Peer finished sending (half-close). Pending replies still flush; the
      // connection closes once they have.
      conn->input_closed = true;
      break;
    }
    bytes_in_.fetch_add(got, std::memory_order_relaxed);
    conn->bytes_in.fetch_add(got, std::memory_order_relaxed);
    conn->decoder.feed(chunk, static_cast<std::size_t>(got));
    Frame frame;
    try {
      while (conn->decoder.next(frame)) {
        frames_in_.fetch_add(1, std::memory_order_relaxed);
        conn->frames_in.fetch_add(1, std::memory_order_relaxed);
        handle_frame(conn, frame);
      }
    } catch (const WireError& e) {
      // Framing violation: byte alignment is lost, so report and close. The
      // error frame carries id 0 — it cannot be tied to a request.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      queue_error(*conn, 0, ErrorCode::kInvalidRequest, e.what());
      conn->input_closed = true;
      conn->close_after_flush = true;
      break;
    }
  }
  return true;
}

bool Server::flush_outbox(Connection& conn) {
  while (conn.outbox_offset < conn.outbox.size()) {
    const ssize_t wrote =
        ::send(conn.socket.fd(), conn.outbox.data() + conn.outbox_offset,
               conn.outbox.size() - conn.outbox_offset, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // retry on POLLOUT
      return false;  // peer gone
    }
    conn.outbox_offset += static_cast<std::size_t>(wrote);
    bytes_out_.fetch_add(wrote, std::memory_order_relaxed);
    conn.bytes_out.fetch_add(wrote, std::memory_order_relaxed);
  }
  conn.outbox.clear();
  conn.outbox_offset = 0;
  return true;
}

void Server::queue_frame(Connection& conn, Opcode opcode, std::uint32_t request_id,
                         const std::vector<std::uint8_t>& payload) {
  append_frame(conn.outbox, opcode, request_id, payload);
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  conn.responses.fetch_add(1, std::memory_order_relaxed);
}

void Server::queue_error(Connection& conn, std::uint32_t request_id, ErrorCode code,
                         const std::string& message) {
  queue_frame(conn, Opcode::kErrorResponse, request_id, encode_error({code, message}));
  errors_sent_.fetch_add(1, std::memory_order_relaxed);
  if (code == ErrorCode::kOverload) overloads_.fetch_add(1, std::memory_order_relaxed);
  if (code == ErrorCode::kShuttingDown) {
    shutdown_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  switch (frame.opcode) {
    case Opcode::kPing:
      ping_.fetch_add(1, std::memory_order_relaxed);
      queue_frame(*conn, Opcode::kPongResponse, frame.request_id, {});
      return;
    case Opcode::kStats:
      stats_.fetch_add(1, std::memory_order_relaxed);
      queue_frame(*conn, Opcode::kStatsResponse, frame.request_id, encode_stats(stats()));
      return;
    case Opcode::kClassify:
      classify_.fetch_add(1, std::memory_order_relaxed);
      handle_classify(conn, frame, /*batch=*/false);
      return;
    case Opcode::kClassifyBatch:
      classify_batch_.fetch_add(1, std::memory_order_relaxed);
      handle_classify(conn, frame, /*batch=*/true);
      return;
    default:
      // A response opcode sent *to* the server. The frame was well-formed, so
      // the stream stays aligned and the connection stays usable.
      queue_error(*conn, frame.request_id, ErrorCode::kInvalidRequest,
                  std::string("server received response opcode ") + to_string(frame.opcode) +
                      " (clients send kClassify/kClassifyBatch/kStats/kPing)");
      return;
  }
}

void Server::handle_classify(const std::shared_ptr<Connection>& conn, const Frame& frame,
                             bool batch) {
  ClassifyRequest request;
  try {
    request = decode_classify_request(frame.payload.data(), frame.payload.size(), batch);
  } catch (const WireError& e) {
    // Payload decode failure: framing was fine, so only this request fails.
    queue_error(*conn, frame.request_id, ErrorCode::kInvalidRequest, e.what());
    return;
  } catch (const std::exception& e) {
    // Defense in depth: a failure past the codec's own validation (e.g. the
    // image allocation) fails the request, never the process.
    queue_error(*conn, frame.request_id, ErrorCode::kInvalidRequest, e.what());
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    queue_error(*conn, frame.request_id, ErrorCode::kShuttingDown,
                "blurnetd is draining; no new classify requests accepted");
    return;
  }

  const int count = batch ? static_cast<int>(request.images.dim(0)) : 1;
  auto reply = std::make_shared<Reply>();
  reply->request_id = frame.request_id;
  reply->batch = batch;
  reply->remaining = count;
  reply->predictions.resize(static_cast<std::size_t>(count));
  serve::Options options;
  options.variant = request.variant;
  options.max_batch = request.max_batch;
  try {
    for (int i = 0; i < count; ++i) {
      // Runs on a replica worker: store the prediction, and hand the reply to
      // the loop once its last image is in. Never touches the Server.
      auto complete = [conn, reply, i](std::exception_ptr error, serve::Prediction prediction) {
        bool last = false;
        {
          std::lock_guard<util::DebugMutex> lock(conn->mutex);
          if (!error) {
            reply->predictions[static_cast<std::size_t>(i)] = std::move(prediction);
          } else if (!reply->error) {
            reply->error = std::move(error);
          }
          last = --reply->remaining == 0;
          if (last) conn->completed.push_back(reply);
        }
        if (last) conn->wake->poke();
      };
      engine_.submit(batch ? slice_image(request.images, i) : request.images, options,
                     std::move(complete));
    }
  } catch (const serve::OverloadError& e) {
    // Mid-batch shed: the whole request fails as one unit. The images past
    // the failed one never complete, so `remaining` never reaches zero and
    // the images already admitted complete into the void.
    queue_error(*conn, frame.request_id, ErrorCode::kOverload, e.what());
    return;
  } catch (const std::invalid_argument& e) {
    // Unknown variant / bad shape: the engine's message lists the
    // registered variants, which travels back to the client verbatim.
    queue_error(*conn, frame.request_id, ErrorCode::kInvalidRequest, e.what());
    return;
  } catch (const std::exception& e) {
    // Anything else the engine throws (e.g. "engine is shutting down" when
    // it stops while the server is live) becomes a typed frame, never an
    // escaped exception that would terminate the process.
    queue_error(*conn, frame.request_id, ErrorCode::kInternal, e.what());
    return;
  }
  conn->requests.fetch_add(count, std::memory_order_relaxed);
  ++conn->in_flight;
}

void Server::deliver_completed(Connection& conn) {
  std::vector<std::shared_ptr<Reply>> completed;
  {
    std::lock_guard<util::DebugMutex> lock(conn.mutex);
    completed.swap(conn.completed);
  }
  for (const auto& reply : completed) {
    --conn.in_flight;
    if (!reply->error) {
      queue_frame(conn, reply->batch ? Opcode::kClassifyBatchResponse : Opcode::kClassifyResponse,
                  reply->request_id, encode_predictions(reply->predictions, reply->batch));
      continue;
    }
    try {
      std::rethrow_exception(reply->error);
    } catch (const std::exception& e) {
      queue_error(conn, reply->request_id, ErrorCode::kInternal, e.what());
    } catch (...) {
      queue_error(conn, reply->request_id, ErrorCode::kInternal, "unknown engine failure");
    }
  }
}

void Server::retire(std::size_t index) {
  connections_[index]->socket.close();
  connections_.erase(connections_.begin() + static_cast<std::ptrdiff_t>(index));
  std::lock_guard<util::DebugMutex> lock(roster_mutex_);
  roster_ = connections_;
}

ServerStats Server::stats() const {
  ServerStats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.frames_in = frames_in_.load(std::memory_order_relaxed);
  out.frames_out = frames_out_.load(std::memory_order_relaxed);
  out.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  out.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  out.classify = classify_.load(std::memory_order_relaxed);
  out.classify_batch = classify_batch_.load(std::memory_order_relaxed);
  out.stats = stats_.load(std::memory_order_relaxed);
  out.ping = ping_.load(std::memory_order_relaxed);
  out.errors_sent = errors_sent_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  out.overloads = overloads_.load(std::memory_order_relaxed);
  out.shutdown_rejected = shutdown_rejected_.load(std::memory_order_relaxed);

  {
    std::lock_guard<util::DebugMutex> lock(roster_mutex_);
    out.open_connections = static_cast<std::int64_t>(roster_.size());
    out.connections.reserve(roster_.size());
    for (const auto& conn : roster_) {
      WireConnectionStats c;
      c.id = conn->id;
      c.frames_in = conn->frames_in.load(std::memory_order_relaxed);
      c.requests = conn->requests.load(std::memory_order_relaxed);
      c.responses = conn->responses.load(std::memory_order_relaxed);
      c.bytes_in = conn->bytes_in.load(std::memory_order_relaxed);
      c.bytes_out = conn->bytes_out.load(std::memory_order_relaxed);
      out.connections.push_back(c);
    }
  }

  for (const auto& name : engine_.variant_names()) {
    const serve::VariantStats vs = engine_.variant_stats(name);
    WireVariantStats v;
    v.variant = name;
    v.replicas = static_cast<std::int64_t>(vs.replicas.size());
    for (const auto& r : vs.replicas) {
      v.requests += r.requests;
      v.images += r.images;
    }
    v.rejected = vs.rejected;
    v.blocked = vs.blocked;
    v.queue_depth = vs.queue_depth;
    v.queue_peak = vs.queue_peak;
    v.latency_count = static_cast<std::int64_t>(vs.latency.count);
    v.latency_mean_us = vs.latency.mean_us;
    v.latency_p50_us = vs.latency.p50_us;
    v.latency_p99_us = vs.latency.p99_us;
    v.latency_p999_us = vs.latency.p999_us;
    out.variants.push_back(std::move(v));
  }
  return out;
}

}  // namespace blurnet::net
